"""A packet is decoded where it is built, and never parsed during a run.

Every frame a node or a C-switch queues travels to its medium with its
`frames.Decoded` value, and that value must be exactly what
`frames.decode` reads from the frame.  These tests check that equality on
every transmission of the bundled scenarios, of a switched ring and of a
bus and a link that reach every node send site, and on
`CSwitch._encode_for_port` for generated frames, and check that nothing
is parsed while a simulation runs.
"""

import pytest
from hypothesis import assume, example, given, strategies as st

from canxlnet import frames
from canxlnet.config import load_config
from canxlnet.engine import Flow, RunOptions, Simulation, SwitchPortRef, Topology
from canxlnet.frames import (
    ArpMessage,
    ArpOp,
    EthernetFrame,
    Ipv4Datagram,
    IocDatagram,
    MacAddress,
    ZERO_MAC,
)
from canxlnet.nodes import ClassicCanNode, EocNode, EthernetHost, IocNode
from canxlnet.switch import (
    CAN_XL,
    CSwitch,
    EGRESS_EOC,
    EGRESS_IOC_PREFERRED,
    EGRESS_MODES,
    ETH,
    PORT_KINDS,
    PortConfig,
    ROLE_BLOCKED,
)
from canxlnet.timing import CanXlTimingParams, EthernetTimingParams, to_ns

from conftest import all_scenarios, ip, mac

BUS = CanXlTimingParams(500e3, 8e6)
LINK = EthernetTimingParams(100e6)


def ring() -> Topology:
    """Three C-switches in a ring; sw3's port on link23 ends up blocked.

        busA (i1 ioc, e1 eoc) --p0 sw1 p1-- link12 --p1 sw2 p0-- busB (e2 eoc, i2 ioc)
                                   p2                   p2
                                   |                    |
                                 bus13 --p2 sw3 p1-- link23
                                            p0
                                            |
                                   linkH -- h (Ethernet host)

    sw1 compacts IPv4 on both its CAN ports; sw2 and sw3 tunnel.  So
    datagrams are compacted from Ethernet at sw1, rebuilt as Ethernet or
    tunnels from compact frames at sw2 and sw3, and cross bus13 compact
    one way and tunneled the other.  No flow ends at e1: sw1 would send it
    compact frames, which a tunnel node does not take."""
    topo = Topology(RunOptions(t_end=0.03))
    topo.add_node(IocNode("i1", mac(1), ip(1), can_priority=0x110))
    topo.add_node(EocNode("e1", mac(2), ip(2), can_priority=0x120))
    topo.add_node(EocNode("e2", mac(3), ip(3), can_priority=0x130))
    topo.add_node(IocNode("i2", mac(4), ip(4), can_priority=0x140))
    topo.add_node(EthernetHost("h", mac(5), ip(5)))
    topo.add_switch(CSwitch("sw1", 1, [
        PortConfig(0, CAN_XL, EGRESS_IOC_PREFERRED, 0x700),
        PortConfig(1, ETH),
        PortConfig(2, CAN_XL, EGRESS_IOC_PREFERRED, 0x701),
    ]))
    topo.add_switch(CSwitch("sw2", 2, [
        PortConfig(0, CAN_XL, EGRESS_EOC, 0x702),
        PortConfig(1, ETH),
        PortConfig(2, ETH),
    ]))
    topo.add_switch(CSwitch("sw3", 3, [
        PortConfig(0, ETH),
        PortConfig(1, ETH),
        PortConfig(2, CAN_XL, EGRESS_EOC, 0x703),
    ]))
    for name in ("busA", "busB", "bus13"):
        topo.add_bus(name, BUS)
    for name in ("link12", "link23", "linkH"):
        topo.add_link(name, LINK)
    for node, medium in (("i1", "busA"), ("e1", "busA"), ("e2", "busB"), ("i2", "busB"),
                         ("h", "linkH")):
        topo.attach_node(node, medium)
    for sw, port, medium in (("sw1", 0, "busA"), ("sw1", 1, "link12"), ("sw1", 2, "bus13"),
                             ("sw2", 0, "busB"), ("sw2", 1, "link12"), ("sw2", 2, "link23"),
                             ("sw3", 0, "linkH"), ("sw3", 1, "link23"), ("sw3", 2, "bus13")):
        topo.attach_switch_port(sw, port, medium)
    pairs = [("i1", 5), ("h", 1), ("e2", 1), ("i2", 5), ("i1", 4), ("h", 3), ("e1", 4)]
    for k, (source, dst) in enumerate(pairs):
        times = [to_ns(0.004 + 0.001 * k + 0.008 * n) for n in range(3)]
        topo.flows.append(Flow(f"f{k}", source, "ipv4", 44 + 100 * k, times, dst_ip=ip(dst)))
    return topo


def carried(monkeypatch) -> list:
    """Patch `Simulation.on_tx_start` to record (frame, carried rx, sender
    owner) for every transmission."""
    started = []
    on_tx_start = Simulation.on_tx_start

    def recording(self, station, frame, duration_ns, rx):
        started.append((frame, rx, station))
        on_tx_start(self, station, frame, duration_ns, rx)

    monkeypatch.setattr(Simulation, "on_tx_start", recording)
    return started


def switch_emissions(started) -> list:
    """The (frame, rx) of every transmission a switch started, after
    checking that every transmission, a node's too, carries
    `frames.decode(frame)`."""
    for frame, rx, _ in started:
        assert rx == frames.decode(frame)
    return [(frame, rx) for frame, rx, owner in started if isinstance(owner, SwitchPortRef)]


# Every parser a frame can go through: none of them may run during a run.
PARSERS = [(frames, "decode"), (frames, "eoc_decapsulate"), (frames, "ioc_decapsulate"),
           (frames, "arp_parse"), (frames, "bpdu_parse"), (EthernetFrame, "from_bytes"),
           (Ipv4Datagram, "from_bytes")]


def parses(monkeypatch) -> list:
    """Patch every parser to record its calls."""
    calls = []
    for owner, name in PARSERS:
        def counting(*args, parse=getattr(owner, name), name=name):
            calls.append(name)
            return parse(*args)
        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("path", all_scenarios(), ids=lambda p: p.stem)
def test_switch_emissions_carry_their_decode_in_every_scenario(monkeypatch, path):
    started = carried(monkeypatch)
    topo = load_config(str(path))
    Simulation(topo).run()
    assert bool(switch_emissions(started)) == bool(topo.switches)


def test_switch_emissions_carry_their_decode_in_a_ring(monkeypatch):
    started = carried(monkeypatch)
    sim = Simulation(ring())
    _, report = sim.run()
    assert switch_emissions(started)
    assert sim.topo.switches["sw3"].port_state[1].role == ROLE_BLOCKED
    assert report["switches"]["sw3"]["counters"]["stp_blocked"] > 0
    assert report["switches"]["sw2"]["counters"]["reconstruction_failure"] == 0
    for name, flow in report["flows"].items():
        assert flow["delivered_unique"] == flow["sent"] == 3, name
    # every way out of a switch was taken
    emitted = [(type(frame).__name__, getattr(frame, "sdt", None), rx.net.__class__.__name__)
               for frame, rx, owner in started if isinstance(owner, SwitchPortRef)]
    assert ("CanXlFrame", frames.SDT_IPV4, "IocDatagram") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "Ipv4Datagram") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "ArpMessage") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "Bpdu") in emitted
    assert ("EthernetFrame", None, "Ipv4Datagram") in emitted


def test_only_frames_a_node_queued_are_decoded(monkeypatch):
    # a node decodes its frame where it builds it, so not even a node's
    # frame is parsed once the run has started; nor is a BPDU, though the
    # ring's spanning tree is live
    started = carried(monkeypatch)
    calls = parses(monkeypatch)
    _, report = Simulation(ring()).run()
    from_nodes = [frame for frame, _, owner in started if not isinstance(owner, SwitchPortRef)]
    assert 0 < len(from_nodes) < len(started)
    # no decode for a switch's drops either
    assert report["switches"]["sw3"]["counters"]["stp_blocked"] > 0
    assert calls == []


def test_no_switch_parses_an_ipv4_header(monkeypatch):
    started = carried(monkeypatch)
    calls = parses(monkeypatch)
    Simulation(ring()).run()
    # sw1 compacted Ethernet/IPv4 for its ioc-preferred ports ...
    assert any(isinstance(owner, SwitchPortRef) and owner.switch.name == "sw1"
               and getattr(frame, "sdt", None) == frames.SDT_IPV4
               for frame, _, owner in started)
    # ... from the ingress value, and neither it nor anything else parsed
    # the header (Ipv4Datagram.from_bytes is among the patched parsers)
    assert calls == []


def every_send_site() -> Topology:
    """A bus and a link whose nodes send through every node send site:
    gratuitous ARP (streamlined nodes announce themselves), ARP request and
    reply, raw Ethernet padded to the minimum payload, Ethernet/IPv4 plain
    and tunneled (the streamlined node's refresh), compact IPv4 and
    classic CAN."""
    topo = Topology(RunOptions(t_end=0.02))
    topo.add_node(IocNode("i1", mac(1), ip(1), can_priority=0x110,
                          eoc_refresh_interval=0.002))
    topo.add_node(IocNode("i2", mac(2), ip(2), can_priority=0x120))
    topo.add_node(EocNode("e1", mac(3), ip(3), can_priority=0x130))
    topo.add_node(ClassicCanNode("c1"))
    topo.add_node(ClassicCanNode("c2", rx_ids=[0x100]))
    topo.add_node(EthernetHost("h1", mac(4), ip(4)))
    topo.add_node(EthernetHost("h2", mac(5), ip(5)))
    topo.add_bus("bus", BUS)
    topo.add_link("link", LINK)
    for node in ("i1", "i2", "e1", "c1", "c2"):
        topo.attach_node(node, "bus")
    for node in ("h1", "h2"):
        topo.attach_node(node, "link")
    times = [to_ns(0.001 * (1 + 2 * n)) for n in range(4)]
    topo.flows += [
        Flow("ioc", "i1", "ipv4", 44, times, dst_ip=ip(2)),
        Flow("raw", "e1", "raw-ethernet", 20, times, dst_mac=mac(1)),
        Flow("classic", "c1", "classic-can", 8, times, can_id=0x100),
        Flow("eth", "h1", "ipv4", 44, times, dst_ip=ip(5)),
        Flow("eth_raw", "h2", "raw-ethernet", 20, times, dst_mac=mac(4)),
    ]
    return topo


def test_every_node_send_site_queues_its_decode(monkeypatch):
    started = carried(monkeypatch)
    _, report = Simulation(every_send_site()).run()
    assert switch_emissions(started) == []
    for name, flow in report["flows"].items():
        assert flow["delivered_unique"] == flow["sent"] == 4, name
    sites = {(owner.name, type(frame).__name__, getattr(frame, "sdt", None),
              type(rx.net).__name__, getattr(rx.net, "op", None)) for frame, rx, owner in started}
    eoc, ipv4 = frames.SDT_ETHERNET, frames.SDT_IPV4
    assert sites >= {
        ("i1", "CanXlFrame", eoc, "ArpMessage", ArpOp.GRATUITOUS_REPLY),
        ("i1", "CanXlFrame", eoc, "ArpMessage", ArpOp.REQUEST),
        ("i2", "CanXlFrame", eoc, "ArpMessage", ArpOp.REPLY),
        ("i1", "CanXlFrame", ipv4, "IocDatagram", None),
        ("i1", "CanXlFrame", eoc, "Ipv4Datagram", None),  # the refresh
        ("e1", "CanXlFrame", eoc, "NoneType", None),
        ("c1", "ClassicCanFrame", None, "NoneType", None),
        ("h1", "EthernetFrame", None, "ArpMessage", ArpOp.REQUEST),
        ("h2", "EthernetFrame", None, "ArpMessage", ArpOp.REPLY),
        ("h1", "EthernetFrame", None, "Ipv4Datagram", None),
        ("h2", "EthernetFrame", None, "NoneType", None),
    }
    # a raw payload travels padded, as the receiver reads it
    raw = [rx.payload for _, rx, owner in started
           if owner.name in ("e1", "h2") and rx.net is None]
    assert raw and all(len(payload) == frames.ETH_MIN_PAYLOAD for payload in raw)


# -- _encode_for_port on generated frames ---------------------------------------

KNOWN = [(mac(1), ip(1)), (mac(2), ip(2))]  # EFDB entries with both addresses
ips = st.sampled_from([ip(1), ip(2), ip(3)])  # ip(3) only has no MAC
macs = st.binary(min_size=6, max_size=6).map(MacAddress)
octets = st.integers(0, 0xFF)


def ipv4_frame(dgram: Ipv4Datagram, checksum_flip: int = 0,
               da: MacAddress = mac(2), sa: MacAddress = mac(1)) -> EthernetFrame:
    """`dgram` in an Ethernet frame; a non-zero `checksum_flip` spoils its
    header checksum, so that `frames.decode` gives it no datagram."""
    raw = bytearray(dgram.to_bytes())
    raw[10] ^= checksum_flip
    return EthernetFrame(da, sa, frames.ETHERTYPE_IPV4, bytes(raw))


@st.composite
def ipv4_ethernet(draw) -> EthernetFrame:
    """Ethernet/IPv4 with any header fields, and now and then IP options,
    fragment fields or a wrong header checksum."""
    options = bytes(4 * draw(st.sampled_from([0, 0, 0, 1, 10])))
    dgram = Ipv4Datagram(
        draw(ips), draw(ips),
        bytes(draw(st.integers(0, frames.ETH_MTU - 20 - len(options)))),
        dscp_ecn=draw(octets), identification=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.sampled_from([0, frames.IPV4_DF, frames.IPV4_MF, 0b100])),
        fragment_offset=draw(st.sampled_from([0, 0, 0, 1, 0x1FFF])),
        ttl=draw(octets), protocol=draw(octets), options=options)
    return ipv4_frame(dgram, draw(st.sampled_from([0, 0, 0, 0xFF])), draw(macs), draw(macs))


@st.composite
def arp_ethernet(draw) -> EthernetFrame:
    op = draw(st.sampled_from([ArpOp.REQUEST, ArpOp.REPLY, ArpOp.GRATUITOUS_REPLY]))
    spa = draw(ips)
    tpa = spa if op == ArpOp.GRATUITOUS_REPLY else draw(ips)
    assume(op != ArpOp.REPLY or spa != tpa)
    tha = ZERO_MAC if op == ArpOp.REQUEST else draw(macs)
    return frames.arp_serialize(ArpMessage(op, draw(macs), spa, tha, tpa))


raw_ethernet = st.builds(EthernetFrame, macs, macs, st.sampled_from(
    [frames.ETHERTYPE_RAW_DATA, frames.ETHERTYPE_BPDU, 0x1234]),
    st.integers(0, frames.ETH_MTU).map(bytes))
compact = st.builds(IocDatagram, ips, ips, st.integers(0, frames.ETH_MTU - 20).map(bytes),
                    octets, octets, octets)
ingress = st.one_of(ipv4_ethernet(), arp_ethernet(), raw_ethernet, compact)


PLAIN = Ipv4Datagram(ip(1), ip(2), bytes(100), flags=frames.IPV4_DF)


@example(normalized=ipv4_frame(PLAIN), kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(PLAIN, checksum_flip=1), kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(Ipv4Datagram(ip(1), ip(2), bytes(100), options=bytes(4))),
         kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(Ipv4Datagram(ip(1), ip(2), bytes(100), flags=frames.IPV4_MF)),
         kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@given(normalized=ingress, kind=st.sampled_from(PORT_KINDS),
       mode=st.sampled_from(EGRESS_MODES))
def test_encoded_value_is_the_decode_of_the_encoded_frame(normalized, kind, mode):
    sw = CSwitch("sw", 1, [PortConfig(0, kind, mode, 0x123)])
    for m, a in KNOWN:
        sw.efdb.learn_joint(m, a, 0, 0)
    rx = frames.decode(normalized)
    encoded = sw._encode_for_port(rx, sw.ports[0], 0)
    if isinstance(normalized, EthernetFrame) and kind == CAN_XL:
        expected = frames.eoc_encapsulate(normalized, 0x123)
        if mode == EGRESS_IOC_PREFERRED and normalized.ethertype == frames.ETHERTYPE_IPV4:
            try:  # compacted exactly where the Ethernet payload parses as plain IPv4
                expected = frames.ioc_encode(frames.ethernet_to_ioc(normalized), 0x123)
            except frames.NotPlainIpv4:
                pass
        assert encoded[0] == expected
    if encoded is None:  # a compact datagram with an address the EFDB lacks
        assert isinstance(normalized, IocDatagram) and ip(3) in (normalized.src_ip,
                                                               normalized.dst_ip)
        assert sw.counters["reconstruction_failure"] == 1
        return
    frame, frame_rx = encoded
    assert frame_rx == frames.decode(frame)


def test_hello_bpdus_carry_their_decode():
    sw = CSwitch("sw", 1, [PortConfig(0, CAN_XL), PortConfig(1, ETH),
                           PortConfig(2, CAN_XL, EGRESS_IOC_PREFERRED, 0x701)])
    out = sw.hello()
    assert [port for port, _, _ in out] == [0, 1, 2]
    for _, frame, rx in out:
        assert rx == frames.decode(frame) == (rx.eth, frames.Bpdu(1, 0, 1), None)
