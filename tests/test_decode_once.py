"""Every frame carries its decoded value from where it is built, and
nothing is parsed or serialized during a run.

The `frames` functions that build a frame attach its decoded value,
`frame.decoded`, and `Simulation.on_tx_start` reads it once per
transmission for every receiver.  That value must be exactly what
`frames.decode` parses from the frame's bytes.  A hypothesis property
checks that equality for every builder, for frames built from bytes and
for raw Ethernet and classic frames; a run-level check checks it, and
that nothing is parsed, for every transmission of the bundled scenarios,
a switched ring, a bus and a link that reach every node send site and
the benchmark's workloads (`RUNS`).  As `frames.decode` serializes each
frame to read it, they also check that the frames a run carries without
serializing them are real frames.  Other tests check that no frame or
IPv4 header is serialized during a run, that a run leaves no cyclic
garbage, and that a switch port sends what the codec makes of its
ingress.
"""

import contextlib
import gc
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from canxlnet import frames
from canxlnet.config import build_topology, load_config
from canxlnet.engine import Flow, RunOptions, Simulation, SwitchPortRef, Topology
from canxlnet.frames import (
    ArpMessage,
    ArpOp,
    EthernetFrame,
    Ipv4Datagram,
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

from conftest import all_scenarios, compact_dgram, ip, mac, receptions, transmissions, workloads

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


# Every parser a frame can go through: none of them may run during a run.
PARSERS = [frames.decode, frames.eoc_decapsulate, frames.ioc_decapsulate, frames.arp_parse,
           frames.bpdu_parse, EthernetFrame.from_bytes, Ipv4Datagram.from_bytes]
# Every serializer of a frame or an IPv4 header: none of them may run during a
# run either.  ARP messages and BPDUs are serialized where they are built.
SERIALIZERS = [Ipv4Datagram.to_bytes, EthernetFrame.to_bytes, frames.CanXlFrame.to_bytes,
               frames.ipv4_checksum]


@contextlib.contextmanager
def calls_to(functions):
    """Record the name of every call of `functions` made in the block.  A
    profile hook matches their code objects, so a call counts through any
    name a module imported the function under."""
    codes = {getattr(fn, "__func__", fn).__code__: fn.__qualname__ for fn in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def receivers_get_the_decode(monkeypatch, topo: Topology) -> tuple[list, dict]:
    """Run `topo`, check that it parses nothing, that every frame that
    starts carries `frames.decode(frame)` and that each reception gets its
    frame's value; returns the (station, frame) of every transmission
    and the report.  This is the run-level check; every entry of `RUNS`
    goes through it."""
    started = transmissions(monkeypatch)
    received = receptions(monkeypatch)
    with calls_to(PARSERS) as calls:
        _, report = Simulation(topo).run()
    assert calls == []
    for _, frame in started:
        assert frame.decoded == frames.decode(frame)
    for _, frame, rx in received:
        assert rx == frame.decoded
    return started, report


@pytest.mark.parametrize("path", all_scenarios(), ids=lambda p: p.stem)
def test_switch_emissions_carry_their_decode_in_every_scenario(monkeypatch, path):
    topo = load_config(str(path))
    started, _ = receivers_get_the_decode(monkeypatch, topo)
    assert any(isinstance(sender, SwitchPortRef) for sender, _ in started) == \
        bool(topo.switches)


def test_switch_emissions_carry_their_decode_in_a_ring(monkeypatch):
    topo = ring()
    started, report = receivers_get_the_decode(monkeypatch, topo)
    assert topo.switches["sw3"].port_state[1].role == ROLE_BLOCKED
    assert report["switches"]["sw3"]["counters"]["stp_blocked"] > 0
    assert report["switches"]["sw2"]["counters"]["reconstruction_failure"] == 0
    for name, flow in report["flows"].items():
        assert flow["delivered_unique"] == flow["sent"] == 3, name
    # every way out of a switch was taken
    emitted = [(type(frame).__name__, getattr(frame, "sdt", None),
                type(frame.decoded.net).__name__)
               for sender, frame in started if isinstance(sender, SwitchPortRef)]
    assert ("CanXlFrame", frames.SDT_IPV4, "Ipv4Datagram") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "Ipv4Datagram") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "ArpMessage") in emitted
    assert ("CanXlFrame", frames.SDT_ETHERNET, "Bpdu") in emitted
    assert ("EthernetFrame", None, "Ipv4Datagram") in emitted


def test_only_frames_a_node_queued_are_decoded(monkeypatch):
    # every frame gets its value where it is built, so not even a node's
    # frame is parsed once the run has started; nor is a BPDU, though the
    # ring's spanning tree is live
    started = transmissions(monkeypatch)
    with calls_to(PARSERS) as calls:
        _, report = Simulation(ring()).run()
    from_nodes = [frame for sender, frame in started if not isinstance(sender, SwitchPortRef)]
    assert 0 < len(from_nodes) < len(started)
    # no decode for a switch's drops either
    assert report["switches"]["sw3"]["counters"]["stp_blocked"] > 0
    assert calls == []


def test_no_switch_parses_an_ipv4_header(monkeypatch):
    started = transmissions(monkeypatch)
    with calls_to(PARSERS) as calls:
        Simulation(ring()).run()
    # sw1 compacted Ethernet/IPv4 for its ioc-preferred ports ...
    assert any(isinstance(sender, SwitchPortRef) and sender.switch.name == "sw1"
               and getattr(frame, "sdt", None) == frames.SDT_IPV4
               for sender, frame in started)
    # ... from the ingress value, and neither it nor anything else parsed
    # the header (Ipv4Datagram.from_bytes is among the patched parsers)
    assert calls == []


def workload(name: str) -> Topology:
    """The benchmark's synthetic workload `name` at seed 1."""
    return build_topology(workloads.GENERATORS[name](1))


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


# The runs besides the bundled scenarios and the ring, and then every run.
SYNTHETIC = {"every_send_site": every_send_site,
             **{name: lambda name=name: workload(name) for name in workloads.GENERATORS}}
RUNS = {**{path.stem: lambda path=path: load_config(str(path)) for path in all_scenarios()},
        "ring": ring, **SYNTHETIC}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_every_transmission_of_a_workload_carries_its_decode(monkeypatch, name):
    # the bundled scenarios and the ring take the same check above
    started, report = receivers_get_the_decode(monkeypatch, SYNTHETIC[name]())
    assert len(started) >= sum(flow["sent"] for flow in report["flows"].values()) > 0


def test_every_send_site_takes_every_node_send_site(monkeypatch):
    started = transmissions(monkeypatch)
    _, report = Simulation(every_send_site()).run()
    for name, flow in report["flows"].items():
        assert flow["delivered_unique"] == flow["sent"] == 4, name
    sites = {(sender.name, type(frame).__name__, getattr(frame, "sdt", None),
              type(frame.decoded.net).__name__, getattr(frame.decoded.net, "op", None))
             for sender, frame in started}
    eoc, ipv4 = frames.SDT_ETHERNET, frames.SDT_IPV4
    assert sites >= {
        ("i1", "CanXlFrame", eoc, "ArpMessage", ArpOp.GRATUITOUS_REPLY),
        ("i1", "CanXlFrame", eoc, "ArpMessage", ArpOp.REQUEST),
        ("i2", "CanXlFrame", eoc, "ArpMessage", ArpOp.REPLY),
        ("i1", "CanXlFrame", ipv4, "Ipv4Datagram", None),
        ("i1", "CanXlFrame", eoc, "Ipv4Datagram", None),  # the refresh
        ("e1", "CanXlFrame", eoc, "NoneType", None),
        ("c1", "ClassicCanFrame", None, "NoneType", None),
        ("h1", "EthernetFrame", None, "ArpMessage", ArpOp.REQUEST),
        ("h2", "EthernetFrame", None, "ArpMessage", ArpOp.REPLY),
        ("h1", "EthernetFrame", None, "Ipv4Datagram", None),
        ("h2", "EthernetFrame", None, "NoneType", None),
    }
    # a raw payload travels padded, as the receiver reads it
    raw = [frame.decoded.payload for sender, frame in started
           if sender.name in ("e1", "h2") and frame.decoded.net is None]
    assert raw and all(len(payload) == frames.ETH_MIN_PAYLOAD for payload in raw)


@pytest.mark.parametrize("build", RUNS.values(), ids=list(RUNS))
def test_no_frame_or_ipv4_header_is_serialized_during_a_run(build):
    topo = build()
    with calls_to(SERIALIZERS) as calls:
        Simulation(topo).run()
    assert calls == []


@pytest.mark.parametrize("build", RUNS.values(), ids=list(RUNS))
def test_a_run_leaves_no_cyclic_garbage(build):
    # Reference counting frees all a run makes: no frame refers to itself
    # through its decoded value, say, which would keep every frame alive
    # until a collection.
    sim = Simulation(build())
    gc.collect()
    gc.disable()
    try:
        sim.run()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


# -- generated frames -------------------------------------------------------------

KNOWN = [(mac(1), ip(1)), (mac(2), ip(2))]  # EFDB entries with both addresses
ips = st.sampled_from([ip(1), ip(2), ip(3)])  # ip(3) only has no MAC
macs = st.binary(min_size=6, max_size=6).map(MacAddress)
octets = st.integers(0, 0xFF)
priorities = st.integers(0, 0x7FF)


def ipv4_frame(dgram: Ipv4Datagram, checksum_flip: int = 0,
               da: MacAddress = mac(2), sa: MacAddress = mac(1)) -> EthernetFrame:
    """`dgram` in an Ethernet frame built from its bytes; a non-zero
    `checksum_flip` spoils its header checksum, so that `frames.decode`
    gives it no datagram."""
    raw = bytearray(dgram.to_bytes())
    raw[10] ^= checksum_flip
    return EthernetFrame(da, sa, frames.ETHERTYPE_IPV4, bytes(raw))


@st.composite
def datagrams(draw, plain: bool = False) -> Ipv4Datagram:
    """Any header fields and, unless `plain`, now and then IP options or
    fragment fields."""
    options = b"" if plain else bytes(4 * draw(st.sampled_from([0, 0, 0, 1, 10])))
    flags = [0, frames.IPV4_DF, 0b100] + ([] if plain else [frames.IPV4_MF])
    return Ipv4Datagram(
        draw(ips), draw(ips), draw(st.binary(max_size=frames.ETH_MTU - 20 - len(options))),
        dscp_ecn=draw(octets), identification=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.sampled_from(flags)),
        fragment_offset=0 if plain else draw(st.sampled_from([0, 0, 0, 1, 0x1FFF])),
        ttl=draw(octets), protocol=draw(octets), options=options)


@st.composite
def ipv4_ethernet(draw) -> EthernetFrame:
    """Ethernet/IPv4 built from bytes, now and then with a wrong header
    checksum."""
    return ipv4_frame(draw(datagrams()), draw(st.sampled_from([0, 0, 0, 0xFF])),
                      draw(macs), draw(macs))


@st.composite
def arp_ethernet(draw) -> EthernetFrame:
    op = draw(st.sampled_from([ArpOp.REQUEST, ArpOp.REPLY, ArpOp.GRATUITOUS_REPLY]))
    spa = draw(ips)
    tpa = spa if op == ArpOp.GRATUITOUS_REPLY else draw(ips)
    assume(op != ArpOp.REPLY or spa != tpa)
    tha = ZERO_MAC if op == ArpOp.REQUEST else draw(macs)
    return frames.arp_serialize(ArpMessage(op, draw(macs), spa, tha, tpa))


bpdu_ethernet = st.builds(frames.bpdu_serialize, st.builds(
    frames.Bpdu, st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
    macs)
raw_ethernet = st.builds(EthernetFrame, macs, macs, st.sampled_from(
    [frames.ETHERTYPE_RAW_DATA, frames.ETHERTYPE_BPDU, 0x1234]),
    st.integers(0, frames.ETH_MTU).map(bytes))
rebuilt = st.builds(frames.ioc_to_ethernet, datagrams(), macs, macs)
ethernet = st.one_of(ipv4_ethernet(), arp_ethernet(), bpdu_ethernet, raw_ethernet, rebuilt)
encoded = st.one_of(st.builds(frames.eoc_encapsulate, ethernet, priorities),
                    st.builds(frames.ioc_encode, datagrams(plain=True), priorities))
other_canxl = st.builds(  # some of them compact frames with a bad header
    frames.CanXlFrame, priorities, st.sampled_from(list(frames.SDT_NAMES)), st.just(0),
    st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=64)).filter(
        lambda frame: frame.sdt != frames.SDT_ETHERNET)
classic = st.builds(frames.ClassicCanFrame, priorities, st.binary(max_size=8))


def from_bytes(frame):
    """`frame` as its kind's `from_bytes` builds it."""
    return type(frame).from_bytes(frame.to_bytes())


PLAIN = Ipv4Datagram(ip(1), ip(2), bytes(100), flags=frames.IPV4_DF)


@example(frame=frames.ioc_encode(Ipv4Datagram(ip(1), ip(2), bytes(100), identification=7), 1))
@example(frame=frames.ioc_to_ethernet(Ipv4Datagram(ip(1), ip(2), bytes(8), options=bytes(4)),
                                      mac(1), mac(2)))
@given(frame=st.one_of(ethernet, encoded, ethernet.map(from_bytes), encoded.map(from_bytes),
                       other_canxl, classic))
def test_encoded_value_is_the_decode_of_the_encoded_frame(frame):
    # Whichever builder made a frame, it carries what `frames.decode`
    # parses from its bytes: read first, while those bytes do not exist.
    assert frame.decoded == frames.decode(frame)


compact = st.builds(compact_dgram, ips, ips, st.integers(0, frames.ETH_MTU - 20).map(bytes),
                    dscp_ecn=octets, ttl=octets, protocol=octets)
ingress = st.one_of(ipv4_ethernet(), arp_ethernet(), raw_ethernet, compact)


@example(normalized=ipv4_frame(PLAIN), kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(PLAIN, checksum_flip=1), kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(Ipv4Datagram(ip(1), ip(2), bytes(100), identification=7)),
         kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)  # compacted: identification 0, DF set
@example(normalized=ipv4_frame(Ipv4Datagram(ip(1), ip(2), bytes(100), options=bytes(4))),
         kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@example(normalized=ipv4_frame(Ipv4Datagram(ip(1), ip(2), bytes(100), flags=frames.IPV4_MF)),
         kind=CAN_XL, mode=EGRESS_IOC_PREFERRED)
@given(normalized=ingress, kind=st.sampled_from(PORT_KINDS),
       mode=st.sampled_from(EGRESS_MODES))
def test_a_port_sends_what_the_codec_makes_of_its_ingress(normalized, kind, mode):
    sw = CSwitch("sw", 1, [PortConfig(0, kind, mode, 0x123)])
    for m, a in KNOWN:
        sw.efdb.learn_joint(m, a, 0, 0)
    frame = sw._encode_for_port(frames.decode(normalized), sw.ports[0], 0)
    if isinstance(normalized, EthernetFrame):
        expected = normalized
        if kind == CAN_XL:
            expected = frames.eoc_encapsulate(normalized, 0x123)
            if mode == EGRESS_IOC_PREFERRED and normalized.ethertype == frames.ETHERTYPE_IPV4:
                try:  # compacted exactly where the Ethernet payload parses as plain IPv4
                    expected = frames.ioc_encode(frames.ethernet_to_ioc(normalized), 0x123)
                except frames.NotPlainIpv4:
                    pass
        assert frame == expected
    elif frame is None:  # a compact datagram with an address the EFDB lacks
        assert ip(3) in (normalized.src_ip, normalized.dst_ip)
        assert kind == ETH or mode == EGRESS_EOC
        assert sw.counters["reconstruction_failure"] == 1
    elif kind == CAN_XL and mode == EGRESS_IOC_PREFERRED:
        assert frame == frames.ioc_encode(normalized, 0x123)
    else:  # rebuilt with the MACs the EFDB holds
        macs_of = dict((a, m) for m, a in KNOWN)
        eth = frames.ioc_to_ethernet(normalized, macs_of[normalized.dst_ip],
                                     macs_of[normalized.src_ip])
        assert frame == (eth if kind == ETH else frames.eoc_encapsulate(eth, 0x123))
