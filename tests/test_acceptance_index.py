"""Bus delivery through `engine.AcceptanceIndex`: only the receivers that
can act on a transmission are called, and the trace, the report and the
nodes' ARP tables are those of calling every receiver in station order,
on generated buses and on every run of `test_decode_once.RUNS`."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from canxlnet import frames, nodes
from canxlnet.engine import AcceptanceIndex, Flow, RunOptions, Simulation, Topology
from canxlnet.frames import ZERO_MAC, ArpMessage, ArpOp, Ipv4Address, MacAddress
from canxlnet.nodes import ClassicCanNode, EocNode, EthernetHost, IocNode
from canxlnet.switch import CAN_XL, EGRESS_EOC, EGRESS_IOC_PREFERRED, ETH, CSwitch, PortConfig
from canxlnet.timing import CanXlTimingParams, EthernetTimingParams, to_ns

from conftest import events, ip, mac, receptions
from test_decode_once import RUNS

BUS = CanXlTimingParams(1e6, 16e6)
LINK = EthernetTimingParams(100e6)


def run_queued(build, queued=()) -> tuple[str, dict, dict]:
    """(trace, report, the ARP table of each node that has one) of a run of
    the topology `build()` gives, with the frame of each (node name, frame,
    t_ns) of `queued` queued at the node at t_ns, in list order."""
    sim = Simulation(build())
    for name, frame, t_ns in queued:
        station = sim.topo.nodes[name]
        sim.schedule(t_ns, station.medium.enqueue, sim, station, frame)
    trace, report = sim.run()
    return trace, report, {name: node.arp_table for name, node in sim.topo.nodes.items()
                           if hasattr(node, "arp_table")}


def every_receiver(monkeypatch) -> None:
    """Make every bus call every receiver of each transmission in station
    order, the reference: `AcceptanceIndex.callees` returns None, which
    `Simulation._deliver` reads as every station, as it does on a link."""
    monkeypatch.setattr(AcceptanceIndex, "callees", lambda *_: None)


def run_both(build, monkeypatch, queued=()):
    """`run_queued(build, queued)` as it is and with every receiver
    called."""
    result = run_queued(build, queued)
    with monkeypatch.context() as patch:
        every_receiver(patch)
        reference = run_queued(build, queued)
    return result, reference


def names(calls: list, wanted) -> list[str]:
    """The names of the stations of `calls`, as `receptions` records them,
    that took a frame for which `wanted(frame)` holds, in call order."""
    return [station.name for station, frame, _ in calls if wanted(frame)]


# -- equivalence with calling every receiver -----------------------------------

# Octets 0..3 of most MACs are shared, so the AF filter passes frames
# meant for another node; one prefix has the I/G bit set.  UNKNOWN_MACS
# are no station's: the second one's octets 0..3 are no node's AF image.
PREFIXES = ("02:00:00:00", "02:00:00:00", "06:00:00:01", "03:00:00:00")
GROUP_MACS = ("ff:ff:ff:ff:ff:ff", "03:00:00:00:00:01")
UNKNOWN_MACS = ("02:00:00:00:09:99", "0a:00:00:09:09:99")
UNKNOWN_IP = "10.0.0.99"  # no station's
STATION_KINDS = st.sampled_from(("eoc", "ioc", "ioc", "classic", "port"))
CAN_IDS = (0x101, 0x102, 0x103)


# The AF false-positive cases a mixed bus must be able to draw: a tunnel
# frame whose sender has the frame's AF image, a unicast DA whose image
# several nodes share, a DA no node has under an image some node has, and
# a group AF over a unicast DA (only a frame built by hand has that).
AF_CASES = ("sender_shares_image", "shared_image", "unknown_da", "group_af_unicast_da")

# What the broadcast ARP frames of a mixed bus meet at the nodes that
# take them: see `arp_cases`.
ARP_CASES = ("request_for_this_node", "announcement_of_this_node", "request_for_no_station",
             "gratuitous_reply", "sender_ip_unknown", "held_statically", "learned_earlier",
             "rebound")


@st.composite
def mixed_bus(draw):
    """One bus of tunnel, streamlined and classic-CAN nodes and C-switch
    ports (each switch also on a link to an Ethernet host), with a handful
    of flows to unicast, group and unknown destinations.  Its tunnel and
    streamlined nodes may hold static ARP entries.  Now and then a
    hand-built tunnel frame with a group AF over a unicast DA is queued at
    t = 0, and broadcast ARP requests and gratuitous replies are queued at
    drawn times: their sender IP and target IP are a station's or no
    station's, whatever node sends them.  A namespace of `build`, a
    function building the topology, `queued`, the (node name, frame, t_ns)
    triples to queue, and `cases`, the `AF_CASES` drawn."""
    kinds = draw(st.lists(STATION_KINDS, min_size=2, max_size=7))
    priorities = draw(st.permutations(range(0x100, 0x100 + len(kinds))))
    stations = []  # (name, kind, MAC, IP, priority, classic rx_ids or port egress mode)
    for n, kind in enumerate(kinds):
        mac = f"{draw(st.sampled_from(PREFIXES))}:00:{n:02x}"
        # 11.x addresses give compact frames an AF with the I/G bit set
        addr = f"{draw(st.sampled_from((10, 10, 11)))}.0.0.{n + 1}"
        extra = None
        if kind == "classic":
            extra = draw(st.lists(st.sampled_from(CAN_IDS), max_size=2))
        elif kind == "port":
            extra = draw(st.sampled_from((EGRESS_EOC, EGRESS_IOC_PREFERRED)))
            mac, addr = f"02:00:00:00:01:{n:02x}", f"10.0.1.{n + 1}"  # its host's
        stations.append((f"{kind[0]}{n}", kind, mac, addr, priorities[n], extra))
    macs = [s[2] for s in stations if s[1] != "classic"]
    ips = [s[3] for s in stations if s[1] != "classic"]
    owners = dict(zip(ips + [UNKNOWN_IP], macs + [UNKNOWN_MACS[0]]))  # IP -> MAC
    static = {s[0]: {Ipv4Address.parse(a): MacAddress.parse(owners[a]) for a in
                     draw(st.lists(st.sampled_from(sorted(owners)), max_size=2, unique=True))}
              for s in stations if s[1] in ("eoc", "ioc")}
    images = [frames.make_af_from_da(MacAddress.parse(s[2]))
              for s in stations if s[1] in ("eoc", "ioc")]

    cases = set()
    senders = [s for s in stations if s[1] != "port"]
    flows = []
    for f in range(draw(st.integers(0, 5)) if senders else 0):
        name, kind, mac, *_ = draw(st.sampled_from(senders))
        times = [to_ns(t * 1e-6) for t in
                 sorted(draw(st.lists(st.integers(0, 3000), min_size=1, max_size=3)))]
        if kind == "classic":
            flows.append(Flow(f"f{f}", name, "classic-can", 8, times,
                              can_id=draw(st.sampled_from(CAN_IDS))))
        elif draw(st.booleans()):
            dst = draw(st.sampled_from(ips + [UNKNOWN_IP]))
            flows.append(Flow(f"f{f}", name, "ipv4", 44, times, dst_ip=Ipv4Address.parse(dst)))
        else:
            dst = MacAddress.parse(draw(st.sampled_from(
                macs + list(GROUP_MACS) + list(UNKNOWN_MACS))))
            flows.append(Flow(f"f{f}", name, "raw-ethernet", 46, times, dst_mac=dst))
            image = frames.make_af_from_da(dst)
            if not dst.is_group() and image in images:
                if image == frames.make_af_from_da(MacAddress.parse(mac)) and \
                        str(dst) != mac:
                    cases.add("sender_shares_image")
                if images.count(image) > 1 and str(dst) in macs:
                    cases.add("shared_image")
                if str(dst) in UNKNOWN_MACS:
                    cases.add("unknown_da")

    queued = []
    tunnel_senders = [s for s in stations if s[1] in ("eoc", "ioc")]
    for k in range(draw(st.integers(0, 2)) if tunnel_senders else 0):
        name, _, mac, _, prio, _ = draw(st.sampled_from(tunnel_senders))
        dst = MacAddress.parse(draw(st.sampled_from(
            [m for m in macs if not m.startswith("03")] + list(UNKNOWN_MACS))))
        eth = frames.EthernetFrame(dst, MacAddress.parse(mac), frames.ETHERTYPE_RAW_DATA,
                                   bytes([k]) * 46)
        queued.append((name, frames.CanXlFrame(
            prio, frames.SDT_ETHERNET, 0, frames.make_af_from_da(dst) | frames.AF_GROUP,
            eth.to_bytes()), 0))
        cases.add("group_af_unicast_da")
    for _ in range(draw(st.integers(0, 3)) if tunnel_senders else 0):
        name, _, mac, _, prio, _ = draw(st.sampled_from(tunnel_senders))
        spa = draw(st.sampled_from(sorted(owners)))
        if draw(st.booleans()):  # an announcement (tpa == spa) included
            tpa = draw(st.sampled_from(sorted(owners)))
            msg = ArpMessage(ArpOp.REQUEST, MacAddress.parse(mac), Ipv4Address.parse(spa),
                             ZERO_MAC, Ipv4Address.parse(tpa))
        else:
            spa = Ipv4Address.parse(spa)
            msg = ArpMessage(ArpOp.GRATUITOUS_REPLY, MacAddress.parse(mac), spa, ZERO_MAC, spa)
        queued.append((name, frames.eoc_encapsulate(frames.arp_serialize(msg), prio),
                       to_ns(draw(st.integers(0, 3000)) * 1e-6)))

    def build() -> Topology:
        topo = Topology(RunOptions(t_end=0.02))
        topo.add_bus("bus", BUS)
        for n, (name, kind, mac, addr, prio, extra) in enumerate(stations):
            if kind == "port":
                topo.add_switch(CSwitch(name, n + 1, [PortConfig(0, CAN_XL, extra, prio),
                                                      PortConfig(1, ETH)]))
                topo.add_node(EthernetHost(f"h{n}", MacAddress.parse(mac),
                                           Ipv4Address.parse(addr)))
                topo.add_link(f"l{n}", LINK)
                topo.attach_switch_port(name, 0, "bus")
                topo.attach_switch_port(name, 1, f"l{n}")
                topo.attach_node(f"h{n}", f"l{n}")
                continue
            if kind == "classic":
                topo.add_node(ClassicCanNode(name, rx_ids=extra))
            else:
                cls = EocNode if kind == "eoc" else IocNode
                topo.add_node(cls(name, MacAddress.parse(mac), Ipv4Address.parse(addr),
                                  static_arp=static[name], can_priority=prio))
            topo.attach_node(name, "bus")
        topo.flows.extend(flows)
        return topo

    return SimpleNamespace(build=build, queued=queued, cases=frozenset(cases))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bus=mixed_bus())
def test_trace_and_report_equal_those_of_calling_every_receiver(bus, monkeypatch):
    (trace, report, tables), (ref_trace, ref_report, ref_tables) = \
        run_both(bus.build, monkeypatch, bus.queued)
    assert trace == ref_trace
    assert report == ref_report
    assert tables == ref_tables


@pytest.mark.parametrize("build", RUNS.values(), ids=list(RUNS))
def test_every_run_equals_calling_every_receiver(build, monkeypatch):
    (trace, report, tables), (ref_trace, ref_report, ref_tables) = run_both(build, monkeypatch)
    assert trace == ref_trace
    assert report == ref_report
    assert tables == ref_tables


# `find` settings for the cases a mixed bus must be able to draw: the first
# bus drawn that has one is enough, so none is shrunk.
DRAWS = settings(max_examples=2000, phases=[Phase.generate])  # `find`'s default count


@pytest.mark.parametrize("case", AF_CASES)
def test_mixed_bus_draws_every_af_counting_case(case):
    assert case in find(mixed_bus(), lambda bus: case in bus.cases, settings=DRAWS).cases


def arp_cases(bus, monkeypatch) -> set[str]:
    """What the broadcast ARP frames meet at the nodes that take them in a
    run of `bus` with every receiver called: a request for the node's IP
    or for no station's, an announcement of the node's IP, a gratuitous
    reply, a sender IP no station has, and a node that holds the sender IP
    statically, or learned it earlier in the run, and then bound to
    another MAC than the frame's."""
    seen = set()
    handle_arp = nodes.Node._handle_arp

    def classify(node, sim, msg):
        if msg.op != ArpOp.REPLY:  # a node's reply is unicast
            if msg.op == ArpOp.GRATUITOUS_REPLY:
                seen.add("gratuitous_reply")
            elif msg.spa == msg.tpa == node.ip:
                seen.add("announcement_of_this_node")
            elif msg.tpa == node.ip:
                seen.add("request_for_this_node")
            elif str(msg.tpa) == UNKNOWN_IP:
                seen.add("request_for_no_station")
            if str(msg.spa) == UNKNOWN_IP:
                seen.add("sender_ip_unknown")
            if msg.spa in node.static_ips:
                seen.add("held_statically")
            elif msg.spa in node.arp_table:
                seen.add("learned_earlier")
                if node.arp_table[msg.spa] != msg.sha:
                    seen.add("rebound")
        handle_arp(node, sim, msg)

    with monkeypatch.context() as patch:
        patch.setattr(nodes.Node, "_handle_arp", classify)
        every_receiver(patch)
        run_queued(bus.build, bus.queued)
    return seen


@pytest.mark.parametrize("case", ARP_CASES)
def test_mixed_bus_draws_every_broadcast_arp_case(case, monkeypatch):
    bus = find(mixed_bus(), lambda bus: case in arp_cases(bus, monkeypatch), settings=DRAWS)
    assert case in arp_cases(bus, monkeypatch)


# -- targeted cases ------------------------------------------------------------------


def eoc_bus(count: int, flows=()) -> Topology:
    """`count` tunnel nodes n1.. on one bus, all with AF image 0x02000000."""
    topo = Topology(RunOptions(t_end=0.02))
    topo.add_bus("bus", BUS)
    for n in range(1, count + 1):
        topo.add_node(EocNode(f"n{n}", mac(n), ip(n), can_priority=0x100 + n))
        topo.attach_node(f"n{n}", "bus")
    topo.flows.extend(flows)
    return topo


def test_sender_sharing_the_af_image_is_no_false_positive(monkeypatch):
    calls = receptions(monkeypatch)
    flow = Flow("f", "n1", "raw-ethernet", 46, [to_ns(0.001)], dst_mac=mac(2))
    _, report = Simulation(eoc_bus(3, [flow])).run()
    assert names(calls, lambda frame: True) == ["n2"]
    assert report["flows"]["f"]["delivered"] == 1
    counts = {name: node["af_false_positive"] for name, node in report["nodes"].items()}
    assert counts == {"n1": 0, "n2": 0, "n3": 1}


def test_compact_frame_with_a_bad_header_reaches_only_switch_ports(monkeypatch):
    topo = Topology(RunOptions(t_end=0.02))
    topo.add_bus("bus", BUS)
    topo.add_node(EocNode("n1", mac(1), ip(1), can_priority=0x100))
    topo.add_node(IocNode("n2", mac(2), ip(2), can_priority=0x101))
    topo.add_switch(CSwitch("sw", 1, [PortConfig(0, CAN_XL)]))
    topo.attach_node("n1", "bus")
    topo.attach_node("n2", "bus")
    topo.attach_switch_port("sw", 0, "bus")
    sim = Simulation(topo)
    # A compact frame addressed to n2 whose header is not version 4.
    frame = frames.CanXlFrame(0x100, frames.SDT_IPV4, 0, ip(2).to_u32(), b"\x60" + bytes(51))
    assert frames.decode(frame).net is None
    station = topo.nodes["n1"]
    sim.schedule(0, station.medium.enqueue, sim, station, frame)
    calls = receptions(monkeypatch)
    trace, report = sim.run()
    assert names(calls, lambda sent: sent is frame) == ["sw.p0"]
    assert [e["location"] for e in events(trace, "deliver")
            if e["frame"].get("sdt") == "ipv4"] == ["n2", "sw.p0"]
    assert report["nodes"]["n2"]["delivered"] == 0


def test_classic_frame_calls_only_classic_nodes_and_ports(monkeypatch):
    topo = Topology(RunOptions(t_end=0.02))
    topo.add_bus("bus", BUS)
    topo.add_node(ClassicCanNode("c1"))
    topo.add_node(EocNode("n2", mac(2), ip(2), can_priority=0x200))
    topo.add_node(ClassicCanNode("c3", rx_ids=[0x123]))
    topo.add_node(IocNode("n4", mac(4), ip(4), can_priority=0x201))
    topo.add_switch(CSwitch("sw", 1, [PortConfig(0, CAN_XL)]))
    for name in ("c1", "n2", "c3", "n4"):
        topo.attach_node(name, "bus")
    topo.attach_switch_port("sw", 0, "bus")
    topo.flows.append(Flow("f", "c1", "classic-can", 8, [to_ns(0.001)], can_id=0x123))
    calls = receptions(monkeypatch)
    trace, report = Simulation(topo).run()
    classic = names(calls, lambda frame: isinstance(frame, frames.ClassicCanFrame))
    assert classic == ["c3", "sw.p0"]
    assert [e["location"] for e in events(trace, "deliver")
            if e["frame"]["kind"] == "classic"] == ["n2", "c3", "n4", "sw.p0"]
    assert report["flows"]["f"]["delivered"] == 1


def test_rejecting_run_writes_each_deliver_line_once_in_station_order(monkeypatch):
    flow = Flow("f", "n3", "raw-ethernet", 46, [to_ns(0.001)], dst_mac=mac(6))
    _, (ref_trace, ref_report, _) = run_both(lambda: eoc_bus(8, [flow]), monkeypatch)
    calls = receptions(monkeypatch)
    sim = Simulation(eoc_bus(8, [flow]))
    trace, report = sim.run()
    assert names(calls, lambda frame: True) == ["n6"]
    assert (trace, report) == (ref_trace, ref_report)
    assert [e["location"] for e in events(trace, "deliver")] == \
        ["n1", "n2", "n4", "n5", "n6", "n7", "n8"]
    assert trace.count("\n") == ref_trace.count("\n") == len(trace.splitlines())
    # n1..n6 (n3 sends) went in as one entry, n7..n8 as another
    assert len(sim.trace_lines) == trace.count("\n") - 5
    # n6's reaction comes right after its own line, before n7's
    records = [json.loads(line) for line in trace.splitlines()]
    at = next(i for i, r in enumerate(records) if r.get("location") == "n6")
    assert [r["event"] for r in records[at + 1:at + 3]] == ["app_deliver", "deliver"]
    assert records[at + 2]["location"] == "n7"
    counts = {name: node["af_false_positive"] for name, node in report["nodes"].items()}
    assert counts == {f"n{n}": int(n not in (3, 6)) for n in range(1, 9)}


def is_arp_broadcast(frame) -> bool:
    return isinstance(frame, frames.CanXlFrame) and \
        isinstance(frames.decode(frame).net, ArpMessage) and frame.af & frames.AF_GROUP


def test_arp_request_calls_only_its_target(monkeypatch):
    flow = Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(3))
    calls = receptions(monkeypatch)
    trace, report = Simulation(eoc_bus(5, [flow])).run()
    assert names(calls, is_arp_broadcast) == ["n3"]
    assert [e["location"] for e in events(trace, "deliver")
            if e["frame"]["af"] == "0xffffffff"] == ["n2", "n3", "n4", "n5"]
    assert report["flows"]["f"]["delivered"] == 1


def test_arp_broadcast_calls_the_nodes_that_hold_its_sender_ip(monkeypatch):
    # n2 learns n1's IP from n1's request at 1 ms, and n4 holds it
    # statically.  At 5 ms n3 claims n1's IP in a gratuitous reply: n1,
    # the IP's owner, is called, and so are n2 and n4; n2 rebinds the IP to
    # n3's MAC and n4 keeps n1's, so at 10 ms n2's datagram for n1's IP
    # goes to n3 and n4's to n1.
    def build():
        topo = eoc_bus(3, [Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2)),
                           Flow("g2", "n2", "ipv4", 44, [to_ns(0.01)], dst_ip=ip(1)),
                           Flow("g4", "n4", "ipv4", 44, [to_ns(0.01)], dst_ip=ip(1))])
        topo.add_node(EocNode("n4", mac(4), ip(4), can_priority=0x104,
                              static_arp={ip(1): mac(1)}))
        topo.attach_node("n4", "bus")
        return topo

    claim = ArpMessage(ArpOp.GRATUITOUS_REPLY, mac(3), ip(1), ZERO_MAC, ip(1))
    queued = [("n3", frames.eoc_encapsulate(frames.arp_serialize(claim), 0x103), to_ns(0.005))]
    result, reference = run_both(build, monkeypatch, queued)
    assert result == reference
    calls = receptions(monkeypatch)
    run_queued(build, queued)
    assert names(calls, lambda frame: frame is queued[0][1]) == ["n1", "n2", "n4"]
    report, tables = result[1:]
    assert [report["flows"][name]["delivered"] for name in ("f", "g2", "g4")] == [1, 0, 1]
    assert (tables["n2"][ip(1)], tables["n4"][ip(1)]) == (mac(3), mac(1))


def test_arp_announcement_gets_no_reply(monkeypatch):
    # n1 announces n2's IP (RFC 5227: a request whose spa is its tpa).  n2,
    # whose IP it is, is called and answers nothing: an announcement asks
    # nothing.
    announcement = ArpMessage(ArpOp.REQUEST, mac(1), ip(2), ZERO_MAC, ip(2))
    queued = [("n1", frames.eoc_encapsulate(frames.arp_serialize(announcement), 0x101), 0)]
    result, reference = run_both(lambda: eoc_bus(3), monkeypatch, queued)
    assert result == reference
    calls = receptions(monkeypatch)
    trace, _, _ = run_queued(lambda: eoc_bus(3), queued)
    assert names(calls, lambda frame: frame is queued[0][1]) == ["n2"]
    assert [e["source"] for e in events(trace, "tx_start")] == ["n1"]


@pytest.mark.parametrize("op", [ArpOp.REQUEST, ArpOp.GRATUITOUS_REPLY])
def test_a_node_does_not_learn_its_own_ip(op):
    # n1 announces (a request) or claims (a gratuitous reply) n2's IP: to
    # n2 that is an address conflict (RFC 5227), not a binding to learn.
    msg = ArpMessage(op, mac(1), ip(2), ZERO_MAC, ip(2))
    queued = [("n1", frames.eoc_encapsulate(frames.arp_serialize(msg), 0x101), 0)]
    _, _, tables = run_queued(lambda: eoc_bus(3), queued)
    assert ip(2) not in tables["n2"]


def eoc_bus_with_a_port(flows=()) -> Topology:
    """`eoc_bus(3)` and a C-switch port, whose link leads to host h."""
    topo = eoc_bus(3, flows)
    topo.add_switch(CSwitch("sw", 1, [PortConfig(0, CAN_XL), PortConfig(1, ETH)]))
    topo.add_node(EthernetHost("h", mac(9), ip(9)))
    topo.add_link("link", LINK)
    topo.attach_switch_port("sw", 0, "bus")
    topo.attach_switch_port("sw", 1, "link")
    topo.attach_node("h", "link")
    return topo


def test_tunnel_frame_to_an_af_no_node_has_reaches_only_the_ports(monkeypatch):
    far = MacAddress.parse(UNKNOWN_MACS[1])
    af = frames.make_af_from_da(far)
    flow = Flow("f", "n1", "raw-ethernet", 46, [to_ns(0.001)], dst_mac=far)
    calls = receptions(monkeypatch)
    trace, report = Simulation(eoc_bus_with_a_port([flow])).run()
    assert names(calls, lambda frame: getattr(frame, "af", None) == af) == ["sw.p0"]
    assert [e["location"] for e in events(trace, "deliver")
            if e["frame"].get("af") == f"0x{af:08x}"] == ["n2", "n3", "sw.p0"]
    assert all(node["af_false_positive"] == 0 for node in report["nodes"].values())


def test_group_da_behind_a_unicast_af_reaches_every_station(monkeypatch):
    # eoc_encapsulate derives the AF from the DA, so only a frame built by
    # hand has a broadcast DA under n2's and n3's AF image.
    eth = frames.EthernetFrame(frames.BROADCAST_MAC, mac(1), frames.ETHERTYPE_RAW_DATA, b"")
    frame = frames.CanXlFrame(0x100, frames.SDT_ETHERNET, 0, frames.make_af_from_da(mac(2)),
                              eth.to_bytes())
    assert not frame.af & frames.AF_GROUP
    calls = receptions(monkeypatch)
    result, reference = run_both(eoc_bus_with_a_port, monkeypatch, [("n1", frame, 0)])
    assert result == reference
    report = result[1]
    # the run, then the reference run
    assert names(calls, lambda sent: sent is frame) == ["n2", "n3", "sw.p0"] * 2
    assert [report["nodes"][n]["delivered"] for n in ("n2", "n3")] == [1, 1]


@given(af=st.integers(0, 2**32 - 1), image=st.integers(0, 2**32 - 1))
def test_the_filter_passes_a_group_af_everywhere_and_others_at_their_image(af, image):
    # AcceptanceIndex keys tunnel frames on these two cases.
    assert frames.af_filter_match(af, image) == bool(af & frames.AF_GROUP or af == image)
