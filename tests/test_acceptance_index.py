"""Bus delivery through `engine.AcceptanceIndex`: only the receivers that
can act on a transmission are called, and the trace and report are those
of calling every receiver in station order."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from canxlnet import frames, nodes
from canxlnet.engine import Flow, RunOptions, Simulation, SwitchPortRef, Topology
from canxlnet.frames import Ipv4Address, MacAddress
from canxlnet.nodes import ClassicCanNode, EocNode, EthernetHost, IocNode
from canxlnet.switch import CAN_XL, EGRESS_EOC, EGRESS_IOC_PREFERRED, ETH, CSwitch, PortConfig
from canxlnet.timing import CanXlTimingParams, EthernetTimingParams, to_ns

BUS = CanXlTimingParams(1e6, 16e6)
LINK = EthernetTimingParams(100e6)


def reference_deliver(self, sender, frame, rx, summary):
    """Every other station of the medium, in order: its `deliver` record,
    then its `on_receive`."""
    for station in sender.medium.stations:
        if station is not sender:
            self.trace("deliver", station.name, frame=json.loads(summary))
            station.owner.on_receive(self, frame, rx)


def run_both(build, monkeypatch, queued=()):
    """(trace, report) of a topology run as it is and with every receiver
    called; each (node name, frame) of `queued` is queued at t = 0."""
    def run():
        sim = Simulation(build())
        for name, frame in queued:
            station = sim.topo.nodes[name].station
            sim.schedule(0, station.medium.enqueue, sim, station, frame, frames.decode(frame))
        return sim.run()

    result = run()
    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "_deliver", reference_deliver)
        reference = run()
    return result, reference


def record_calls(monkeypatch, wanted) -> list[str]:
    """The names of the owners whose `on_receive` runs with a frame for
    which `wanted(frame)` holds, in call order."""
    calls = []
    for cls in (nodes.Node, nodes.EocNode, nodes.ClassicCanNode, SwitchPortRef):
        original = cls.__dict__["on_receive"]

        def recording(owner, sim, frame, rx, original=original):
            if wanted(frame):
                calls.append(owner.name if hasattr(owner, "name") else
                             f"{owner.switch.name}.p{owner.port}")
            original(owner, sim, frame, rx)

        monkeypatch.setattr(cls, "on_receive", recording)
    return calls


def events(trace: str, kind: str) -> list[dict]:
    return [r for r in map(json.loads, trace.splitlines()) if r["event"] == kind]


# -- equivalence with calling every receiver -----------------------------------

# Octets 0..3 of most MACs are shared, so the AF filter passes frames
# meant for another node; one prefix has the I/G bit set.  UNKNOWN_MACS
# are no station's: the second one's octets 0..3 are no node's AF image.
PREFIXES = ("02:00:00:00", "02:00:00:00", "06:00:00:01", "03:00:00:00")
GROUP_MACS = ("ff:ff:ff:ff:ff:ff", "03:00:00:00:00:01")
UNKNOWN_MACS = ("02:00:00:00:09:99", "0a:00:00:09:09:99")
STATION_KINDS = st.sampled_from(("eoc", "ioc", "ioc", "classic", "port"))
CAN_IDS = (0x101, 0x102, 0x103)


@st.composite
def mixed_bus(draw):
    """A function building one bus of tunnel, streamlined and classic-CAN
    nodes and C-switch ports (each switch also on a link to an Ethernet
    host), with a handful of flows to unicast, group and unknown
    destinations."""
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

    senders = [s for s in stations if s[1] != "port"]
    flows = []
    for f in range(draw(st.integers(0, 5)) if senders else 0):
        name, kind, *_ = draw(st.sampled_from(senders))
        times = [to_ns(t * 1e-6) for t in
                 sorted(draw(st.lists(st.integers(0, 3000), min_size=1, max_size=3)))]
        if kind == "classic":
            flows.append(Flow(f"f{f}", name, "classic-can", 8, times,
                              can_id=draw(st.sampled_from(CAN_IDS))))
        elif draw(st.booleans()):
            dst = draw(st.sampled_from(ips + ["10.0.0.99"]))
            flows.append(Flow(f"f{f}", name, "ipv4", 44, times, dst_ip=Ipv4Address.parse(dst)))
        else:
            dst = draw(st.sampled_from(macs + list(GROUP_MACS) + list(UNKNOWN_MACS)))
            flows.append(Flow(f"f{f}", name, "raw-ethernet", 46, times,
                              dst_mac=MacAddress.parse(dst)))

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
                                  can_priority=prio))
            topo.attach_node(name, "bus")
        topo.flows.extend(flows)
        return topo

    return build


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(build=mixed_bus())
def test_trace_and_report_equal_those_of_calling_every_receiver(build, monkeypatch):
    (trace, report), (ref_trace, ref_report) = run_both(build, monkeypatch)
    assert trace == ref_trace
    assert report == ref_report


# -- targeted cases ------------------------------------------------------------------


def mac(n: int) -> MacAddress:
    return MacAddress(b"\x02\x00\x00\x00\x00" + bytes([n]))


def ip(n: int) -> Ipv4Address:
    return Ipv4Address.parse(f"10.0.0.{n}")


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
    calls = record_calls(monkeypatch, lambda frame: True)
    flow = Flow("f", "n1", "raw-ethernet", 46, [to_ns(0.001)], dst_mac=mac(2))
    _, report = Simulation(eoc_bus(3, [flow])).run()
    assert calls == ["n2"]
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
    rx = frames.decode(frame)
    assert rx.net is None
    station = topo.nodes["n1"].station
    sim.schedule(0, station.medium.enqueue, sim, station, frame, rx)
    calls = record_calls(monkeypatch, lambda sent: sent is frame)
    trace, report = sim.run()
    assert calls == ["sw.p0"]
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
    calls = record_calls(monkeypatch, lambda frame: isinstance(frame, frames.ClassicCanFrame))
    trace, report = Simulation(topo).run()
    assert calls == ["c3", "sw.p0"]
    assert [e["location"] for e in events(trace, "deliver")
            if e["frame"]["kind"] == "classic"] == ["n2", "c3", "n4", "sw.p0"]
    assert report["flows"]["f"]["delivered"] == 1


def test_rejecting_run_writes_each_deliver_line_once_in_station_order(monkeypatch):
    flow = Flow("f", "n3", "raw-ethernet", 46, [to_ns(0.001)], dst_mac=mac(6))
    _, (ref_trace, ref_report) = run_both(lambda: eoc_bus(8, [flow]), monkeypatch)
    calls = record_calls(monkeypatch, lambda frame: True)
    sim = Simulation(eoc_bus(8, [flow]))
    trace, report = sim.run()
    assert calls == ["n6"]
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
    calls = record_calls(monkeypatch, lambda frame: getattr(frame, "af", None) == af)
    trace, report = Simulation(eoc_bus_with_a_port([flow])).run()
    assert calls == ["sw.p0"]
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
    calls = record_calls(monkeypatch, lambda sent: sent is frame)
    (trace, report), reference = run_both(eoc_bus_with_a_port, monkeypatch, [("n1", frame)])
    assert (trace, report) == reference
    assert calls == ["n2", "n3", "sw.p0"] * 2  # the run, then the reference run
    assert [report["nodes"][n]["delivered"] for n in ("n2", "n3")] == [1, 1]


@given(af=st.integers(0, 2**32 - 1), image=st.integers(0, 2**32 - 1))
def test_the_filter_passes_a_group_af_everywhere_and_others_at_their_image(af, image):
    # AcceptanceIndex keys tunnel frames on these two cases.
    assert frames.af_filter_match(af, image) == bool(af & frames.AF_GROUP or af == image)
