import heapq
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from canxlnet import engine, frames, nodes
from canxlnet.config import load_config
from canxlnet.engine import Flow, RunOptions, Simulation, Topology
from canxlnet.frames import Ipv4Address, MacAddress
from canxlnet.media import CanBus, EthernetLink
from canxlnet.nodes import EocNode, EthernetHost, IocNode
from canxlnet.switch import (
    CAN_XL,
    CSwitch,
    EGRESS_EOC,
    EGRESS_IOC_PREFERRED,
    ETH,
    HELLO_INTERVAL_NS,
    PortConfig,
)
from canxlnet.timing import (
    CanXlTimingParams,
    EthernetTimingParams,
    canxl_duration,
    ethernet_duration,
    to_ns,
)

from conftest import all_scenarios, compact_dgram, events, ip, mac, receptions, recorder

BUS = CanXlTimingParams(500e3, 16e6)
LINK = EthernetTimingParams(10e6)


def two_node_bus(prio1=0x100, prio2=0x200, flows=(), t_end=0.05, **node_kw) -> Topology:
    topo = Topology(RunOptions(t_end=t_end))
    topo.add_node(EocNode("n1", mac(1), ip(1), can_priority=prio1, **node_kw))
    topo.add_node(EocNode("n2", mac(2), ip(2), can_priority=prio2, **node_kw))
    topo.add_bus("bus1", BUS)
    topo.attach_node("n1", "bus1")
    topo.attach_node("n2", "bus1")
    topo.flows.extend(flows)
    return topo


def five_node_bus(flow: Flow) -> Topology:
    topo = Topology(RunOptions(t_end=0.05))
    topo.add_bus("bus1", BUS)
    for n in range(1, 6):
        topo.add_node(EocNode(f"n{n}", mac(n), ip(n), can_priority=0x100 * n))
        topo.attach_node(f"n{n}", "bus1")
    topo.flows.append(flow)
    return topo


def raw_flow(name, source, dst, at, size=64, seq_times=None):
    times = seq_times or [to_ns(at)]
    return Flow(name, source, "raw-ethernet", size, times, dst_mac=dst)


def host_pair() -> Topology:
    """Hosts a and b on link1, which carries only their flows' frames."""
    topo = Topology(RunOptions(t_end=0.01, startup_gratuitous_arp=False))
    topo.add_node(EthernetHost("a", mac(1), ip(1)))
    topo.add_node(EthernetHost("b", mac(2), ip(2)))
    topo.add_link("link1", LINK)
    topo.attach_node("a", "link1")
    topo.attach_node("b", "link1")
    return topo


def records_at(trace: str, t_ns: int) -> list[dict]:
    return [r for r in map(json.loads, trace.splitlines()) if r["t_ns"] == t_ns]


# Every name the engine writes into a trace line, each with a quote, a
# backslash and a non-ASCII character.
NODE, HOST, SWITCH = 'n"\\\u00fc', 'h\\"\u00f8', 'sw"\\\u00df'
BUS_NAME, LINK_NAME = 'bus "\u00e9\\', 'link\\"\u00e5'
FLOW_IP, FLOW_UP, FLOW_DOWN = 'f"\\\u00b5', 'up"\\\u00e6', 'down"\\\u0142'


def switched_pair() -> Topology:
    """An EoC node and an Ethernet host joined by a C-switch: an ipv4 flow
    that resolves by ARP, and back-to-back raw frames each way, so that
    the bus and the link are busy when their second frame is queued."""
    topo = Topology(RunOptions(t_end=0.01))
    topo.add_node(EocNode(NODE, mac(1), ip(1), can_priority=0x100))
    topo.add_node(EthernetHost(HOST, mac(2), ip(2)))
    topo.add_switch(CSwitch(SWITCH, 1, [PortConfig(0, CAN_XL), PortConfig(1, ETH)]))
    topo.add_bus(BUS_NAME, BUS)
    topo.add_link(LINK_NAME, LINK)
    topo.attach_node(NODE, BUS_NAME)
    topo.attach_switch_port(SWITCH, 0, BUS_NAME)
    topo.attach_switch_port(SWITCH, 1, LINK_NAME)
    topo.attach_node(HOST, LINK_NAME)
    topo.flows += [
        Flow(FLOW_IP, NODE, "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2)),
        Flow(FLOW_UP, NODE, "raw-ethernet", 64, [to_ns(0.004), to_ns(0.00401)], dst_mac=mac(2)),
        Flow(FLOW_DOWN, HOST, "raw-ethernet", 64, [to_ns(0.006), to_ns(0.006001)],
             dst_mac=mac(1)),
    ]
    return topo


class TestMediumTiming:
    def test_one_hop_latency_is_exactly_the_frame_duration(self):
        flow = raw_flow("f", "n1", mac(2), 0.001)
        trace, report = Simulation(two_node_bus(flows=[flow])).run()
        # 64-byte raw payload -> 78-byte tunneled data field
        expected = to_ns(canxl_duration(78, BUS))
        assert report["flows"]["f"]["latency_ns"]["min"] == expected

    def test_second_frame_waits_for_the_first(self):
        f1 = raw_flow("f1", "n1", mac(2), 0.001)
        f2 = raw_flow("f2", "n1", mac(2), 0.001)
        trace, report = Simulation(two_node_bus(flows=[f1, f2])).run()
        starts = [e["t_ns"] for e in events(trace, "tx_start") if e.get("flow")]
        duration = to_ns(canxl_duration(78, BUS))
        assert starts[1] - starts[0] == duration

    def test_lower_priority_value_wins_arbitration(self):
        f1 = raw_flow("low_prio_value", "n1", mac(2), 0.001)
        f2 = raw_flow("high_prio_value", "n2", mac(1), 0.001)
        trace, _ = Simulation(two_node_bus(prio1=0x050, prio2=0x300, flows=[f1, f2])).run()
        flows_in_order = [e["flow"] for e in events(trace, "tx_start") if e.get("flow")]
        assert flows_in_order == ["low_prio_value", "high_prio_value"]

    def test_equal_priority_same_tick_clashes(self):
        f1 = raw_flow("f1", "n1", mac(2), 0.001)
        f2 = raw_flow("f2", "n2", mac(1), 0.001)
        trace, report = Simulation(two_node_bus(prio1=0x200, prio2=0x200,
                                                flows=[f1, f2])).run()
        assert len(events(trace, "clash")) == 1
        assert report["media"]["bus1"]["clashes"] == 1
        for name in ("f1", "f2"):
            assert report["flows"][name]["delivered"] == 0
            assert report["flows"][name]["drops"] == {"priority_clash": 1}

    def test_unattributed_clash_drops_carry_their_frame(self):
        # Equal-priority streamlined nodes both announce at t=0: their ARP
        # frames belong to no flow, so each drop is traced with its frame.
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(IocNode("n1", mac(1), ip(1), can_priority=0x100))
        topo.add_node(IocNode("n2", mac(2), ip(2), can_priority=0x100))
        topo.add_bus("bus1", BUS)
        topo.attach_node("n1", "bus1")
        topo.attach_node("n2", "bus1")
        trace, report = Simulation(topo).run()
        assert report["media"]["bus1"]["clashes"] == 1
        drops = events(trace, "drop")
        assert len(drops) == 2
        for drop in drops:
            assert drop["reason"] == "priority_clash"
            assert drop["location"] == "bus1"
            assert drop["frame"]["inner"]["ethertype"] == "0x0806"
            assert "flow" not in drop
        assert events(trace, "tx_start") == []
        for line in trace.splitlines():
            assert line == engine._encode(json.loads(line))

    def test_each_transmission_is_described_once(self, monkeypatch):
        calls = []
        summarize = engine.frame_summary

        def counting(frame, inner):
            calls.append(frame)
            return summarize(frame, inner)

        monkeypatch.setattr(engine, "frame_summary", counting)
        flow = Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2))
        trace, report = Simulation(two_node_bus(flows=[flow])).run()
        assert report["flows"]["f"]["delivered"] == 1
        starts = events(trace, "tx_start")
        assert len(starts) == 3  # ARP request, ARP reply, datagram
        assert len(calls) == len(starts)
        assert len(events(trace, "deliver")) == len(starts)

    @pytest.mark.parametrize("owner, name, carries", [
        (frames, "eoc_decapsulate", lambda f: f.get("sdt") == "ethernet"),
        (frames, "arp_parse", lambda f: f.get("inner", f).get("ethertype") == "0x0806"),
        (frames.Ipv4Datagram, "from_bytes",
         lambda f: f.get("inner", f).get("ethertype") == "0x0800"),
        (frames, "ioc_decapsulate", lambda f: f.get("sdt") == "ipv4"),
    ], ids=["eoc_decapsulate", "arp_parse", "Ipv4Datagram.from_bytes", "ioc_decapsulate"])
    def test_each_layer_is_decoded_once_per_transmission(self, monkeypatch, owner, name,
                                                         carries):
        # The three EoC MACs share octets 0-3, so the acceptance field
        # passes every tunneled frame at every node and only the full DA
        # tells them apart.  Every ARP broadcast reaches three receivers.
        # Each frame carries the decoded value its builder attached, so no
        # layer is parsed during the run.
        calls = []
        decoder = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return decoder(*args)

        monkeypatch.setattr(owner, name, counting)
        topo = two_node_bus(flows=[
            Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2)),
            Flow("g", "n4", "ipv4", 44, [to_ns(0.002)], dst_ip=ip(2)),
        ])
        topo.add_node(EocNode("n3", mac(3), ip(3), can_priority=0x300))
        topo.add_node(IocNode("n4", mac(4), ip(4), can_priority=0x400))
        topo.attach_node("n3", "bus1")
        topo.attach_node("n4", "bus1")
        trace, report = Simulation(topo).run()
        assert report["flows"]["f"]["delivered"] == 1
        # the ARP replies to n1 and n4, and f's datagram
        assert report["nodes"]["n3"]["af_false_positive"] == 3
        carrying = [e for e in events(trace, "tx_start") if carries(e["frame"])]
        assert carrying  # the g datagram travels compact
        assert calls == []

    def test_switch_port_reuses_the_decoded_tunnel_frame(self, monkeypatch):
        decodes = []
        decapsulate = frames.eoc_decapsulate

        def counting(frame):
            decodes.append(frame)
            return decapsulate(frame)

        monkeypatch.setattr(frames, "eoc_decapsulate", counting)
        trace, report = Simulation(switched_pair()).run()
        assert report["switches"][SWITCH]["counters"]["forwarded"] > 0
        tunneled = [e for e in events(trace, "tx_start") if e["frame"].get("sdt") == "ethernet"]
        from_node = [e for e in tunneled if e["source"] == NODE]
        assert from_node and len(from_node) < len(tunneled)
        # the node's frames carry the decoded value attached where they were
        # built, which serves the switch, and so do the switch's own emissions
        assert decodes == []

    def test_no_kick_is_scheduled_while_the_medium_is_busy(self, monkeypatch):
        # Every kick that runs finds its medium idle, a link the sender's
        # direction: nothing else starts a transmission.
        def seen(medium, sim, station):  # (medium kind, busy until, time the kick runs)
            # a link keeps the state of each direction on its sending station
            state = station if medium.kind == "ethernet-link" else medium
            return medium.kind, state.busy_until, sim.now

        ran = recorder(monkeypatch, [CanBus, EthernetLink], "kick", seen)
        _, report = Simulation(switched_pair()).run()
        for name in (FLOW_UP, FLOW_DOWN):
            assert report["flows"][name]["delivered"] == 2
        assert {kind for kind, _, _ in ran} == {"can-bus", "ethernet-link"}
        assert all(busy <= now for _, busy, now in ran)

    def test_bus_utilization_stops_at_t_end(self):
        # A 1400 B frame lasts ~6.4 ms at 500 kb/s / 2 Mb/s; charged in
        # full it read 3.191 for a 2 ms run.
        slow = CanXlTimingParams(500e3, 2e6)
        topo = Topology(RunOptions(t_end=0.002))
        topo.add_node(EocNode("n1", mac(1), ip(1), can_priority=0x100))
        topo.add_node(EocNode("n2", mac(2), ip(2), can_priority=0x200))
        topo.add_bus("bus1", slow)
        topo.attach_node("n1", "bus1")
        topo.attach_node("n2", "bus1")
        topo.flows.append(raw_flow("f1", "n1", mac(2), 0.0, size=1400))
        topo.flows.append(raw_flow("f2", "n2", mac(1), 0.0, size=1400))
        _, report = Simulation(topo).run()
        assert report["media"]["bus1"]["utilization"] == 1.0

    def test_link_utilization_stops_at_t_end(self):
        topo = Topology(RunOptions(t_end=0.001))
        topo.add_node(EthernetHost("a", mac(1), ip(1)))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        topo.flows.append(raw_flow("f", "a", mac(2), 0.0, size=1500))
        _, report = Simulation(topo).run()
        assert report["media"]["link1"]["utilization"] == {"a->b": 1.0, "b->a": 0.0}

    def test_station_never_hears_itself(self):
        flow = raw_flow("f", "n1", mac(2), 0.001)
        trace, report = Simulation(two_node_bus(flows=[flow])).run()
        delivers = [e for e in events(trace, "deliver") if e["location"] == "n1"]
        assert not delivers

    def test_receivers_take_a_transmission_in_station_order(self, monkeypatch):
        # n1's raw broadcast at 1 ms reaches n2..n5 and each of them takes
        # it.  Its ARP request for n3 at 2 ms reaches n2..n5 as well, but
        # only n3 can act on it, so only n3 is called; n3 queues its reply
        # while it handles the request, and the reply starts at the same
        # instant.
        topo = five_node_bus(raw_flow("b", "n1", frames.BROADCAST_MAC, 0.001))
        topo.flows.append(Flow("f", "n1", "ipv4", 44, [to_ns(0.002)], dst_ip=ip(3)))
        # (node, ethertype, complete trace lines written when it was called)
        called = receptions(monkeypatch, lambda node, sim, frame, rx: (
            node.name, rx.eth.ethertype, "".join(sim.trace_lines).count("\n")))
        trace, _ = Simulation(topo).run()
        records = [json.loads(line) for line in trace.splitlines()]
        broadcast, request = [i for i, r in enumerate(records) if r["event"] == "tx_complete"][:2]

        # each receiver of the broadcast reacts after its own deliver line,
        # before the next one
        assert [(r["event"], r["location"]) for r in records[broadcast + 1:broadcast + 9]] == \
            [(event, f"n{n}") for n in range(2, 6) for event in ("deliver", "app_deliver")]
        assert [c for c in called if c[1] == frames.ETHERTYPE_RAW_DATA] == \
            [(f"n{n}", frames.ETHERTYPE_RAW_DATA, broadcast + 2 * n - 2) for n in range(2, 6)]

        # n2, n4 and n5 get their deliver records for the request but no call
        delivers = list(range(request + 1, request + 5))
        assert records[request]["source"] == "n1"
        assert [records[i]["event"] for i in delivers] == ["deliver"] * 4
        assert [records[i]["location"] for i in delivers] == ["n2", "n3", "n4", "n5"]
        assert [c for c in called if c[1] == frames.ETHERTYPE_ARP][0] == \
            ("n3", frames.ETHERTYPE_ARP, delivers[1] + 1)
        assert [c for c in called if request < c[2] <= delivers[-1] + 1] == \
            [("n3", frames.ETHERTYPE_ARP, delivers[1] + 1)]
        reply = next(i for i, r in enumerate(records)
                     if r["event"] == "tx_start" and r["source"] == "n3")
        assert reply > delivers[-1]
        assert records[reply]["t_ns"] == records[request]["t_ns"]

    def test_a_delivery_follows_its_completion_when_nothing_else_is_due(self):
        # The completion is the last event at its instant, so each receiver's
        # record and reaction come right after it, once each.
        sim = Simulation(five_node_bus(raw_flow("f", "n1", frames.BROADCAST_MAC, 0.001)))
        trace, report = sim.run()
        records = [json.loads(line) for line in trace.splitlines()]
        done = next(i for i, r in enumerate(records) if r["event"] == "tx_complete")
        assert [(r["event"], r["location"], r["t_ns"]) for r in records[done + 1:]] == [
            (event, f"n{n}", records[done]["t_ns"])
            for n in range(2, 6) for event in ("deliver", "app_deliver")]
        assert report["flows"]["f"]["delivered"] == 4

    def test_a_delivery_waits_for_the_events_due_after_its_completion(self):
        # The two directions of one link complete at one instant: the first
        # completion's delivery comes after the second completion, and each
        # transmission is delivered once.
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(EthernetHost("a", mac(1), ip(1)))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        topo.flows.append(raw_flow("ab", "a", mac(2), 0.001))
        topo.flows.append(raw_flow("ba", "b", mac(1), 0.001))
        trace, report = Simulation(topo).run()
        records = [json.loads(line) for line in trace.splitlines()]
        done = next(i for i, r in enumerate(records) if r["event"] == "tx_complete")
        assert [(r["event"], r["location"], r.get("flow"), r["t_ns"])
                for r in records[done:]] == [
            (event, location, flow, records[done]["t_ns"]) for event, location, flow in [
                ("tx_complete", "link1", "ab"), ("tx_complete", "link1", "ba"),
                ("deliver", "b", None), ("app_deliver", "b", "ab"),
                ("deliver", "a", None), ("app_deliver", "a", "ba")]]
        assert [report["flows"][f]["delivered"] for f in ("ab", "ba")] == [1, 1]

    def test_a_lone_link_transmission_is_kicked_once(self, monkeypatch):
        # Delivered in place with nothing queued in its direction, the
        # frame's completion neither arms the link nor kicks it again.
        kicks = recorder(monkeypatch, [EthernetLink], "kick",
                         lambda link, sim, station: (station.name, sim.now))
        topo = host_pair()
        topo.flows.append(raw_flow("f", "a", mac(2), 0.001))
        _, report = Simulation(topo).run()
        assert report["flows"]["f"]["delivered"] == 1
        assert kicks == [("a", to_ns(0.001))]

    def test_a_frame_queued_as_its_direction_completes_waits_for_its_kick(self, monkeypatch):
        # a's second frame is queued at the instant the first one completes,
        # before the completion runs, so its kick is already pending then:
        # the completion's `arm` finds it so, and the delivery, deferred
        # behind that kick, kicks nothing itself.  The second frame is
        # delivered in place.
        kicks = recorder(monkeypatch, [EthernetLink], "kick",
                         lambda link, sim, station: (station.name, sim.now))
        t, d = to_ns(0.001), to_ns(ethernet_duration(64, LINK))
        topo = host_pair()
        topo.flows.append(raw_flow("f", "a", mac(2), None, seq_times=[t, t + d]))
        trace, report = Simulation(topo).run()
        assert report["flows"]["f"]["delivered"] == 2
        assert kicks == [("a", t), ("a", t + d)]
        assert [(r["event"], r["location"], r.get("seq")) for r in records_at(trace, t + d)] == [
            ("app_send", "a", 1), ("tx_complete", "link1", 0), ("tx_start", "link1", 1),
            ("deliver", "b", None), ("app_deliver", "b", 0)]

    def test_a_deferred_link_delivery_kicks_what_was_queued_before_it(self, monkeypatch):
        # Hosts h0, h1, h2 on ports 0, 1, 2 of one switch.  h1's broadcast
        # completes as h0's starts, so the switch floods it while h0's runs.
        # h0's frame and both flooded copies complete at t + 2d, h0's first,
        # and all three deliveries are deferred.  The first, of h0's frame,
        # floods it onto p1 and onto p2, which has just completed.  p2 kicks
        # at the end of its own delivery, before p1's scheduled kick: a
        # deferred completion arms even with nothing queued.
        kicks = recorder(monkeypatch, [EthernetLink], "kick",
                         lambda link, sim, station: (station.name, sim.now, len(station.queue)))
        t, d = to_ns(0.001), to_ns(ethernet_duration(64, LINK))
        topo = Topology(RunOptions(t_end=0.01, startup_gratuitous_arp=False))
        topo.add_switch(CSwitch("sw", 1, [PortConfig(i, ETH) for i in range(3)]))
        for i in range(3):
            topo.add_node(EthernetHost(f"h{i}", mac(i + 1), ip(i + 1)))
            topo.add_link(f"l{i}", LINK)
            topo.attach_node(f"h{i}", f"l{i}")
            topo.attach_switch_port("sw", i, f"l{i}")
        topo.flows += [raw_flow("b1", "h1", frames.BROADCAST_MAC, None, seq_times=[t]),
                       raw_flow("b0", "h0", frames.BROADCAST_MAC, None, seq_times=[t + d])]
        trace, report = Simulation(topo).run()
        assert [report["flows"][f]["delivered"] for f in ("b0", "b1")] == [2, 2]
        assert [(r["event"], r["location"], r.get("source"), r.get("flow"))
                for r in records_at(trace, t + 2 * d)] == [
            ("tx_complete", "l0", "h0", "b0"), ("tx_complete", "l0", "sw.p0", "b1"),
            ("tx_complete", "l2", "sw.p2", "b1"),
            ("deliver", "sw.p0", None, None),
            ("deliver", "h0", None, None), ("app_deliver", "h0", None, "b1"),
            ("deliver", "h2", None, None), ("app_deliver", "h2", None, "b1"),
            ("tx_start", "l2", "sw.p2", "b0"), ("tx_start", "l1", "sw.p1", "b0")]
        # each deferred delivery ends with its own direction's kick
        assert [k for k in kicks if k[1] == t + 2 * d] == [
            ("h0", t + 2 * d, 0), ("sw.p0", t + 2 * d, 0), ("sw.p2", t + 2 * d, 1),
            ("sw.p1", t + 2 * d, 1)]

    def test_ethernet_link_duration(self):
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(EthernetHost("a", mac(1), ip(1)))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        topo.flows.append(raw_flow("f", "a", mac(2), 0.001))
        trace, report = Simulation(topo).run()
        assert report["flows"]["f"]["latency_ns"]["min"] == to_ns(ethernet_duration(64, LINK))

    def test_full_duplex_directions_independent(self):
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(EthernetHost("a", mac(1), ip(1)))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        topo.flows.append(raw_flow("ab", "a", mac(2), 0.001))
        topo.flows.append(raw_flow("ba", "b", mac(1), 0.001))
        trace, report = Simulation(topo).run()
        starts = [e["t_ns"] for e in events(trace, "tx_start") if e.get("flow")]
        assert starts[0] == starts[1]  # no mutual blocking


ORDER_T_END_NS = 6


def child_time(now: int, where) -> int:
    """An offset from `now`, or the instant `t_end` or just past it."""
    if where == "t_end":
        return ORDER_T_END_NS
    return ORDER_T_END_NS + 1 if where == "past_end" else now + where


@st.composite
def event_programs(draw):
    """Initial events as (t_ns, id) and, per event id, the children it
    schedules when it runs, as (id, where) for `child_time`."""
    n = draw(st.integers(1, 16))
    initial, children = [], [[] for _ in range(n)]
    for i in range(n):
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        if parent is None:
            initial.append((draw(st.sampled_from([0, 1, 2, ORDER_T_END_NS, ORDER_T_END_NS + 1])), i))
        else:
            where = draw(st.integers(0, 2) | st.sampled_from(["t_end", "past_end"]))
            children[parent].append((i, where))
    return initial, children


def reference_order(initial, children) -> list[tuple[int, int]]:
    """The (id, t_ns) sequence a plain heap of (t_ns, seq) runs: time order,
    and the order of scheduling within an instant."""
    seq = itertools.count()
    heap = [(t, next(seq), i) for t, i in initial]
    heapq.heapify(heap)
    ran = []
    while heap:
        t, _seq, i = heapq.heappop(heap)
        if t > ORDER_T_END_NS:
            break
        ran.append((i, t))
        for child, where in children[i]:
            heapq.heappush(heap, (child_time(t, where), next(seq), child))
    return ran


@given(event_programs())
def test_events_run_in_time_then_scheduling_order(program):
    initial, children = program
    sim = Simulation(Topology(RunOptions(t_end=ORDER_T_END_NS * 1e-9)))
    assert sim.t_end_ns == ORDER_T_END_NS
    ran = []

    def handler(i):
        ran.append((i, sim.now))
        for child, where in children[i]:
            sim.schedule(child_time(sim.now, where), handler, child)

    for t, i in initial:
        sim.schedule(t, handler, i)
    sim.run()
    assert ran == reference_order(initial, children)


@given(kind=st.sampled_from(["eoc", "ioc", "link"]), data=st.data())
def test_unsaturated_utilization_has_a_closed_form(kind, data):
    """One bus of 2-6 tunnel or streamlined nodes, or one link of two
    hosts, each station sending one 44-byte ipv4 flow to the next with
    static ARP, every flow from s with period P above n·C.  Each period's
    frames run back to back, so station i in priority order starts at
    s + kP + i·C (on a link, each direction on its own), and the
    utilization is C times the starts up to t_end, less what the last
    frame runs past t_end, over t_end."""
    n = 2 if kind == "link" else data.draw(st.integers(2, 6), label="n")
    priorities = data.draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n, unique=True),
                           label="priorities")
    if kind == "link":  # the frame's payload is the 20 + 44-byte datagram
        c = to_ns(ethernet_duration(64, LINK))
    else:  # a tunnel frame adds the 14-byte Ethernet header, a compact one its 8-byte one
        c = to_ns(canxl_duration(78 if kind == "eoc" else 52, BUS))
    s = data.draw(st.integers(0, 10**6), label="s")
    period = n * c + data.draw(st.integers(1, 10**6), label="gap")
    sends = data.draw(st.integers(1, 4), label="sends")
    t_end = data.draw(st.integers(1, s + sends * period + c), label="t_end")

    topo = Topology(RunOptions(t_end=t_end * 1e-9, startup_gratuitous_arp=False))
    if kind == "link":
        topo.add_link("m", LINK)
    else:
        topo.add_bus("m", BUS)
    for i in range(n):
        arp = {ip(j + 1): mac(j + 1) for j in range(n) if j != i}
        if kind == "link":
            topo.add_node(EthernetHost(f"s{i}", mac(i + 1), ip(i + 1), static_arp=arp))
        else:
            cls = EocNode if kind == "eoc" else IocNode
            topo.add_node(cls(f"s{i}", mac(i + 1), ip(i + 1), can_priority=priorities[i],
                              static_arp=arp))
        topo.attach_node(f"s{i}", "m")
        topo.flows.append(Flow(f"f{i}", f"s{i}", "ipv4", 44,
                               [s + k * period for k in range(sends)], dst_ip=ip((i + 1) % n + 1)))
    sim = Simulation(topo)
    assert sim.t_end_ns == t_end
    _, report = sim.run()

    def utilization(starts):
        ran = [t for t in starts if t <= t_end]
        past_end = max(0, max(ran) + c - t_end) if ran else 0
        return (c * len(ran) - past_end) / t_end

    per_period = 1 if kind == "link" else n
    expected = utilization([s + k * period + i * c
                            for k in range(sends) for i in range(per_period)])
    assert report["media"]["m"]["utilization"] == (
        {"s0->s1": expected, "s1->s0": expected} if kind == "link" else expected)


@given(kind=st.sampled_from(["eoc", "ioc"]),
       payload=st.integers(engine.FLOW_TAG.size, engine.MAX_IPV4_PAYLOAD),
       rates=st.sampled_from([(125e3, 2e6), (500e3, 8e6), (500e3, 16e6), (1e6, 8e6),
                              (1e6, 16e6), (1e6, 20e6)]),
       frames_by_t_end=st.integers(1, 150), data=st.data())
def test_saturation_goodput_has_a_closed_form(kind, payload, rates, frames_by_t_end, data):
    """One bus of 8 tunnel or streamlined nodes with static ARP, each
    sending `payload`-byte ipv4 datagrams to the next once every C, the
    frame duration, from 0: every queue stays full, so the bus carries one
    frame per C back to back and delivers floor(t_end / C) of them, give
    or take the one cut off at t_end.  A tunnel frame holds the 14-byte
    Ethernet header and the padded 20-byte IPv4 one, a compact frame its
    8-byte header; their ratio of C is the streamlined encoding's gain."""
    bus = CanXlTimingParams(*rates)
    length = 14 + max(20 + payload, 46) if kind == "eoc" else 8 + payload
    c = to_ns(canxl_duration(length, bus))
    t_end = frames_by_t_end * c + data.draw(st.integers(0, c - 1), label="past")
    topo = Topology(RunOptions(t_end=t_end * 1e-9, startup_gratuitous_arp=False))
    topo.add_bus("m", bus)
    cls = EocNode if kind == "eoc" else IocNode
    for i in range(8):
        arp = {ip(j + 1): mac(j + 1) for j in range(8) if j != i}
        topo.add_node(cls(f"s{i}", mac(i + 1), ip(i + 1), can_priority=0x100 + i,
                          static_arp=arp))
        topo.attach_node(f"s{i}", "m")
        topo.flows.append(Flow(f"f{i}", f"s{i}", "ipv4", payload,
                               [k * c for k in range(frames_by_t_end + 2)],
                               dst_ip=ip((i + 1) % 8 + 1)))
    sim = Simulation(topo)
    assert sim.t_end_ns == t_end
    _, report = sim.run()
    delivered = sum(flow["delivered"] for flow in report["flows"].values())
    assert abs(delivered - t_end // c) <= 1


@given(links=st.integers(1, 3), source=st.sampled_from(["eoc", "ioc"]),
       # (destination, the last switch's egress mode); a tunnel destination
       # takes no compact frame, so it never sits behind an ioc-preferred port
       ending=st.sampled_from([("eoc", EGRESS_EOC), ("ioc", EGRESS_EOC),
                               ("ioc", EGRESS_IOC_PREFERRED)]),
       payload=st.integers(8, frames.ETH_MTU - frames.IPV4_HEADER_LEN), data=st.data())
def test_store_and_forward_latency_is_the_sum_of_the_hop_durations(
        links, source, ending, payload, data):
    """A chain busA - sw0 - link0 - ... - sw<k> - busB of 1-3 links, with a
    tunnel or streamlined source on busA and destination on busB, both with
    static ARP.  sw0 tunnels on busA; the last switch tunnels or compacts on
    busB.  Once the startup announcements and the hellos at 0 are done,
    nothing else is in flight, so every packet sent from 5 ms on, one path
    time apart or more, arrives after exactly its hop durations: tunnel or
    compact on each bus, Ethernet on each link."""
    destination, last_mode = ending
    datagram = frames.IPV4_HEADER_LEN + payload
    tunnel = frames.ETH_HEADER_LEN + max(datagram, frames.ETH_MIN_PAYLOAD)

    def on_bus(kind):
        data_field = tunnel if kind == "eoc" else frames.IOC_HEADER_LEN + payload
        return to_ns(canxl_duration(data_field, BUS))

    path = (on_bus(source) + links * to_ns(ethernet_duration(datagram, LINK))
            + on_bus("eoc" if last_mode == EGRESS_EOC else "ioc"))
    s = to_ns(0.005) + data.draw(st.integers(0, 10**6), label="s")
    period = path + data.draw(st.integers(1, 10**6), label="gap")
    sends = data.draw(st.integers(1, 3), label="sends")
    t_end = s + (sends - 1) * period + path + data.draw(st.integers(0, 10**6), label="slack")

    topo = Topology(RunOptions(t_end=t_end * 1e-9))
    kinds = {"eoc": EocNode, "ioc": IocNode}
    topo.add_node(kinds[source]("src", mac(1), ip(1), can_priority=0x100,
                                static_arp={ip(2): mac(2)}))
    topo.add_node(kinds[destination]("dst", mac(2), ip(2), can_priority=0x200,
                                     static_arp={ip(1): mac(1)}))
    for name in ("busA", "busB"):
        topo.add_bus(name, BUS)
    for i in range(links):
        topo.add_link(f"link{i}", LINK)
    topo.attach_node("src", "busA")
    topo.attach_node("dst", "busB")
    for i in range(links + 1):
        last = i == links
        topo.add_switch(CSwitch(f"sw{i}", i + 1, [
            PortConfig(0, ETH if i else CAN_XL),
            PortConfig(1, CAN_XL if last else ETH, last_mode if last else EGRESS_EOC)]))
        topo.attach_switch_port(f"sw{i}", 0, f"link{i - 1}" if i else "busA")
        topo.attach_switch_port(f"sw{i}", 1, "busB" if last else f"link{i}")
    topo.flows.append(Flow("f", "src", "ipv4", payload,
                           [s + k * period for k in range(sends)], dst_ip=ip(2)))
    sim = Simulation(topo)
    assert sim.t_end_ns == t_end < HELLO_INTERVAL_NS
    trace, report = sim.run()

    assert report["flows"]["f"]["delivered_unique"] == sends
    assert [r["latency_ns"] for r in events(trace, "app_deliver")] == [path] * sends


@given(flow_index=st.integers(0, 2**32 - 1), seq=st.integers(0, 2**32 - 1))
def test_make_payload_matches_the_per_byte_formula(flow_index, seq):
    filler = bytes((37 * i + 11 * flow_index + 7 * seq) & 0xFF for i in range(1500 - 8))
    for size in range(8, 1501):
        payload = engine.make_payload(flow_index, seq, size)
        assert payload[:8] == (flow_index << 32 | seq).to_bytes(8, "big")
        assert payload[8:] == filler[:size - 8]


def reference_summary(frame, inner) -> dict:
    """The frame summary as a dict, as `engine.frame_summary` built it
    before it wrote the text itself."""
    if isinstance(frame, frames.CanXlFrame):
        d = {
            "kind": "canxl",
            "sdt": frames.SDT_NAMES.get(frame.sdt, f"0x{frame.sdt:02x}"),
            "priority": frame.priority,
            "af": f"0x{frame.af:08x}",
            "len": len(frame.data),
        }
        if inner is not None:
            d["inner"] = {"da": str(inner.da), "sa": str(inner.sa),
                          "ethertype": f"0x{inner.ethertype:04x}"}
        return d
    if isinstance(frame, frames.EthernetFrame):
        return {"kind": "eth", "da": str(frame.da), "sa": str(frame.sa),
                "ethertype": f"0x{frame.ethertype:04x}", "len": len(frame.payload)}
    if isinstance(frame, frames.ClassicCanFrame):
        return {"kind": "classic", "id": f"0x{frame.id:03x}", "len": len(frame.data)}
    if isinstance(frame, frames.Ipv4Datagram):
        return {"kind": "ioc", "src": str(frame.src_ip), "dst": str(frame.dst_ip),
                "len": len(frame.payload)}


macs = st.binary(min_size=6, max_size=6).map(MacAddress)
ips = st.binary(min_size=4, max_size=4).map(Ipv4Address)
ethernet_frames = st.builds(frames.EthernetFrame, macs, macs, st.integers(0, 0xFFFF),
                            st.integers(0, frames.ETH_MTU).map(bytes))
canxl_frames = st.builds(frames.CanXlFrame, st.integers(0, 2047), st.integers(0, 0xFF),
                         st.integers(0, 0xFF), st.integers(0, 2**32 - 1),
                         st.integers(1, frames.CANXL_MAX_DATA).map(bytes))


@given(st.one_of(
    st.tuples(canxl_frames, st.none() | ethernet_frames),
    st.tuples(ethernet_frames | st.builds(frames.ClassicCanFrame, st.integers(0, 2047),
                                          st.integers(0, 8).map(bytes))
              | st.builds(compact_dgram, ips, ips, st.integers(0, 1480).map(bytes)),
              st.none())))
def test_frame_summary_text_is_the_encoded_dict(case):
    frame, inner = case
    assert engine.frame_summary(frame, inner) == engine._encode(reference_summary(frame, inner))


# Few values per summarised field, so that frames often differ in one field.
few_macs = st.sampled_from([mac(1), mac(2), frames.BROADCAST_MAC])
few_ips = st.sampled_from([ip(1), ip(2)])
priorities = st.sampled_from([0x100, 0x101])
afs = st.sampled_from([0x02000000, 0x02000001, 0xFFFFFFFF])
carried = st.builds(frames.EthernetFrame, few_macs, few_macs,
                    st.sampled_from([frames.ETHERTYPE_RAW_DATA, frames.ETHERTYPE_ARP, 0x1234]),
                    st.sampled_from([46, 47]).map(bytes))
# a payload serialized on demand, never read by the summary
on_demand = st.builds(lambda src, dst, size, da, sa: frames.ioc_to_ethernet(
    compact_dgram(src, dst, bytes(size)), da, sa), few_ips, few_ips, st.sampled_from([26, 27]),
    few_macs, few_macs)
summarised = st.one_of(
    carried, on_demand,
    st.builds(frames.eoc_encapsulate, carried | on_demand, priorities),  # tunnel, AF from DA
    st.builds(lambda priority, af, eth: frames.CanXlFrame(  # tunnel, any AF
        priority, frames.SDT_ETHERNET, 0, af, eth.to_bytes()), priorities, afs, carried),
    st.builds(lambda src, dst, size, priority: frames.ioc_encode(  # compact
        compact_dgram(src, dst, bytes(size)), priority),
        few_ips, few_ips, st.sampled_from([1, 2]), priorities),
    st.builds(frames.CanXlFrame, priorities,  # no Ethernet frame inside
              st.sampled_from([frames.SDT_IPV4, frames.SDT_CLASSIC_CAN, 0x7F]), st.just(0), afs,
              st.sampled_from([1, 9]).map(bytes)),
    st.builds(frames.ClassicCanFrame, st.sampled_from([0x100, 0x101]),
              st.sampled_from([0, 8]).map(bytes)))


@given(st.lists(summarised, min_size=1, max_size=12))
def test_the_summary_memo_writes_each_frame_s_own_summary(sent):
    # One run's memo: every tx_start record holds the frame's own summary.
    topo = Topology(RunOptions())
    topo.add_bus("bus1", BUS)
    topo.add_node(EocNode("n1", mac(1), ip(1)))
    station = topo.attach_node("n1", "bus1")
    sim = Simulation(topo)
    for frame in sent:
        sim.on_tx_start(station, frame, 1)
        assert sim.trace_lines[-1] == (
            f'{{"duration_ns":1,"event":"tx_start",'
            f'"frame":{engine.frame_summary(frame, frame.decoded.eth)},'
            f'"location":"bus1","source":"n1","t_ns":0}}\n')


def test_one_ipv4_header_rule_for_engine_and_receivers():
    # A datagram of flow f whose header checksum is wrong: its payload
    # still starts with f's tag, but no reader may take it past the header.
    topo = Topology(RunOptions(t_end=0.01))
    topo.add_node(EthernetHost("a", mac(1), ip(1), static_arp={ip(2): mac(2)}))
    topo.add_node(EthernetHost("b", mac(2), ip(2)))
    topo.add_link("link1", LINK)
    topo.attach_node("a", "link1")
    topo.attach_node("b", "link1")
    topo.flows.append(Flow("f", "a", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2)))
    sim = Simulation(topo)
    _, report = sim.run()
    assert report["flows"]["f"]["delivered"] == 1
    payload = engine.make_payload(0, 0, 44)
    header = bytearray(frames.Ipv4Datagram(ip(1), ip(2), payload).to_bytes())
    good = frames.EthernetFrame(mac(2), mac(1), frames.ETHERTYPE_IPV4, bytes(header))
    header[10] ^= 0xFF
    bad = frames.EthernetFrame(mac(2), mac(1), frames.ETHERTYPE_IPV4, bytes(header))
    record, seq = sim.flow_of(frames.decode(good).payload)
    assert (record.flow, seq) == (topo.flows[0], 0)
    rx = frames.decode(bad)
    assert rx.net is None
    assert sim.flow_of(rx.payload) is None

    receiver = topo.nodes["b"]
    receiver.on_receive(sim, bad, rx)
    assert receiver.counters["ipv4_errors"] == 1
    assert receiver.counters["delivered"] == 1
    assert sim.report()["flows"]["f"]["delivered"] == 1

    sw = CSwitch("sw", 1, [PortConfig(0, ETH), PortConfig(1, ETH)])
    sw.learn(0, rx, now=0)
    assert sw.efdb.lookup_mac(mac(1), 0).ip is None
    assert sw.efdb.lookup_ip(ip(1), 0) is None


def tagged(flow_index: int, seq: int, size: int = engine.FLOW_TAG.size) -> bytes:
    """The payload of the packet (flow_index, seq)."""
    return engine.make_payload(flow_index, seq, size)


def test_nonzero_padding_is_a_payload_mismatch():
    # A 20-byte raw payload travels zero-padded to the 46-byte minimum.
    topo = Topology(RunOptions(t_end=0.01))
    topo.add_node(EthernetHost("a", mac(1), ip(1)))
    topo.add_node(EthernetHost("b", mac(2), ip(2)))
    topo.add_link("link1", LINK)
    topo.attach_node("a", "link1")
    topo.attach_node("b", "link1")
    topo.flows.append(raw_flow("f", "a", mac(2), 0.001, size=20))
    sim = Simulation(topo)
    _, report = sim.run()
    flow = report["flows"]["f"]
    assert (flow["delivered"], flow["payload_mismatches"]) == (1, 0)
    sent = engine.make_payload(0, 0, 20)
    receiver = topo.nodes["b"]
    for pad in (bytes(26), b"\x01" + bytes(25), bytes(25) + b"\x01"):
        eth = frames.EthernetFrame(mac(2), mac(1), frames.ETHERTYPE_RAW_DATA, sent + pad)
        receiver.on_receive(sim, eth, eth.decoded)
    flow = sim.report()["flows"]["f"]
    assert (flow["delivered"], flow["payload_mismatches"]) == (4, 2)


T_END = 0.02
T_END_NS = to_ns(T_END)
flow_sets = st.lists(st.tuples(
    st.sampled_from(["n1", "n2", "n3"]),          # source
    st.sampled_from(["ipv4", "raw-ethernet"]),
    st.integers(1, 3),                             # destination node
    st.integers(engine.FLOW_TAG.size, 200),         # payload size
    st.lists(st.integers(0, 2 * T_END_NS), max_size=5).map(sorted)), min_size=1, max_size=4)


@given(flow_sets)
def test_the_tag_names_the_flow_and_the_schedule_the_send_time(specs):
    topo = Topology(RunOptions(t_end=T_END))
    topo.add_bus("bus1", BUS)
    for n, kind in ((1, EocNode), (2, IocNode), (3, EocNode)):
        topo.add_node(kind(f"n{n}", mac(n), ip(n), can_priority=0x100 * n))
        topo.attach_node(f"n{n}", "bus1")
    for k, (source, transport, dst, size, times) in enumerate(specs):
        topo.flows.append(Flow(f"f{k}", source, transport, size, times,
                               dst_ip=ip(dst) if transport == "ipv4" else None,
                               dst_mac=mac(dst) if transport == "raw-ethernet" else None))
    sim = Simulation(topo)
    trace, report = sim.run()
    sent_at = {(e["flow"], e["seq"]): e["t_ns"] for e in events(trace, "app_send")}
    for index, flow in enumerate(topo.flows):
        sent = report["flows"][flow.name]["sent"]
        assert sent == sum(t <= T_END_NS for t in flow.schedule)
        for seq in range(sent):
            assert sent_at[(flow.name, seq)] == flow.schedule[seq]
            record, got = sim.flow_of(tagged(index, seq, flow.payload_size))
            assert (record.flow, got) == (flow, seq)
        assert sim.flow_of(tagged(index, sent)) is None
        assert report["flows"][flow.name]["payload_mismatches"] == 0
    assert sim.flow_of(tagged(len(topo.flows), 0)) is None
    for e in events(trace, "app_deliver"):
        assert e["latency_ns"] == e["t_ns"] - sent_at[(e["flow"], e["seq"])]


def test_a_packet_is_sent_once_its_send_time_has_come():
    # Send times need not be in order: seq 1 goes at 1 ms, seq 0 after t_end.
    flow = raw_flow("f", "n1", mac(2), None, seq_times=[to_ns(0.06), to_ns(0.001)])
    sim = Simulation(two_node_bus(flows=[flow], t_end=0.05))
    trace, report = sim.run()
    assert [e["seq"] for e in events(trace, "app_deliver")] == [1]
    assert report["flows"]["f"]["payload_mismatches"] == 0
    record, seq = sim.flow_of(tagged(0, 1))
    assert (record.flow, seq) == (flow, 1)
    assert sim.flow_of(tagged(0, 0)) is None


@pytest.mark.parametrize("payload", [
    bytes(engine.FLOW_TAG.size - 1),  # shorter than a tag
    tagged(1, 0),  # flow 1 does not exist
    tagged(0, 2),  # the schedule has two packets
    tagged(0, 1),  # sent at 1 ms
], ids=["no_tag", "no_such_flow", "no_such_packet", "not_sent_yet"])
def test_an_untracked_delivery_moves_no_flow_counter(payload):
    flow = raw_flow("f", "n1", mac(2), None, seq_times=[0, to_ns(0.001)])
    sim = Simulation(two_node_bus(flows=[flow]))
    sim.now = 10
    before = sim.report()["flows"]
    sim.on_app_delivery(sim.topo.nodes["n2"], payload)
    assert sim.trace_lines == [
        '{"event":"app_deliver","location":"n2","reason":"untracked","t_ns":10}\n']
    assert sim.report()["flows"] == before


class TestArp:
    def test_unresolvable_address_counts_after_one_retry(self):
        # Four packets of two flows wait on one resolution of one address.
        flows = [Flow(name, "n1", "ipv4", 44, [to_ns(t), to_ns(t + 0.001)], dst_ip=ip(99))
                 for name, t in (("f", 0.001), ("g", 0.0015))]
        topo = two_node_bus(flows=flows, t_end=3.5)
        trace, report = Simulation(topo).run()
        for name in ("f", "g"):
            assert report["flows"][name]["delivered"] == 0
            assert report["flows"][name]["drops"] == {"arp_unresolved": 2}
        assert report["nodes"]["n1"]["arp_unresolved"] == 4
        sent = [(e["flow"], e["seq"]) for e in events(trace, "app_send")]
        assert sent == [("f", 0), ("g", 0), ("f", 1), ("g", 1)]
        assert [(e["flow"], e["seq"]) for e in events(trace, "drop")] == sent
        requests = [e for e in events(trace, "tx_start")
                    if e["frame"].get("inner", {}).get("ethertype") == "0x0806"]
        assert len(requests) == 2  # original plus a single retry

    def test_resolution_on_same_bus(self):
        flow = Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2))
        trace, report = Simulation(two_node_bus(flows=[flow])).run()
        assert report["flows"]["f"]["delivered"] == 1
        assert report["flows"]["f"]["payload_mismatches"] == 0

    def test_af_false_positive_counted(self):
        # n2's address shares the leading four octets with the target, so
        # the hardware filter passes and the software stage rejects.
        topo = Topology(RunOptions(t_end=0.05))
        topo.add_node(EocNode("n1", mac(1), ip(1), can_priority=0x100))
        topo.add_node(EocNode("n2", MacAddress.parse("02:00:00:00:10:02"),
                              ip(2), can_priority=0x200))
        target = MacAddress.parse("02:00:00:00:10:99")
        topo.add_bus("bus1", BUS)
        topo.attach_node("n1", "bus1")
        topo.attach_node("n2", "bus1")
        topo.flows.append(raw_flow("f", "n1", target, 0.001))
        trace, report = Simulation(topo).run()
        assert report["nodes"]["n2"]["af_false_positive"] == 1
        assert report["flows"]["f"]["delivered"] == 0

    def test_a_reply_before_the_retry_leaves_the_retry_nothing_to_send(self):
        flow = Flow("f", "n1", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2))
        sim = Simulation(two_node_bus(flows=[flow], t_end=1.5))
        trace, report = sim.run()
        assert report["flows"]["f"]["delivered"] == 1
        retry_at = to_ns(0.001) + nodes.ARP_RETRY_NS
        assert [(e["t_ns"], e["location"], e["reason"]) for e in events(trace, "timer")] == [
            (retry_at, "n1", "arp-retry")]
        assert max(e["t_ns"] for e in events(trace, "tx_start")) < retry_at
        assert sim.topo.nodes["n1"].pending_arp == {}

    def test_arp_contradicting_a_static_entry_leaves_it(self):
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(EthernetHost("a", mac(1), ip(1), static_arp={ip(2): mac(2)}))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        topo.flows.append(Flow("f", "a", "ipv4", 44, [to_ns(0.001)], dst_ip=ip(2)))
        sim = Simulation(topo)
        a = topo.nodes["a"]
        # mac(9) claims b's address, in a reply to a and in an announcement
        for msg in (frames.ArpMessage(frames.ArpOp.REPLY, mac(9), ip(2), mac(1), ip(1)),
                    frames.ArpMessage(frames.ArpOp.GRATUITOUS_REPLY, mac(9), ip(2),
                                      frames.ZERO_MAC, ip(2))):
            eth = frames.arp_serialize(msg)
            a.on_receive(sim, eth, eth.decoded)
        assert a.arp_table[ip(2)] == mac(2) and ip(2) in a.static_ips
        _, report = sim.run()
        assert report["flows"]["f"]["delivered"] == 1


class TestIocNodeBehavior:
    def build(self, refresh=None, sends=((0.001),), t_end=0.1):
        topo = Topology(RunOptions(t_end=t_end))
        topo.add_node(IocNode("n1", mac(1), ip(1), can_priority=0x100,
                              eoc_refresh_interval=refresh,
                              static_arp={ip(2): mac(2)}))
        topo.add_node(IocNode("n2", mac(2), ip(2), can_priority=0x200,
                              static_arp={ip(1): mac(1)}))
        topo.add_bus("bus1", BUS)
        topo.attach_node("n1", "bus1")
        topo.attach_node("n2", "bus1")
        times = [to_ns(t) for t in sends]
        topo.flows.append(Flow("f", "n1", "ipv4", 44, times, dst_ip=ip(2)))
        return topo

    def sdts(self, trace):
        return [e["frame"]["sdt"] for e in events(trace, "tx_start") if e.get("flow")]

    def test_warm_arp_sends_compact_frames(self):
        trace, report = Simulation(self.build()).run()
        assert self.sdts(trace) == ["ipv4"]
        assert report["flows"]["f"]["delivered"] == 1

    def test_refresh_timeout_forces_one_tunneled_datagram(self):
        sends = (0.001, 0.011, 0.021, 0.031)
        trace, report = Simulation(self.build(refresh=0.015, sends=sends)).run()
        # deadline at 15 ms: the 21 ms send goes tunneled, timer resets to 36 ms
        assert self.sdts(trace) == ["ipv4", "ipv4", "ethernet", "ipv4"]
        assert report["flows"]["f"]["delivered"] == 4

    def test_largest_datagram_stays_compact(self):
        # a flow's IPv4 payload is at most 1480 B, so a compact frame has at
        # most 1488 of CAN XL's 2048 data bytes
        topo = self.build()
        topo.flows[0] = Flow("f", "n1", "ipv4", engine.MAX_IPV4_PAYLOAD, [to_ns(0.001)],
                             dst_ip=ip(2))
        trace, report = Simulation(topo).run()
        assert self.sdts(trace) == ["ipv4"]
        assert report["flows"]["f"]["delivered"] == 1
        assert topo.nodes["n1"].eoc_refresh_interval_ns is None


class TestScenarios:
    def test_empty_flow_set(self):
        topo = two_node_bus(flows=[], t_end=0.1)
        trace, report = Simulation(topo).run()
        assert report["flows"] == {}
        assert all(n["delivered"] == 0 for n in report["nodes"].values())
        assert trace == ""  # no switches, no flows: nothing happens

    def test_empty_flow_set_with_switch_has_only_stp_traffic(self, scenario_path):
        topo = load_config(scenario_path("eoc_baseline"))
        topo.flows = []
        trace, report = Simulation(topo).run()
        assert trace != ""
        for line in trace.splitlines():
            rec = json.loads(line)
            frame = rec.get("frame")
            if frame and frame["kind"] == "eth":
                assert frame["ethertype"] == "0x88b5"
            if frame and frame["kind"] == "canxl":
                assert frame["inner"]["ethertype"] == "0x88b5"

    def test_causality_time_is_non_decreasing(self, scenario_path):
        trace, _ = Simulation(load_config(scenario_path("eoc_baseline"))).run()
        times = [json.loads(line)["t_ns"] for line in trace.splitlines()]
        assert times == sorted(times)

    def test_conservation_over_scenarios(self, scenario_path):
        for name in ("eoc_baseline", "ioc_reconstruction", "clash", "legacy_relay",
                     "static_arp_gratuitous", "static_arp_no_gratuitous"):
            _, report = Simulation(load_config(scenario_path(name))).run()
            for fname, st in report["flows"].items():
                dropped = sum(st["drops"].values())
                assert st["sent"] == st["delivered_unique"] + dropped, (name, fname)

    def test_same_tick_startup_is_ordered_by_arbitration(self):
        # both nodes emit their gratuitous announcement at t=0; the bus
        # serializes them by priority, nothing is lost
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(IocNode("n1", mac(1), ip(1), can_priority=0x100))
        topo.add_node(IocNode("n2", mac(2), ip(2), can_priority=0x200))
        topo.add_bus("bus1", BUS)
        topo.attach_node("n1", "bus1")
        topo.attach_node("n2", "bus1")
        trace, _ = Simulation(topo).run()
        starts = events(trace, "tx_start")
        assert len(starts) == 2
        assert starts[0]["source"] == "n1"  # lower priority value first
        assert starts[0]["t_ns"] == 0
        assert starts[1]["t_ns"] == starts[0]["duration_ns"]

    def test_an_event_at_t_end_runs_and_one_a_nanosecond_later_does_not(self):
        t_end_ns = to_ns(0.05)
        flow = raw_flow("f", "n1", mac(2), None, seq_times=[t_end_ns, t_end_ns + 1])
        trace, report = Simulation(two_node_bus(flows=[flow], t_end=0.05)).run()
        assert [(e["seq"], e["t_ns"]) for e in events(trace, "app_send")] == [(0, t_end_ns)]
        assert [(e["seq"], e["t_ns"]) for e in events(trace, "tx_start")] == [(0, t_end_ns)]
        assert report["flows"]["f"]["sent"] == 1

    def test_t_end_zero_runs_only_t0_events(self, scenario_path):
        topo = load_config(scenario_path("eoc_baseline"))
        topo.options.t_end = 0.0
        trace, _ = Simulation(topo).run()
        assert all(json.loads(line)["t_ns"] == 0 for line in trace.splitlines())

    @pytest.mark.parametrize("path", all_scenarios(), ids=lambda p: p.stem)
    def test_every_trace_line_is_canonical_json(self, path):
        trace, _ = Simulation(load_config(str(path))).run()
        assert trace
        for line in trace.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_odd_names_give_canonical_json(self):
        trace, report = Simulation(switched_pair()).run()
        assert report["flows"][FLOW_IP]["delivered"] == 1
        records = [json.loads(line) for line in trace.splitlines()]
        for line, rec in zip(trace.splitlines(), records):
            assert line == engine._encode(rec)
        names = {rec.get(key) for rec in records for key in ("location", "source", "flow")}
        assert {NODE, HOST, BUS_NAME, LINK_NAME, SWITCH, f"{SWITCH}.p0", f"{SWITCH}.p1",
                FLOW_IP, FLOW_UP, FLOW_DOWN} <= names
        arp = [rec for rec in records if rec["event"] in ("tx_start", "tx_complete")
               and rec["frame"].get("inner", rec["frame"]).get("ethertype") == "0x0806"]
        assert {rec["event"] for rec in arp} == {"tx_start", "tx_complete"}
        assert not any("flow" in rec or "seq" in rec for rec in arp)
        for event in ("app_send", "app_deliver"):
            flows = {rec["flow"] for rec in records if rec["event"] == event}
            assert flows & {FLOW_IP, FLOW_UP, FLOW_DOWN}, event

    def test_report_is_stable_across_runs(self, scenario_path):
        r1 = Simulation(load_config(scenario_path("ioc_reconstruction"))).run()[1]
        r2 = Simulation(load_config(scenario_path("ioc_reconstruction"))).run()[1]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestGratuitousArp:
    def test_static_entries_trigger_announcement(self, scenario_path):
        topo = load_config(scenario_path("static_arp_gratuitous"))
        trace, report = Simulation(topo).run()
        grat = [e for e in events(trace, "tx_start")
                if e["frame"].get("inner", {}).get("ethertype") == "0x0806"
                or e["frame"].get("ethertype") == "0x0806"]
        assert len(grat) >= 2  # one per node, possibly re-flooded copies
        efdb = report["switches"]["sw1"]["efdb"]
        assert any(e["ip"] == "10.0.0.1" and e["mac"] for e in efdb)
        assert any(e["ip"] == "10.0.0.2" and e["mac"] for e in efdb)

    def test_plain_host_without_static_entries_stays_silent(self):
        topo = Topology(RunOptions(t_end=0.01))
        topo.add_node(EthernetHost("a", mac(1), ip(1)))
        topo.add_node(EthernetHost("b", mac(2), ip(2)))
        topo.add_link("link1", LINK)
        topo.attach_node("a", "link1")
        topo.attach_node("b", "link1")
        trace, _ = Simulation(topo).run()
        assert events(trace, "tx_start") == []
