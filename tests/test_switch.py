import collections
import copy
import dataclasses
import json

import pytest
import yaml

from canxlnet import frames
from canxlnet.config import build_topology
from canxlnet.engine import RunOptions, Simulation, Topology
from canxlnet.frames import (
    ArpMessage,
    ArpOp,
    BROADCAST_MAC,
    Bpdu,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    IocDatagram,
    MacAddress,
    ZERO_MAC,
    arp_serialize,
    bpdu_parse,
    bpdu_serialize,
    decode,
    eoc_encapsulate,
    ioc_encode,
)
from canxlnet.switch import (
    CAN_XL,
    CSwitch,
    EGRESS_IOC_PREFERRED,
    ETH,
    Efdb,
    HELLO_INTERVAL_NS,
    LegacyRelayRule,
    PortConfig,
    ROLE_BLOCKED,
    ROLE_DESIGNATED,
    ROLE_ROOT,
)
from canxlnet.nodes import EthernetHost
from canxlnet.timing import EthernetTimingParams

from conftest import SCENARIOS

M1 = MacAddress.parse("02:00:00:00:00:01")
M2 = MacAddress.parse("02:00:00:00:00:02")
M3 = MacAddress.parse("02:00:00:00:00:03")
IP1 = Ipv4Address.parse("10.0.0.1")
IP2 = Ipv4Address.parse("10.0.0.2")
IP3 = Ipv4Address.parse("10.0.0.3")

SEC = 1_000_000_000


def make_switch(ioc_port_mode=None) -> CSwitch:
    ports = [
        PortConfig(0, CAN_XL, egress_priority_base=0x700),
        PortConfig(1, ETH),
        PortConfig(2, ETH),
    ]
    if ioc_port_mode:
        ports[0] = PortConfig(0, CAN_XL, egress_mode=ioc_port_mode,
                              egress_priority_base=0x700)
    return CSwitch("sw", bridge_id=1, ports=ports)


def ingest(sw: CSwitch, port: int, frame, now: int):
    """`sw.on_ingress` given the frame decoded as the simulation decodes it."""
    return sw.on_ingress(port, frame, now, decode(frame))


def arp_request(sha, spa, tpa) -> EthernetFrame:
    return arp_serialize(ArpMessage(ArpOp.REQUEST, sha, spa, ZERO_MAC, tpa))


def ipv4_eth(da, sa, src, dst, payload=bytes(44)) -> EthernetFrame:
    return EthernetFrame(da, sa, 0x0800, Ipv4Datagram(src, dst, payload).to_bytes())


class TestLearning:
    def test_arp_snooping_creates_joint_entry(self):
        sw = make_switch()
        sw.learn(2, decode(arp_request(M1, IP1, IP2)), now=0)
        assert sw.efdb.lookup_mac(M1, 0).port == 2
        entry = sw.efdb.lookup_ip(IP1, 0)
        assert entry.port == 2 and entry.mac == M1

    def test_ioc_learning_is_ip_only(self):
        sw = make_switch()
        sw.learn(4 % 3, decode(IocDatagram(IP3, IP1, bytes(44))), now=0)
        entry = sw.efdb.lookup_ip(IP3, 0)
        assert entry.mac is None and entry.port == 1

    def test_plain_ipv4_learns_jointly(self):
        sw = make_switch()
        sw.learn(1, decode(ipv4_eth(M1, M2, IP2, IP1)), now=0)
        entry = sw.efdb.lookup_ip(IP2, 0)
        assert entry.mac == M2 and entry.port == 1
        assert sw.efdb.lookup_mac(M2, 0) is entry

    def test_ioc_never_erases_known_mac(self):
        sw = make_switch()
        sw.learn(0, decode(arp_request(M1, IP1, IP2)), now=0)
        sw.learn(0, decode(IocDatagram(IP1, IP2, bytes(44))), now=5)
        entry = sw.efdb.lookup_ip(IP1, 5)
        assert entry.mac == M1 and entry.last_seen == 5

    def test_later_learning_overwrites_port(self):
        sw = make_switch()
        sw.learn(0, decode(arp_request(M1, IP1, IP2)), now=0)
        sw.learn(1, decode(arp_request(M1, IP1, IP2)), now=1)
        assert sw.efdb.lookup_mac(M1, 1).port == 1

    def test_joint_entry_listed_once(self):
        sw = make_switch()
        sw.learn(0, decode(arp_request(M1, IP1, IP2)), now=0)
        sw.efdb.learn_ip(IP2, 1, now=0)
        assert [(e.mac, e.ip) for e in sw.efdb.entries()] == [(M1, IP1), (None, IP2)]

    def test_ip_can_move_to_another_mac(self):
        sw = make_switch()
        sw.learn(0, decode(arp_request(M1, IP1, IP2)), now=0)
        sw.learn(1, decode(arp_request(M2, IP1, IP2)), now=1)
        entry = sw.efdb.lookup_ip(IP1, 1)
        assert entry.mac == M2 and entry.port == 1
        assert sw.efdb.lookup_mac(M1, 1).ip is None

    def test_a_new_ip_for_a_mac_forgets_the_old_one(self):
        efdb = Efdb()
        efdb.learn_joint(M1, IP1, 0, now=0)
        efdb.learn_joint(M1, IP2, 1, now=1)
        assert efdb.lookup_ip(IP1, 1) is None
        entry = efdb.lookup_ip(IP2, 1)
        assert (entry.mac, entry.port) == (M1, 1)
        assert efdb.lookup_mac(M1, 1) is entry


class TestAgeing:
    def test_refresh_survives(self):
        efdb = Efdb(ageing_s=300)
        efdb.learn_mac(M1, 0, now=0)
        efdb.learn_mac(M1, 0, now=200 * SEC)
        assert efdb.lookup_mac(M1, 400 * SEC).port == 0

    def test_stale_lookup_is_a_miss_without_age_out(self):
        efdb = Efdb(ageing_s=300)
        efdb.learn_mac(M1, 0, now=0)
        assert efdb.lookup_mac(M1, 301 * SEC) is None

    def test_fresh_at_the_ageing_time_and_stale_one_nanosecond_later(self):
        efdb = Efdb(ageing_s=300)
        efdb.learn_joint(M1, IP1, 0, now=7)
        assert efdb.lookup_mac(M1, 7 + 300 * SEC).port == 0
        assert efdb.lookup_ip(IP1, 7 + 300 * SEC).port == 0
        assert efdb.lookup_mac(M1, 7 + 300 * SEC + 1) is None
        assert efdb.lookup_ip(IP1, 7 + 300 * SEC + 1) is None

    def test_empty(self):
        assert not Efdb().entries()

    @pytest.mark.parametrize("ageing_s", [float("inf"), float("nan"), -1])
    def test_ageing_time_is_finite_and_non_negative(self, ageing_s):
        with pytest.raises(ValueError,
                           match=r"ageing time must be at least 0 and below about 1\.8e299 seconds"):
            Efdb(ageing_s)


class TestForwarding:
    def test_unknown_unicast_floods(self):
        sw = make_switch()
        out = ingest(sw, 1, ipv4_eth(M3, M1, IP1, IP3), now=0)
        assert [port for port, _, _ in out] == [0, 2]
        assert sw.counters["flooded"] == 1
        # the CAN copy is tunneled, the Ethernet copy is untouched
        assert out[0][1].sdt == frames.SDT_ETHERNET
        assert isinstance(out[1][1], EthernetFrame)

    def test_known_unicast_single_port(self):
        sw = make_switch()
        ingest(sw, 2, ipv4_eth(BROADCAST_MAC, M3, IP3, IP1), now=0)
        out = ingest(sw, 1, ipv4_eth(M3, M1, IP1, IP3), now=1)
        assert [port for port, _, _ in out] == [2]
        assert sw.counters["forwarded"] == 1

    def test_destination_on_ingress_segment_confined(self):
        sw = make_switch()
        ingest(sw, 1, ipv4_eth(BROADCAST_MAC, M3, IP3, IP1), now=0)
        out = ingest(sw, 1, ipv4_eth(M3, M1, IP1, IP3), now=1)
        assert out == []
        assert sw.counters["no_route_self"] == 1

    def test_known_destination_behind_a_blocked_port_is_dropped(self):
        sw = make_switch()
        drops = []
        sw.drop_hook = lambda frame, reason, where, rx: drops.append((frame, reason, where))
        ingest(sw, 2, ipv4_eth(BROADCAST_MAC, M3, IP3, IP1), now=0)
        sw.port_state[2].role = ROLE_BLOCKED
        frame = ipv4_eth(M3, M1, IP1, IP3)
        assert ingest(sw, 1, frame, now=1) == []
        assert sw.counters["stp_blocked"] == 1
        assert drops == [(frame, "stp_blocked", "sw")]

    def test_group_da_floods(self):
        sw = make_switch()
        out = ingest(sw, 1, EthernetFrame(BROADCAST_MAC, M1, 0x88B6, bytes(46)), now=0)
        assert [port for port, _, _ in out] == [0, 2]

    def test_flood_never_echoes_to_ingress(self):
        sw = make_switch()
        for ingress in sw.ports:
            frame = EthernetFrame(BROADCAST_MAC, M1, 0x88B6, bytes(46))
            if sw.ports[ingress].kind == CAN_XL:
                frame = eoc_encapsulate(frame, 0x100)
            out = ingest(sw, ingress, frame, now=0)
            assert ingress not in [port for port, _, _ in out]


class TestUnatReconstruction:
    def prime(self, sw):
        # ARP snooping fills the extended database for both endpoints.
        ingest(sw, 0, eoc_encapsulate(arp_request(M1, IP1, IP2), 0x100), now=0)
        ingest(sw, 1, arp_serialize(ArpMessage(ArpOp.REPLY, M2, IP2, M1, IP1)), now=1)

    def test_ioc_to_ethernet_uses_learned_macs(self):
        sw = make_switch()
        self.prime(sw)
        frame = ioc_encode(IocDatagram(IP1, IP2, bytes(44)), 0x100)
        out = ingest(sw, 0, frame, now=2)
        assert len(out) == 1
        port, eth, _ = out[0]
        assert port == 1
        assert isinstance(eth, EthernetFrame)
        assert eth.da == M2 and eth.sa == M1
        parsed = Ipv4Datagram.from_bytes(eth.payload)  # checksum verified inside
        assert parsed.dst_ip == IP2

    def test_unknown_macs_drop_with_counter(self):
        sw = make_switch()
        frame = ioc_encode(IocDatagram(IP1, IP2, bytes(44)), 0x100)
        out = ingest(sw, 0, frame, now=0)
        assert out == []
        assert sw.counters["reconstruction_failure"] >= 1

    def test_ip_only_entry_cannot_serve_ethernet_egress(self):
        sw = make_switch()
        self.prime(sw)
        # a third, IoC-only station: IP index knows it, MAC is absent
        ingest(sw, 0, ioc_encode(IocDatagram(IP3, IP2, bytes(44)), 0x101), now=2)
        frame = ioc_encode(IocDatagram(IP1, IP3, bytes(44)), 0x100)
        before = sw.counters["reconstruction_failure"]
        out = ingest(sw, 1, ipv4_eth(M3, M2, IP2, IP3), now=3)
        out = ingest(sw, 0, frame, now=4)
        assert out == []
        assert sw.counters["no_route_self"] == 1  # IP3 lives on port 0

    def test_ethernet_to_ioc_on_preferred_port(self):
        sw = make_switch(ioc_port_mode=EGRESS_IOC_PREFERRED)
        self.prime(sw)
        out = ingest(sw, 1, ipv4_eth(M1, M2, IP2, IP1), now=2)
        assert len(out) == 1
        port, frame, _ = out[0]
        assert port == 0
        assert frame.sdt == frames.SDT_IPV4
        assert frame.af == IP1.to_u32()
        assert frame.priority == 0x700

    def test_arp_stays_tunneled_on_preferred_port(self):
        sw = make_switch(ioc_port_mode=EGRESS_IOC_PREFERRED)
        self.prime(sw)
        out = ingest(sw, 1, arp_serialize(ArpMessage(ArpOp.REPLY, M2, IP2, M1, IP1)), now=2)
        assert out[0][1].sdt == frames.SDT_ETHERNET

    def test_ioc_stays_compact_between_preferred_can_ports(self):
        ports = [
            PortConfig(0, CAN_XL, egress_mode=EGRESS_IOC_PREFERRED, egress_priority_base=0x700),
            PortConfig(1, CAN_XL, egress_mode=EGRESS_IOC_PREFERRED, egress_priority_base=0x701),
        ]
        sw = CSwitch("sw", 1, ports)
        out = ingest(sw, 0, ioc_encode(IocDatagram(IP1, IP2, bytes(44)), 0x100), now=0)
        assert [port for port, _, _ in out] == [1]
        assert out[0][1].sdt == frames.SDT_IPV4

    def test_compact_frame_of_another_version_is_dropped(self):
        # its header decodes to no datagram, so nothing is compacted again
        ports = [PortConfig(0, CAN_XL, egress_mode=EGRESS_IOC_PREFERRED),
                 PortConfig(1, CAN_XL, egress_mode=EGRESS_IOC_PREFERRED)]
        sw = CSwitch("sw", 1, ports)
        frame = ioc_encode(IocDatagram(IP1, IP2, bytes(44)), 0x100)
        v6 = dataclasses.replace(frame, data=b"\x60" + frame.data[1:])
        assert ingest(sw, 0, v6, now=0) == []


class TestLegacyRelay:
    def test_rule_applies_with_remap(self):
        rule = LegacyRelayRule(0, 0x100, ((1, 0x200),))
        sw = CSwitch("sw", 1, [PortConfig(0, CAN_XL), PortConfig(1, CAN_XL,
                     egress_priority_base=0x701)], legacy_rules=[rule])
        frame = frames.ClassicCanFrame(0x100, b"\x01\x02")
        out = sw.relay_legacy(0, frame, decode(frame))
        assert out == [(1, frames.ClassicCanFrame(0x200, b"\x01\x02"), decode(frame))]

    def test_unmatched_dropped_silently(self):
        rule = LegacyRelayRule(0, 0x100, ((1, 0x200),))
        sw = CSwitch("sw", 1, [PortConfig(0, CAN_XL), PortConfig(1, CAN_XL,
                     egress_priority_base=0x701)], legacy_rules=[rule])
        frame = frames.ClassicCanFrame(0x101, b"")
        assert sw.relay_legacy(0, frame, decode(frame)) == []

    def test_fan_out_preserves_payload(self):
        rule = LegacyRelayRule(0, 0x100, ((1, 0x200), (2, 0x300)))
        sw = CSwitch("sw", 1, [
            PortConfig(0, CAN_XL),
            PortConfig(1, CAN_XL, egress_priority_base=0x701),
            PortConfig(2, CAN_XL, egress_priority_base=0x702),
        ], legacy_rules=[rule])
        payload = bytes(range(8))
        frame = frames.ClassicCanFrame(0x100, payload)
        out = sw.relay_legacy(0, frame, decode(frame))
        assert [(p, f.id) for p, f, _ in out] == [(1, 0x200), (2, 0x300)]
        assert all(f.data == payload for _, f, _ in out)

    def test_no_learning_or_flooding(self):
        sw = CSwitch("sw", 1, [PortConfig(0, CAN_XL), PortConfig(1, CAN_XL,
                     egress_priority_base=0x701)])
        assert ingest(sw, 0, frames.ClassicCanFrame(0x123, b"\x00"), now=0) == []
        assert not sw.efdb.entries()

    def test_remap_range_validated(self):
        with pytest.raises(ValueError):
            LegacyRelayRule(0, 0x100, ((1, 0x900),))

    def test_egress_must_differ(self):
        with pytest.raises(ValueError):
            LegacyRelayRule(0, 0x100, ((0, 0x200),))


def feed_bpdu(sw, port, other):
    frame = bpdu_serialize(Bpdu(other.root_id, other.root_cost, other.bridge_id), other.mac)
    return sw.stp_step(port, decode(frame))


class TestSpanningTree:
    def test_single_switch_all_designated(self):
        sw = make_switch()
        sw.hello()
        assert all(st == ROLE_DESIGNATED
                   for st in (ps.role for ps in sw.port_state.values()))

    def test_parallel_links_block_one_port(self):
        a = CSwitch("a", 1, [PortConfig(0, ETH), PortConfig(1, ETH)])
        b = CSwitch("b", 2, [PortConfig(0, ETH), PortConfig(1, ETH)])
        # b hears a's hello on both parallel links
        feed_bpdu(b, 0, a)
        feed_bpdu(b, 1, a)
        roles = [b.port_state[i].role for i in (0, 1)]
        assert roles == [ROLE_ROOT, ROLE_BLOCKED]
        # a hears b's (worse) claims and stays designated everywhere
        feed_bpdu(a, 0, b)
        feed_bpdu(a, 1, b)
        assert all(ps.role == ROLE_DESIGNATED for ps in a.port_state.values())

    def test_lowest_bridge_id_wins(self):
        a = CSwitch("a", 5, [PortConfig(0, ETH)])
        b = CSwitch("b", 2, [PortConfig(0, ETH)])
        feed_bpdu(a, 0, b)
        assert a.root_id == 2
        assert a.port_state[0].role == ROLE_ROOT

    def test_bpdu_travels_tunneled_on_can_ports(self):
        sw = make_switch()
        out = sw.hello()
        by_port = {port: frame for port, frame, _ in out}
        assert by_port[0].sdt == frames.SDT_ETHERNET
        inner = frames.eoc_decapsulate(by_port[0])
        assert inner.da == frames.STP_GROUP_MAC
        assert bpdu_parse(inner) == (1, 0, 1)
        assert isinstance(by_port[1], EthernetFrame)

    def test_malformed_bpdu_counted(self):
        sw = make_switch()
        bogus = EthernetFrame(frames.STP_GROUP_MAC, M1, frames.ETHERTYPE_BPDU,
                              b"JUNK" + bytes(42))
        ingest(sw, 1, bogus, now=0)
        assert sw.counters["bpdu_malformed"] == 1

    def test_wrong_ethertype_on_stp_group_counted(self):
        sw = make_switch()
        bogus = EthernetFrame(frames.STP_GROUP_MAC, M1, 0x88B6, bytes(46))
        ingest(sw, 1, bogus, now=0)
        assert sw.counters["bpdu_malformed"] == 1

    def test_data_dropped_on_blocked_ingress(self):
        sw = make_switch()
        sw.port_state[1].role = ROLE_BLOCKED
        out = ingest(sw, 1, ipv4_eth(M3, M1, IP1, IP3), now=0)
        assert out == []
        assert sw.counters["stp_blocked"] == 1

    def test_no_egress_on_blocked_port(self):
        sw = make_switch()
        sw.port_state[2].role = ROLE_BLOCKED
        out = ingest(sw, 1, EthernetFrame(BROADCAST_MAC, M1, 0x88B6, bytes(46)), now=0)
        assert [port for port, _, _ in out] == [0]

    def test_each_bridge_relays_the_roots_later_hellos(self):
        # sw1.p0 - sw2.p0, sw2.p1 - sw3.p0, sw3.p1 - h, all links; sw1 is
        # the root.  At the second hello tick only the root's timer sends,
        # and each other bridge relays what its root port hears.
        topo = Topology(RunOptions(t_end=(HELLO_INTERVAL_NS + 10**6) / 1e9,
                                   startup_gratuitous_arp=False))
        topo.add_switch(CSwitch("sw1", 1, [PortConfig(0, ETH)]))
        for n in (2, 3):
            topo.add_switch(CSwitch(f"sw{n}", n, [PortConfig(0, ETH), PortConfig(1, ETH)]))
        topo.add_node(EthernetHost("h", M1, IP1))
        for link in ("l1", "l2", "l3"):
            topo.add_link(link, EthernetTimingParams(100e6))
        topo.attach_switch_port("sw1", 0, "l1")
        topo.attach_switch_port("sw2", 0, "l1")
        topo.attach_switch_port("sw2", 1, "l2")
        topo.attach_switch_port("sw3", 0, "l2")
        topo.attach_switch_port("sw3", 1, "l3")
        topo.attach_node("h", "l3")
        trace, report = Simulation(topo).run()
        later = collections.Counter(
            r["source"] for r in map(json.loads, trace.splitlines())
            if r["event"] == "tx_start" and r["t_ns"] >= HELLO_INTERVAL_NS
            and r["frame"]["da"] == str(frames.STP_GROUP_MAC))
        assert later == {"sw1.p0": 1, "sw2.p1": 1, "sw3.p1": 1}
        assert [report["switches"][n]["stp"]["ports"] for n in ("sw2", "sw3")] == \
            [{"0": ROLE_ROOT, "1": ROLE_DESIGNATED}] * 2
        assert [topo.switches[n].hello() for n in ("sw2", "sw3")] == [[], []]

    def test_the_order_ports_are_listed_in_changes_nothing(self):
        # A switch walks its ports by index, for floods and for BPDUs alike.
        doc = yaml.safe_load((SCENARIOS / "stp_triangle.yaml").read_text())
        listed = Simulation(build_topology(copy.deepcopy(doc))).run()
        for sw in doc["switches"]:
            sw["ports"].reverse()
        assert Simulation(build_topology(doc)).run() == listed


def test_duplicate_port_indices_rejected():
    with pytest.raises(ValueError):
        CSwitch("sw", 1, [PortConfig(0, ETH), PortConfig(0, ETH)])


@pytest.mark.parametrize("kind, egress_mode, message", [
    ("token-ring", "eoc", "unknown port kind 'token-ring'"),
    (CAN_XL, "ioc", "unknown egress mode 'ioc'"),
])
def test_unknown_port_kind_or_egress_mode_rejected(kind, egress_mode, message):
    # config checks both first; these guard topologies built in code
    with pytest.raises(ValueError) as exc:
        PortConfig(0, kind, egress_mode=egress_mode)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
