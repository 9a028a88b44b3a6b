"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest verdicts)."""

import functools
import json
import random
import time

from canxlnet import frames
from canxlnet.config import load_config
from canxlnet.engine import Simulation
from canxlnet.frames import (
    ArpMessage,
    ArpOp,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    IocDatagram,
    MacAddress,
    ZERO_MAC,
    arp_parse,
    arp_serialize,
    eoc_decapsulate,
    eoc_encapsulate,
    ethernet_to_ioc,
    ioc_decapsulate,
    ioc_encode,
    ioc_to_ethernet,
)
from canxlnet.timing import (
    CanXlTimingParams,
    EthernetTimingParams,
    canxl_duration,
    comparison_table,
    ethernet_duration,
    throughput_gain,
    to_ns,
)

from conftest import SCENARIOS, all_scenarios


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS: {title}")
        return wrapper
    return deco


def run_scenario(name):
    return Simulation(load_config(str(SCENARIOS / f"{name}.yaml"))).run()


def records(trace, event):
    return [r for r in map(json.loads, trace.splitlines()) if r["event"] == event]


def rand_mac(rng):
    return MacAddress(bytes([rng.randrange(256) & 0xFE]) + rng.randbytes(5))


def rand_ip(rng):
    return Ipv4Address(rng.randbytes(4))


@criterion(1, "timing reproduction within stated tolerances, runtime < 1 s")
def test_timing_reproduction():
    t0 = time.perf_counter()
    rows = {r["label"]: r for r in comparison_table()}
    for label, bound in [
        ("EoC 64 B datagram @ 500 kb/s", 0.06),
        ("EoC 64 B datagram @ 1 Mb/s", 0.06),
        ("IoC 64 B datagram @ 500 kb/s", 0.06),
        ("IoC 64 B datagram @ 1 Mb/s", 0.06),
        ("CAN XL 2048 B @ 500 kb/s", 0.06),
        ("classic CAN blocking @ 500 kb/s", 0.02),
    ]:
        assert abs(rows[label]["deviation"]) < bound, label
    eth = rows["Ethernet 64 B @ 10 Mb/s"]
    assert eth["model_s"] == 72e-6 == eth["published_s"]
    assert ethernet_duration(64, EthernetTimingParams(10e6)) == 72e-6
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "throughput gains within 1.5 points of 14% and 20%")
def test_throughput_gains():
    assert abs(throughput_gain(78, 52, CanXlTimingParams(500e3, 16e6)) - 0.14) <= 0.015
    assert abs(throughput_gain(78, 52, CanXlTimingParams(1e6, 16e6)) - 0.20) <= 0.015


@criterion(3, "tunneled-minus-streamlined wire size is exactly 26 B (1000 random datagrams)")
def test_size_delta():
    rng = random.Random(3)
    for _ in range(1000):
        dgram = Ipv4Datagram(
            rand_ip(rng), rand_ip(rng),
            rng.randbytes(rng.randint(26, 1480)),
            dscp_ecn=rng.randrange(256), ttl=rng.randint(1, 255),
            protocol=rng.randrange(256),
        )
        eoc = eoc_encapsulate(
            EthernetFrame(rand_mac(rng), rand_mac(rng), 0x0800, dgram.to_bytes()), 0)
        ioc = ioc_encode(IocDatagram.from_ipv4(dgram), 0)
        assert len(eoc.data) - len(ioc.data) == 26


@criterion(4, "codec round-trip identity, 1000 random cases per codec")
def test_codec_round_trips():
    rng = random.Random(4)
    for _ in range(1000):
        eth = EthernetFrame(rand_mac(rng), rand_mac(rng), rng.randrange(0x10000),
                            rng.randbytes(rng.randint(0, 1500)))
        assert eoc_decapsulate(eoc_encapsulate(eth, rng.randrange(2048))) == eth
    for _ in range(1000):
        dgram = IocDatagram(rand_ip(rng), rand_ip(rng),
                            rng.randbytes(rng.randint(0, 2040)),
                            dscp_ecn=rng.randrange(256), ttl=rng.randint(1, 255),
                            protocol=rng.randrange(256))
        assert ioc_decapsulate(ioc_encode(dgram, rng.randrange(2048))) == dgram
    for _ in range(1000):
        kind = rng.randrange(3)
        sha, spa, tha, tpa = rand_mac(rng), rand_ip(rng), rand_mac(rng), rand_ip(rng)
        if kind == 0:
            msg = ArpMessage(ArpOp.REQUEST, sha, spa, ZERO_MAC, tpa)
        elif kind == 1:
            while spa == tpa:
                tpa = rand_ip(rng)
            msg = ArpMessage(ArpOp.REPLY, sha, spa, tha, tpa)
        else:
            msg = ArpMessage(ArpOp.GRATUITOUS_REPLY, sha, spa, tha, spa)
        assert arp_parse(arp_serialize(msg)) == msg
    for _ in range(1000):
        dgram = IocDatagram(rand_ip(rng), rand_ip(rng),
                            rng.randbytes(rng.randint(0, 1480)),
                            dscp_ecn=rng.randrange(256), ttl=rng.randint(1, 255),
                            protocol=rng.randrange(256))
        assert ethernet_to_ioc(ioc_to_ethernet(dgram, rand_mac(rng), rand_mac(rng))) == dgram


@criterion(5, "tunneled-path scenario: flood, unicast reply, unicast data, exact latency")
def test_eoc_baseline_scenario():
    trace, report = run_scenario("eoc_baseline")
    tx = records(trace, "tx_start")

    def eth_tx(ethertype, da=None):
        out = [r for r in tx if r["frame"]["kind"] == "eth"
               and r["frame"]["ethertype"] == ethertype
               and (da is None or r["frame"]["da"] == da)]
        return out

    # (a) the ARP request floods on every forwarding port (both links)
    req = eth_tx("0x0806", da="ff:ff:ff:ff:ff:ff")
    assert {r["location"] for r in req} == {"link1", "link2"}
    # (b) the reply travels unicast, only back towards the requester
    rep = eth_tx("0x0806", da="02:00:00:00:00:01")
    assert [r["location"] for r in rep] == ["link1"]
    # (c) the data frame is unicast on exactly one link
    data = eth_tx("0x0800")
    assert [r["location"] for r in data] == ["link1"]
    assert data[0]["frame"]["da"] == "02:00:00:00:00:02"
    # (d) filtering-database entries exist for both endpoints
    efdb = {e["mac"]: e["port"] for e in report["switches"]["sw1"]["efdb"]}
    assert efdb["02:00:00:00:00:01"] == 0
    assert efdb["02:00:00:00:00:02"] == 1

    flow = report["flows"]["f1"]
    assert flow["delivered"] == 1 and flow["sent"] == 1

    # latency equals the analytic sum of the media durations (integer ns,
    # no queueing: nothing else is on the wire at 1 ms)
    bus, link = CanXlTimingParams(500e3, 16e6), EthernetTimingParams(10e6)
    arp_on_bus = to_ns(canxl_duration(14 + 46, bus))      # 60-byte tunneled ARP
    arp_on_link = to_ns(ethernet_duration(46, link))
    data_on_bus = to_ns(canxl_duration(14 + 64, bus))     # 78-byte tunneled datagram
    data_on_link = to_ns(ethernet_duration(64, link))
    expected = 2 * arp_on_bus + 2 * arp_on_link + data_on_bus + data_on_link
    assert flow["latency_ns"]["min"] == expected


@criterion(6, "streamlined-path scenario: EFDB reconstruction both directions, byte-identical")
def test_ioc_reconstruction_scenario():
    trace, report = run_scenario("ioc_reconstruction")
    for name in ("to_ethernet", "to_can"):
        flow = report["flows"][name]
        assert flow["delivered"] == 1
        assert flow["payload_mismatches"] == 0
    # the Ethernet host parsed a well-formed IPv4 frame (checksum verified
    # during parsing; a bad one would count as an error, not a delivery)
    assert report["nodes"]["h1"]["ipv4_errors"] == 0
    assert report["nodes"]["h1"]["delivered"] == 1
    assert report["nodes"]["n2"]["delivered"] == 1

    # the rebuilt Ethernet frame carries the MACs the switch snooped
    rebuilt = [r for r in records(trace, "tx_start")
               if r.get("flow") == "to_ethernet" and r["frame"]["kind"] == "eth"]
    assert len(rebuilt) == 1
    assert rebuilt[0]["frame"]["da"] == "02:00:00:00:00:02"
    assert rebuilt[0]["frame"]["sa"] == "02:00:00:00:00:01"
    efdb = {e["mac"]: e["ip"] for e in report["switches"]["sw1"]["efdb"]}
    assert efdb["02:00:00:00:00:01"] == "10.0.0.1"
    assert efdb["02:00:00:00:00:02"] == "10.0.0.2"

    # the reverse direction leaves the switch in compact form
    reverse = [r for r in records(trace, "tx_start")
               if r.get("flow") == "to_can" and r["frame"]["kind"] == "canxl"]
    assert len(reverse) == 1
    assert reverse[0]["frame"]["sdt"] == "ipv4"
    assert reverse[0]["frame"]["af"] == "0x0a000001"


@criterion(7, "unknown destinations flood; learned destinations use one egress port")
def test_flooding_and_confinement():
    trace, report = run_scenario("flooding")
    tx = records(trace, "tx_start")

    first = [r for r in tx if r.get("flow") == "before_learning"]
    egress_first = [r for r in first if r["source"].startswith("sw1")]
    assert len(first) > 1                      # frames on the wire: flooded
    assert len(egress_first) == 2              # every forwarding port but ingress
    assert report["flows"]["before_learning"]["delivered"] == 1  # one matching DA

    third = [r for r in tx if r.get("flow") == "after_learning"]
    egress_third = [r for r in third if r["source"].startswith("sw1")]
    assert len(egress_third) == 1              # exactly one egress port
    assert {r["location"] for r in egress_third} == {"link2"}
    assert report["flows"]["after_learning"]["delivered"] == 1


@criterion(8, "equal-priority same-tick contention is recorded and delivers nothing")
def test_priority_clash():
    trace, report = run_scenario("clash")
    assert len(records(trace, "clash")) == 1
    assert report["media"]["bus1"]["clashes"] == 1
    for name in ("f1", "f2"):
        assert report["flows"][name]["delivered"] == 0
        assert report["flows"][name]["drops"] == {"priority_clash": 1}


@criterion(9, "spanning tree: one blocked port, broadcast delivered exactly once per node")
def test_stp_loop_safety():
    trace, report = run_scenario("stp_triangle")
    blocked = [
        (sw, port)
        for sw, r in report["switches"].items()
        for port, role in r["stp"]["ports"].items()
        if role == "blocked"
    ]
    assert len(blocked) == 1
    assert report["nodes"]["n2"]["delivered"] == 1
    assert report["nodes"]["n3"]["delivered"] == 1
    assert report["nodes"]["h1"]["delivered"] == 0  # the sender
    # no storm: the broadcast generates a handful of frames, then stops
    bcast_tx = [r for r in records(trace, "tx_start") if r.get("flow") == "bcast"]
    assert 0 < len(bcast_tx) < 20
    assert all(r["stp"]["root_id"] == 1 for r in report["switches"].values())


@criterion(10, "bit-for-bit deterministic traces for every bundled scenario")
def test_determinism():
    paths = all_scenarios()
    assert len(paths) == 8
    for path in paths:
        first, _ = Simulation(load_config(str(path))).run()
        second, _ = Simulation(load_config(str(path))).run()
        assert first.encode() == second.encode(), path.name


@criterion(11, "gratuitous announcements gate the static-ARP streamlined path")
def test_gratuitous_arp_path():
    _, enabled = run_scenario("static_arp_gratuitous")
    assert enabled["flows"]["f1"]["delivered"] == 1
    assert enabled["switches"]["sw1"]["counters"]["reconstruction_failure"] == 0

    _, disabled = run_scenario("static_arp_no_gratuitous")
    assert disabled["flows"]["f1"]["delivered"] == 0
    assert disabled["switches"]["sw1"]["counters"]["reconstruction_failure"] >= 1
    assert disabled["flows"]["f1"]["drops"] == {"reconstruction_failure": 1}
