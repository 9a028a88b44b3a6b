"""Seeded workload generators.

Each synthetic workload is a configuration document (the dict that
`canxlnet.config.build_topology` accepts, written to disk as YAML).  The
seed picks destinations, start offsets, payload sizes and priorities; the
amount of work (flows, datagrams, bytes) is fixed, so run time moves
little from seed to seed.  Flows are open-loop periodic schedules.
"""

from __future__ import annotations

import pathlib
import random

WORKLOADS = ("bus_crowd", "switched_fabric", "scenarios")

# bus_crowd: the paper's comparison point (64-byte datagrams, 44 B payload)
# at about 74 % load on one 1 Mb/s / 16 Mb/s bus.
CROWD_STATIONS = 32
CROWD_SENDS = 16
CROWD_PERIOD_S = 0.0035
CROWD_PAYLOAD = 44

# switched_fabric: 4 switches, each with a 3-station bus and one host.
FABRIC_SWITCHES = 4
FABRIC_PAYLOADS = (44, 236, 492, 1004, 1452)
FABRIC_SENDS = 8
FABRIC_PERIOD_S = 0.030
FABRIC_LINK_BPS = 100_000_000

ARB_BPS = 1_000_000
DATA_BPS = 16_000_000
T_END_MARGIN_S = 0.02


def _mac(i: int) -> str:
    return f"02:00:00:00:{i >> 8:02x}:{i & 0xFF:02x}"


def _ip(i: int) -> str:
    return f"10.0.{i >> 8}.{i & 0xFF}"


def _flow(name: str, source: str, dst_ip: str, payload: int,
          start: float, period: float, count: int) -> dict:
    return {"name": name, "source": source, "transport": "ipv4", "dst_ip": dst_ip,
            "payload_size": payload,
            "schedule": {"start": start, "period": period, "count": count}}


def bus_crowd(seed: int) -> dict:
    """One CAN XL bus, 32 stations (16 EoC, 16 IoC), no switch; every
    station sends one periodic flow to a random other station."""
    rng = random.Random(seed)
    priorities = rng.sample(range(0x100, 0x200), CROWD_STATIONS)
    names = [f"s{i:02d}" for i in range(CROWD_STATIONS)]
    nodes = [{"name": name, "kind": "eoc" if i % 2 == 0 else "ioc",
              "mac": _mac(i + 1), "ip": _ip(i + 1), "can_priority": priorities[i]}
             for i, name in enumerate(names)]
    flows = []
    for i, name in enumerate(names):
        dst = rng.choice([j for j in range(CROWD_STATIONS) if j != i])
        start = round(rng.uniform(0, CROWD_PERIOD_S), 6)
        flows.append(_flow(f"f{i:02d}", name, _ip(dst + 1), CROWD_PAYLOAD,
                           start, CROWD_PERIOD_S, CROWD_SENDS))
    t_end = CROWD_PERIOD_S * (CROWD_SENDS + 1) + T_END_MARGIN_S
    return {
        "nodes": nodes,
        "buses": [{"name": "bus", "arb_bitrate": ARB_BPS, "data_bitrate": DATA_BPS,
                   "stations": names}],
        "flows": flows,
        "run": {"t_end": round(t_end, 6), "seed": seed},
    }


def switched_fabric(seed: int) -> dict:
    """Four C-switches in a ring: three 100 Mb/s links and one CAN XL bus
    hop (so BPDUs and CAN-to-CAN traffic are tunneled).  Each switch has a
    3-station CAN XL bus and one Ethernet host; every endpoint sends one
    flow per payload size to random endpoints behind other switches."""
    rng = random.Random(seed)
    nodes, buses, links, switches = [], [], [], []
    endpoints: list[tuple[str, int, str]] = []  # (name, switch index, ip)
    priorities = rng.sample(range(0x100, 0x200), 3 * FABRIC_SWITCHES)
    addr = 1
    for s in range(FABRIC_SWITCHES):
        sw = f"sw{s + 1}"
        bus_members = []
        for k in range(3):
            name = f"n{s + 1}{k}"
            kind = "ioc" if (s + k) % 2 else "eoc"
            nodes.append({"name": name, "kind": kind, "mac": _mac(addr), "ip": _ip(addr),
                          "can_priority": priorities[3 * s + k]})
            endpoints.append((name, s, _ip(addr)))
            bus_members.append(name)
            addr += 1
        host = f"h{s + 1}"
        nodes.append({"name": host, "kind": "ethernet-host", "mac": _mac(addr), "ip": _ip(addr)})
        endpoints.append((host, s, _ip(addr)))
        addr += 1
        buses.append({"name": f"bus{s + 1}", "arb_bitrate": ARB_BPS, "data_bitrate": DATA_BPS,
                      "stations": bus_members + [f"{sw}.p2"]})
        links.append({"name": f"link_{host}", "bitrate": FABRIC_LINK_BPS,
                      "endpoints": [f"{sw}.p3", host]})
        ring_out = "can" if s == FABRIC_SWITCHES - 1 else "ethernet"
        ring_in = "can" if s == 0 else "ethernet"
        switches.append({"name": sw, "bridge_id": s + 1, "ports": [
            _port(0, ring_out, "eoc", 0x700 + 2 * s),
            _port(1, ring_in, "eoc", 0x701 + 2 * s),
            _port(2, "can", "ioc-preferred" if s % 2 else "eoc", 0x710 + s),
            {"index": 3, "kind": "ethernet"},
        ]})
    for s in range(FABRIC_SWITCHES):
        nxt = (s + 1) % FABRIC_SWITCHES
        ends = [f"sw{s + 1}.p0", f"sw{nxt + 1}.p1"]
        if s == FABRIC_SWITCHES - 1:
            buses.append({"name": "ring_bus", "arb_bitrate": ARB_BPS,
                          "data_bitrate": DATA_BPS, "stations": ends})
        else:
            links.append({"name": f"ring{s + 1}{nxt + 1}", "bitrate": FABRIC_LINK_BPS,
                          "endpoints": ends})

    # Every payload size appears equally often; the seed decides which
    # flow gets which size, so the byte volume is the same for all seeds.
    sizes = [size for size in FABRIC_PAYLOADS for _ in endpoints]
    rng.shuffle(sizes)
    flows = []
    for e, (name, s, _ip_addr) in enumerate(endpoints):
        remote = [ep for ep in endpoints if ep[1] != s]
        for k in range(len(FABRIC_PAYLOADS)):
            dst = rng.choice(remote)
            start = round(rng.uniform(0, FABRIC_PERIOD_S), 6)
            flows.append(_flow(f"f{e:02d}_{k}", name, dst[2], sizes.pop(),
                               start, FABRIC_PERIOD_S, FABRIC_SENDS))
    t_end = FABRIC_PERIOD_S * (FABRIC_SENDS + 1) + T_END_MARGIN_S
    return {"nodes": nodes, "buses": buses, "links": links, "switches": switches,
            "flows": flows, "run": {"t_end": round(t_end, 6), "seed": seed}}


def _port(index: int, kind: str, egress_mode: str, priority: int) -> dict:
    if kind == "ethernet":
        return {"index": index, "kind": kind}
    return {"index": index, "kind": kind, "egress_mode": egress_mode,
            "egress_priority_base": priority}


def scenario_files(root: pathlib.Path, seed: int) -> list[pathlib.Path]:
    """The bundled scenarios, in an order the seed shuffles."""
    paths = sorted((root / "scenarios").glob("*.yaml"))
    random.Random(seed).shuffle(paths)
    return paths


GENERATORS = {"bus_crowd": bus_crowd, "switched_fabric": switched_fabric}
