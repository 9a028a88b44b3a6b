"""Invariants of the trace, read from its text alone.

Every `tx_start` has exactly one `tx_complete` of the same transmission
(same `location`, `source`, `frame`, `flow` and `seq`) at `t_ns +
duration_ns`, unless that instant is past `t_end`; no `tx_complete`
lacks its `tx_start`.

The trace accounts for the report: `replay` rebuilds each flow's and
each medium's figures from the records alone, and they equal
`Simulation.report()`'s.  The report's `payload_mismatches` and its node
and switch counters are not in the trace, so they are not rebuilt.
"""

import json
from collections import Counter

import pytest
import yaml

from canxlnet.config import load_config
from canxlnet.engine import Simulation

from conftest import SCENARIOS, all_scenarios, workloads

TRANSMISSION = ("location", "source", "frame", "flow", "seq")
CUT = "eoc_baseline_cut"
# eoc_baseline's first bus transmission, sw1.p0's BPDU, starts at 0 and
# takes 112,550 ns; its BPDUs on the links end at 57,600 ns, inside the cut.
CUT_T_END_S = 0.0001


def transmissions(trace: str, t_end_ns: int) -> tuple[Counter, Counter, int]:
    """(the completions the `tx_start` records call for, the `tx_complete`
    records written, the transmissions that end past `t_end_ns`); each
    counter maps a transmission and the instant it ends to how often."""
    due, completed, past = Counter(), Counter(), 0
    for record in map(json.loads, trace.splitlines()):
        if record["event"] == "tx_start":
            end = record["t_ns"] + record["duration_ns"]
            if end > t_end_ns:
                past += 1
                continue
            counter = due
        elif record["event"] == "tx_complete":
            end, counter = record["t_ns"], completed
        else:
            continue
        counter[json.dumps([record.get(key) for key in TRANSMISSION] + [end])] += 1
    return due, completed, past


RUNS = [p.stem for p in all_scenarios()] + sorted(workloads.GENERATORS) + [CUT]


def simulated(tmp_path, name: str, seed: int = 1) -> tuple[Simulation, str, dict]:
    """(the simulation, its trace, its report) of a bundled scenario, of a
    workload at `seed`, or of eoc_baseline cut inside a transmission."""
    path = SCENARIOS / f"{name}.yaml"
    if name in workloads.GENERATORS:
        document = workloads.GENERATORS[name](seed)
    elif name == CUT:
        document = yaml.safe_load((SCENARIOS / "eoc_baseline.yaml").read_text())
        document["run"]["t_end"] = CUT_T_END_S
    if not path.exists():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(document, sort_keys=False))
    sim = Simulation(load_config(str(path)))
    return sim, *sim.run()


@pytest.fixture(params=RUNS)
def run(request, tmp_path) -> tuple[str, str, int]:
    """(name, trace, t_end in ns) of one of `RUNS`, a workload at seed 1."""
    sim, trace, _ = simulated(tmp_path, request.param)
    return request.param, trace, sim.t_end_ns


def test_every_tx_start_has_its_tx_complete(run):
    name, trace, t_end_ns = run
    due, completed, past = transmissions(trace, t_end_ns)
    assert due - completed == Counter(), "a tx_start without its tx_complete"
    assert completed - due == Counter(), "a tx_complete without its tx_start"
    if name == CUT:  # both the rule and its exemption are exercised
        assert due and past


def replay(trace: str, t_end_ns: int) -> tuple[dict, dict]:
    """(flows, media): the report's figures that the trace holds, rebuilt
    from its text alone for each flow and medium with a record.

    A flow's are its `app_send` records, the seqs and latencies of its
    `app_deliver` records, and its `drop` records by reason.  A medium's
    are its `clash` records and its busy time over `t_end_ns`: the
    duration of each `tx_start`, clipped at `t_end_ns`, summed for a bus
    (whose frames are CAN) and for each sending station of a link (whose
    frames are Ethernet).  `deliver` records are skipped unread."""
    flows, media = {}, {}
    for line in trace.splitlines():
        if line.startswith('{"event":"deliver",'):  # a record's keys are sorted
            continue
        record = json.loads(line)
        event = record["event"]
        if event in ("app_send", "app_deliver", "drop") and "flow" in record:
            flow = flows.setdefault(record["flow"], {
                "sent": 0, "seqs": set(), "latencies": [], "drops": Counter()})
            if event == "app_send":
                flow["sent"] += 1
            elif event == "app_deliver":
                flow["seqs"].add(record["seq"])
                flow["latencies"].append(record["latency_ns"])
            else:
                flow["drops"][record["reason"]] += 1
        elif event in ("tx_start", "clash"):
            medium = media.setdefault(record["location"], {
                "clashes": 0, "bus": True, "busy": Counter()})  # busy ns by sender
            if event == "clash":
                medium["clashes"] += 1
            else:
                t = record["t_ns"]
                medium["bus"] = record["frame"]["kind"] != "eth"
                medium["busy"][record["source"]] += min(t + record["duration_ns"], t_end_ns) - t

    def counts(flow: dict) -> dict:
        lat = flow["latencies"]
        return {
            "sent": flow["sent"],
            "delivered": len(lat),
            "delivered_unique": len(flow["seqs"]),
            "drops": dict(sorted(flow["drops"].items())),
            "latency_ns": {"min": min(lat), "mean": sum(lat) / len(lat), "max": max(lat)}
            if lat else None,
        }

    def share(busy: int) -> float:
        return busy / t_end_ns if t_end_ns else 0.0

    return {name: counts(flow) for name, flow in flows.items()}, {name: {
        "clashes": medium["clashes"],
        "utilization": share(sum(medium["busy"].values())) if medium["bus"]
        else {sender: share(busy) for sender, busy in medium["busy"].items()},
    } for name, medium in media.items()}


@pytest.fixture(params=RUNS + [pytest.param((name, seed), id=f"{name}-seed{seed}")
                               for name in sorted(workloads.GENERATORS) for seed in (2, 3)])
def replayed(request, tmp_path) -> tuple[Simulation, str, dict]:
    """`simulated` of one of `RUNS`, or of a workload at seed 2 or 3."""
    name, seed = (request.param, 1) if isinstance(request.param, str) else request.param
    return simulated(tmp_path, name, seed)


def test_the_trace_accounts_for_the_report(replayed):
    sim, trace, report = replayed
    flows, media = replay(trace, sim.t_end_ns)
    assert flows.keys() <= report["flows"].keys()
    for name, figures in report["flows"].items():
        del figures["payload_mismatches"]  # not in the trace
        # a flow with no record sent nothing
        assert flows.get(name, {"sent": 0, "delivered": 0, "delivered_unique": 0,
                                "drops": {}, "latency_ns": None}) == figures, name
    assert media.keys() <= report["media"].keys()
    for name, figures in report["media"].items():
        rebuilt = media.get(name, {"clashes": 0, "utilization": 0.0})
        if figures["kind"] == "ethernet-link":
            # each direction's sender found from the link's station order,
            # as a name may hold "->"; a direction with no record sent nothing
            stations = sim.topo.media[name].stations
            senders = media.get(name, {}).get("utilization", {})
            rebuilt["utilization"] = {f"{st.name}->{peer.name}": senders.get(st.name, 0.0)
                                      for st, peer in zip(stations, stations[::-1])}
        assert rebuilt == {"clashes": figures["clashes"],
                           "utilization": figures["utilization"]}, name
