"""Invariants of the trace, read from its text alone.

Every `tx_start` has exactly one `tx_complete` of the same transmission
(same `location`, `source`, `frame`, `flow` and `seq`) at `t_ns +
duration_ns`, unless that instant is past `t_end`; no `tx_complete`
lacks its `tx_start`.
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


@pytest.fixture(params=[p.stem for p in all_scenarios()] + sorted(workloads.GENERATORS) + [CUT])
def run(request, tmp_path) -> tuple[str, str, int]:
    """(name, trace, t_end in ns) of a bundled scenario, of a workload at
    seed 1, or of eoc_baseline cut inside a transmission."""
    name = request.param
    path = SCENARIOS / f"{name}.yaml"
    if name in workloads.GENERATORS:
        document = workloads.GENERATORS[name](1)
    elif name == CUT:
        document = yaml.safe_load((SCENARIOS / "eoc_baseline.yaml").read_text())
        document["run"]["t_end"] = CUT_T_END_S
    if not path.exists():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(document, sort_keys=False))
    sim = Simulation(load_config(str(path)))
    trace, _ = sim.run()
    return name, trace, sim.t_end_ns


def test_every_tx_start_has_its_tx_complete(run):
    name, trace, t_end_ns = run
    due, completed, past = transmissions(trace, t_end_ns)
    assert due - completed == Counter(), "a tx_start without its tx_complete"
    assert completed - due == Counter(), "a tx_complete without its tx_start"
    if name == CUT:  # both the rule and its exemption are exercised
        assert due and past
