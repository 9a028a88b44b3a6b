"""Byte-identity of simulator output.

Every bundled scenario and both synthetic benchmark workloads (at their
recorded seed) must reproduce the SHA-256 of trace and report recorded
in `perfbench/digests.json`.  A change meant to alter simulator output
re-records them with `python3 perfbench/record_digests.py`.
"""

import hashlib
import json

import pytest

from canxlnet.config import load_config
from canxlnet.engine import Simulation

from conftest import DIGESTS, all_scenarios, workload_yaml, workloads


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(path) -> list[str]:
    trace, report = Simulation(load_config(str(path))).run()
    return [sha256(trace), sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")]


@pytest.mark.parametrize("path", all_scenarios(), ids=lambda p: p.stem)
def test_scenario_output_unchanged(path):
    assert digests(path) == DIGESTS["scenarios"][path.stem]


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workload_output_unchanged(name, tmp_path):
    recorded = DIGESTS[name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(workload_yaml(name))
    assert digests(config) == [recorded["trace"], recorded["report"]]
