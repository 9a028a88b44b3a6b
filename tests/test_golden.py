"""Byte-identity of simulator output.

Every bundled scenario and both synthetic benchmark workloads (at their
recorded seed) must reproduce the SHA-256 of trace and report recorded
in `perfbench/digests.json`.  A change meant to alter simulator output
re-records them with `python3 perfbench/record_digests.py`.
"""

import hashlib
import importlib.util
import json

import pytest
import yaml

from canxlnet.config import load_config
from canxlnet.engine import Simulation

from conftest import REPO_ROOT, all_scenarios

PERFBENCH = REPO_ROOT / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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
    config.write_text(yaml.safe_dump(workloads.GENERATORS[name](recorded["seed"]),
                                     sort_keys=False))
    assert digests(config) == [recorded["trace"], recorded["report"]]
