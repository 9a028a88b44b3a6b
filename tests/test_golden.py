"""Byte-identity of simulator output.

Every bundled scenario and both synthetic benchmark workloads (at their
recorded seed) must reproduce the SHA-256 of trace and report recorded
in `perfbench/digests.json`, both as the text `Simulation.run()` returns
and as the files `canxlnet simulate` writes.  A change meant to alter
simulator output re-records them with `python3 perfbench/record_digests.py`.
"""

import hashlib
import json

import pytest

from canxlnet.cli import main
from canxlnet.config import load_config
from canxlnet.engine import Simulation

from conftest import DIGESTS, SCENARIOS, all_scenarios, workload_yaml, workloads


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


@pytest.fixture(params=[p.stem for p in all_scenarios()] + sorted(workloads.GENERATORS))
def recorded(request, tmp_path):
    """(configuration file, recorded trace and report digests) of each
    bundled scenario and of each workload at its recorded seed."""
    name = request.param
    if name not in workloads.GENERATORS:
        return SCENARIOS / f"{name}.yaml", DIGESTS["scenarios"][name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(workload_yaml(name))
    return config, [DIGESTS[name]["trace"], DIGESTS[name]["report"]]


def test_simulate_writes_the_recorded_files(recorded, tmp_path):
    config, expected = recorded
    trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
    assert main(["simulate", str(config), "--trace", str(trace), "--report", str(report)]) == 0
    assert [sha256(trace.read_text()), sha256(report.read_text())] == expected


class Recording:
    """A text file that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_a_trace_file_is_written_whole_lines_at_a_time(recorded):
    config, _ = recorded
    file = Recording()
    trace, report = Simulation(load_config(str(config))).run(file)
    assert trace == ""
    assert file.writes and all(text.endswith("\n") for text in file.writes)
    assert ("".join(file.writes), report) == Simulation(load_config(str(config))).run()
