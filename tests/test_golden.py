"""Byte-identity of simulator output.

Every bundled scenario must reproduce its trace and report as committed
in `tests/golden/`, text that a reviewer reads in a diff, and those
files must hash to the SHA-256 recorded in `perfbench/digests.json`.
Both synthetic benchmark workloads (at their recorded seed) must
reproduce their recorded digests, both as the text `Simulation.run()`
returns and as the files `canxlnet simulate` writes.  A change meant to
alter simulator output re-records the digests with
`python3 perfbench/record_digests.py` and the goldens with
`python scripts/run_all_scenarios.py`, copying `out/` to `tests/golden/`.
"""

import hashlib
import json
import pathlib

import pytest

from canxlnet.cli import main
from canxlnet.config import load_config
from canxlnet.engine import Simulation

from conftest import DIGESTS, SCENARIOS, all_scenarios, workload_yaml, workloads

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(path) -> list[str]:
    """The trace and the report text of a run of configuration `path`, as
    `scripts/run_all_scenarios.py` writes them."""
    trace, report = Simulation(load_config(str(path))).run()
    return [trace, json.dumps(report, indent=2, sort_keys=True) + "\n"]


def goldens(stem: str) -> list[pathlib.Path]:
    return [GOLDEN / f"{stem}.trace.jsonl", GOLDEN / f"{stem}.report.json"]


def first_difference(got: str, expected: str) -> str:
    """The number of the first line where text `got` departs from
    `expected`, and that line in each."""
    got, expected = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    n = next((n for n, (line, golden) in enumerate(zip(got, expected)) if line != golden),
             min(len(got), len(expected)))
    end = ["(end of file)"]
    return f"line {n + 1}\n  golden: {(expected + end)[n]!r}\n  run:    {(got + end)[n]!r}"


@pytest.mark.parametrize("path", all_scenarios(), ids=lambda p: p.stem)
def test_scenario_output_unchanged(path):
    for text, golden in zip(outputs(path), goldens(path.stem)):
        expected = golden.read_bytes().decode()
        if text != expected:
            pytest.fail(f"{golden.name} differs first at {first_difference(text, expected)}")


def test_a_mismatch_names_the_first_line_that_differs():
    assert first_difference("a\nb\nc\n", "a\nB\nc\n") == \
        "line 2\n  golden: 'B\\n'\n  run:    'b\\n'"
    assert first_difference("a\n", "a\nb\n") == \
        "line 2\n  golden: 'b\\n'\n  run:    '(end of file)'"
    assert first_difference("a", "a\n") == "line 1\n  golden: 'a\\n'\n  run:    'a'"


@pytest.mark.parametrize("stem", sorted(DIGESTS["scenarios"]))
def test_goldens_hash_to_the_recorded_digests(stem):
    digests = [hashlib.sha256(golden.read_bytes()).hexdigest() for golden in goldens(stem)]
    assert digests == DIGESTS["scenarios"][stem]


def test_the_goldens_are_those_of_the_bundled_scenarios():
    expected = {golden.name for path in all_scenarios() for golden in goldens(path.stem)}
    assert {golden.name for golden in GOLDEN.iterdir()} == expected


def digests(path) -> list[str]:
    return [sha256(text) for text in outputs(path)]


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
