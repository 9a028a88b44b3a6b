"""`scripts/bus_scale.py` builds bus_crowd at other bus sizes and reports
per-transmission figures.  It runs in a child process: its instruction
counter's `sys.settrace` tracer would replace the one of a process that
traces the tests (`scripts/unexecuted_lines.py`)."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from canxlnet.config import build_topology
from canxlnet.engine import TRACE_CHUNK, Simulation

from conftest import workloads

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bus_scale.py"


def script():
    spec = importlib.util.spec_from_file_location("bus_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_base_size_is_bus_crowd_and_others_keep_its_load():
    bus_scale = script()
    small = bus_scale.crowd(8)
    assert bus_scale.crowd(32) == workloads.bus_crowd(1)
    assert len(small["nodes"]) == len(small["buses"][0]["stations"]) == 8
    assert small["flows"][0]["schedule"]["period"] == workloads.CROWD_PERIOD_S / 4
    assert workloads.CROWD_STATIONS == 32  # perfbench's own module is untouched


def test_reports_per_transmission_figures():
    child = subprocess.run([sys.executable, str(SCRIPT), "--stations", "4", "8"],
                           capture_output=True, text=True, check=True)
    rows = json.loads(child.stdout)["rows"]
    assert [row["stations"] for row in rows] == [4, 8]
    for row in rows:
        assert row["tx"] > 0 and row["instructions"] > 0 and row["run_s"] > 0
        assert row["instructions_per_tx"] == row["instructions"] / row["tx"]
        assert row["run_s_q1"] <= row["run_s"] <= row["run_s_q3"]
        # a transmission writes a deliver record per receiver
        assert row["trace_bytes_per_tx"] > (row["stations"] - 1) * len('{"event":"deliver"}')
    assert rows[0]["us_per_tx_ratio"] == rows[0]["instructions_per_tx_ratio"] == 1.0


def test_the_tally_counts_what_the_trace_holds():
    bus_scale = script()
    doc = bus_scale.crowd(4)
    trace, _ = Simulation(build_topology(doc)).run()
    tally, _ = bus_scale.timed_run(Simulation(build_topology(doc)))
    assert (tally.chars, tally.tx) == (len(trace), trace.count('"event":"tx_start"'))
    assert tally.tx > 0


@pytest.mark.parametrize("argv", [["--stations", "1"], ["--stations", "257"]])
def test_out_of_range_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        script().main(argv)
    assert exc.value.code == 2


class ChunkSink:
    """A trace file that keeps a digest of what it is written and, per
    write, its lines and those of the write's last instant."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.writes = []

    def write(self, text: str) -> None:
        self.digest.update(text.encode())
        assert text.endswith("\n")
        lines = text.splitlines()
        # every record ends in its "t_ns", and one instant's records are
        # written together
        last = lines[-1][lines[-1].rindex('"t_ns":'):]
        instant = next((n for n, line in enumerate(reversed(lines)) if not line.endswith(last)),
                       len(lines))
        self.writes.append((len(lines), instant))


def test_a_streamed_trace_is_written_in_chunks_of_lines():
    # At 128 stations a transmission writes 127 deliver records, most of
    # them in runs of several lines each: a chunk counts those lines.
    doc = script().crowd(128)
    sink = ChunkSink()
    assert Simulation(build_topology(doc)).run(trace_file=sink)[0] == ""
    trace, _ = Simulation(build_topology(doc)).run()
    assert sink.digest.hexdigest() == hashlib.sha256(trace.encode()).hexdigest()
    assert len(sink.writes) > 100
    for lines, instant in sink.writes:
        assert lines <= TRACE_CHUNK + instant
