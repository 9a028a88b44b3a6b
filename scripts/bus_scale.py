#!/usr/bin/env python3
"""How the cost of one bus transmission grows with the number of stations.

    python scripts/bus_scale.py [--stations N [N ...]]

For each N (2..256, default 32 64 128) it builds `perfbench/workloads.py`'s
bus_crowd at seed 1 with N stations instead of 32 and the flows' period
scaled by N / 32, so that the offered load, and with it the number of
stations waiting at each arbitration, stays that of bus_crowd; every
station still sends 16 datagrams.  At N = 32 the document is bus_crowd's.
The workload module is read, not changed: its constants are set on a
fresh copy for each N.

Per N it reports the transmissions (`tx_start` records), the bytecode
instructions of one `Simulation.run()` (counted as
`count_instructions.py` counts them) and the time of one run, the median
of 7 runs (`RUNS`) in reference seconds: host seconds scaled by
`perfbench/calibrate.py`'s loop run around each run, as the benchmark
scales them, with the quartiles of those runs (`run_s_q1`, `run_s_q3`).
Both are also given per transmission and as a ratio to the first N's
per-transmission figure.  `trace_bytes_per_tx` is the size of the trace
per transmission: building it is C work (string joins) that the
instruction counts do not see, and at large N it is most of a run's
time.  The trace is written to a `TraceTally` as the run goes, so only
its size and its count of `tx_start` records are kept, not its text
(223 MB at 256 stations).  Prints one JSON document.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
sys.path.insert(0, str(ROOT / "scripts"))
import count_instructions  # noqa: E402  (puts src/ on the path)
from canxlnet.config import build_topology  # noqa: E402
from canxlnet.engine import Simulation  # noqa: E402


def _private(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = ROOT / "perfbench" / "workloads.py"
calibrate = _private("bus_scale_calibrate", ROOT / "perfbench" / "calibrate.py")
MAX_STATIONS = 256  # one distinct priority per station in 0x100..0x1ff
RUNS = 7


def crowd(stations: int) -> dict:
    """bus_crowd's document at seed 1 with `stations` stations at its load,
    generated by a fresh copy of the workload module."""
    workloads = _private("bus_scale_workloads", WORKLOADS)
    base_stations = workloads.CROWD_STATIONS
    workloads.CROWD_STATIONS = stations
    workloads.CROWD_PERIOD_S *= stations / base_stations
    return workloads.bus_crowd(SEED)


class TraceTally:
    """A trace file that keeps only its size and its `tx_start` records'
    count: `Simulation.run` writes it whole lines at a time, so no record is
    split between two writes."""

    def __init__(self):
        self.chars = self.tx = 0

    def write(self, text: str) -> None:
        self.chars += len(text)
        self.tx += text.count('"event":"tx_start"')


def timed_run(sim: Simulation) -> tuple[TraceTally, float]:
    """(the tally of the trace, host seconds) of `sim.run()`."""
    tally = TraceTally()
    t0 = time.perf_counter()
    sim.run(trace_file=tally)
    return tally, time.perf_counter() - t0


def measure(stations: int) -> dict:
    doc = crowd(stations)
    counts = count_instructions.count([Simulation(build_topology(doc)).run])
    instructions = sum(counts["modules"].values())
    stick = calibrate.Yardstick()
    seconds = []
    for _ in range(RUNS):
        (tally, host_s), factor = stick.time(lambda: timed_run(Simulation(build_topology(doc))))
        seconds.append(host_s * factor)
    tx = tally.tx
    run_s = statistics.median(seconds)
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    period_s = doc["flows"][0]["schedule"]["period"]
    return {"stations": stations, "period_s": period_s, "tx": tx,
            "instructions": instructions, "instructions_per_tx": instructions / tx,
            "trace_bytes_per_tx": tally.chars / tx,  # JSON escapes non-ASCII: 1 byte a char
            "run_s": run_s, "run_s_q1": q1, "run_s_q3": q3, "us_per_tx": run_s / tx * 1e6}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stations", type=int, nargs="+", default=[32, 64, 128])
    args = parser.parse_args(argv)
    if any(not 2 <= n <= MAX_STATIONS for n in args.stations):
        parser.error(f"stations must be 2..{MAX_STATIONS}")
    rows = [measure(n) for n in args.stations]
    for row in rows:
        row["instructions_per_tx_ratio"] = \
            row["instructions_per_tx"] / rows[0]["instructions_per_tx"]
        row["us_per_tx_ratio"] = row["us_per_tx"] / rows[0]["us_per_tx"]
    print(json.dumps({"seed": SEED, "python": platform.python_version(), "runs": RUNS,
                      "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
