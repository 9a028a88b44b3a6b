#!/usr/bin/env python3
"""canxlnet benchmark: seeded workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `canxlnet` from `src/` of
that checkout and writes only below `.perfbench_work/` there, which it
removes again.  Workloads (see BENCHMARK.json for why each exists):
`bus_crowd` and `switched_fabric` are generated from the seed by
`workloads.py`; `scenarios` runs the bundled `scenarios/*.yaml` files.

A run first simulates every input once, to warm up and to fix the
expected trace/report digests for this seed, and checks one recorded-seed
run against `digests.json`.  With `--trace 0` it then measures
`peak_rss_mb` in a child `canxlnet simulate` process and repeats passes
until `--seconds` have elapsed: a pass is two bare `Simulation.run()`s per
input (`run_s`), a block of set-ups (`setup_s`) and one in-process
`canxlnet simulate` per input (`total_s`).  Nothing is wrapped.  Each
timing is the median over the passes, in reference seconds: host seconds
scaled by a calibration loop run around every timed segment, which
cancels the shared host's swings in speed (see `measure` and
`calibrate.py`).  With `--trace 1` the second half of each pass runs with
the layers' functions wrapped (`layers.py`), and the spans give the
per-layer metrics.

Every simulation counts as attempted; it fails if it raises, exits
non-zero, produces a trace or report whose SHA-256 differs from the
expected one, or reports payload mismatches or more unique deliveries
than sends.  Human-readable lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"

if not (SRC / "canxlnet" / "__init__.py").is_file():
    sys.exit(f"error: no canxlnet sources in {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import yaml  # noqa: E402

from canxlnet import cli, timing  # noqa: E402
from canxlnet.config import load_config  # noqa: E402
from canxlnet.engine import Simulation  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, Yardstick  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_BLOCK = 5  # set-up passes per pass of the measuring loop
RUNS_PER_PASS = 2  # bare runs per pass: run_s is the metric most worth sampling
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "total_s": "s",
                    "tx_per_s": "1/s", "peak_rss_mb": "MiB"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(report: dict) -> str:
    """The report file exactly as `canxlnet simulate` writes it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_config(doc: dict, path: pathlib.Path) -> pathlib.Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


@dataclass
class Case:
    """One simulation input and the digests its outputs must have."""
    label: str
    config: pathlib.Path
    expected: tuple[str, str] | None = None  # sha256 of (trace, report)


def build_cases(workload: str, seed: int, work: pathlib.Path,
                recorded: dict) -> tuple[list[Case], Case | None]:
    """The inputs of one pass, plus a recorded-seed input checked once."""
    if workload == "scenarios":
        return [Case(p.stem, p, tuple(recorded["scenarios"][p.stem]))
                for p in workloads.scenario_files(ROOT, seed)], None
    generate = workloads.GENERATORS[workload]
    rec = recorded[workload]
    golden_digests = (rec["trace"], rec["report"])
    case = Case(workload, write_config(generate(seed), work / f"{workload}.yaml"))
    if seed == rec["seed"]:
        case.expected = golden_digests
        return [case], None
    golden = Case(f"{workload}@{rec['seed']}",
                  write_config(generate(rec["seed"]), work / "golden.yaml"), golden_digests)
    return [case], golden


class Bench:
    def __init__(self, cases: list[Case], work: pathlib.Path):
        self.cases = cases
        self.work = work
        self.attempted = 0
        self.failed = 0

    def _check(self, case: Case, trace: str, report_txt: str, report: dict) -> bool:
        problems = layers.check_report(report)
        got = (sha256(trace), sha256(report_txt))
        if case.expected is None:
            case.expected = got
        elif got != case.expected:
            problems.append(f"digest {got[0][:12]}/{got[1][:12]} != expected "
                            f"{case.expected[0][:12]}/{case.expected[1][:12]}")
        return self._outcome(case, problems)

    def _outcome(self, case: Case, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {case.label}: {problem}", file=sys.stderr)
        return not problems

    def setup_once(self, case: Case) -> float:
        t0 = time.perf_counter()
        Simulation(load_config(str(case.config)))
        return time.perf_counter() - t0

    def run_direct(self, case: Case, stats: layers.OutputStats | None = None):
        """Set up and run one bare simulation; (setup_s, run_s) or None."""
        try:
            t0 = time.perf_counter()
            sim = Simulation(load_config(str(case.config)))
            t1 = time.perf_counter()
            trace, report = sim.run()
            t2 = time.perf_counter()
        except Exception:
            self._outcome(case, [traceback.format_exc()])
            return None
        del sim
        ok = self._check(case, trace, report_text(report), report)
        if ok and stats is not None:
            stats.add(trace, report)
        return (t1 - t0, t2 - t1) if ok else None

    def run_cli(self, case: Case):
        """One in-process `canxlnet simulate`; its wall time or None."""
        trace_path, report_path = self.work / "trace.jsonl", self.work / "report.json"
        argv = ["simulate", str(case.config), "--trace", str(trace_path),
                "--report", str(report_path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - t0
            if rc != 0:
                self._outcome(case, [f"canxlnet simulate exited {rc}"])
                return None
            trace, report_txt = trace_path.read_text(), report_path.read_text()
        except Exception:
            self._outcome(case, [traceback.format_exc()])
            return None
        ok = self._check(case, trace, report_txt, json.loads(report_txt))
        return elapsed if ok else None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of `canxlnet simulate` run as its own
        process on each case (the largest), in MiB."""
        trace_path, report_path = self.work / "rss.trace.jsonl", self.work / "rss.report.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        peak_kib = 0
        for case in self.cases:
            child = subprocess.run(
                [sys.executable, str(HERE / "peak_rss.py"), str(case.config),
                 "--trace", str(trace_path), "--report", str(report_path)],
                env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if child.returncode != 0:
                self._outcome(case, [f"canxlnet simulate exited {child.returncode}: "
                                     f"{child.stderr.strip()}"])
                continue
            peak_kib = max(peak_kib, int(child.stdout.split()[-1]))
            report_txt = report_path.read_text()
            self._check(case, trace_path.read_text(), report_txt, json.loads(report_txt))
        return peak_kib / 1024

    # -- passes: one simulation per case, times summed ----------------------

    def setup_pass(self) -> float:
        return sum(self.setup_once(case) for case in self.cases)

    def direct_pass(self, stats: layers.OutputStats | None = None):
        results = [self.run_direct(case, stats) for case in self.cases]
        if None in results:
            return None
        return sum(r[0] for r in results), sum(r[1] for r in results)

    def cli_pass(self):
        results = [self.run_cli(case) for case in self.cases]
        return None if None in results else sum(results)


def median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no repetition succeeded")
    return statistics.median(values)


def measure(bench: Bench, seconds: float, traced: bool, stats: layers.OutputStats) -> dict:
    """Passes until `seconds` have elapsed; each timing is the median over them.

    A pass is `RUNS_PER_PASS` bare runs, a block of set-ups and one
    `canxlnet simulate` per case.  On a shared host (measured on a 2-vCPU
    VM) the speed a process gets swings by up to ~2x within seconds, and
    CPU time slows with it, so host seconds of the same work spread by a
    quarter or more from run to run.  Each segment is therefore timed against the
    calibration loop run before and after it (`calibrate.py`), and the
    samples are reference seconds.  Host-second medians are kept beside
    them for the printed report."""
    names = ("setup_s", "run_s", "total_s", "traced_run_s")
    samples: dict[str, list[float]] = {name: [] for name in names}
    host: dict[str, list[float]] = {name: [] for name in names}

    def add(name: str, host_s: float, factor: float) -> None:
        host[name].append(host_s)
        samples[name].append(host_s * factor)

    passes = []
    emissions = 0
    if not traced:
        peak_rss_mb = bench.peak_rss_mb()
    stick = Yardstick()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for _ in range(RUNS_PER_PASS):
            direct, factor = stick.time(bench.direct_pass)
            if direct is not None:
                add("run_s", direct[1], factor)
        if not traced:
            setups, factor = stick.time(
                lambda: [bench.setup_pass() for _ in range(SETUP_BLOCK)])
            for setup in setups:
                add("setup_s", setup, factor)
            total, factor = stick.time(bench.cli_pass)
            if total is not None:
                add("total_s", total, factor)
            continue
        tracer = Tracer()
        layers.install(tracer)
        try:
            total, factor = stick.time(bench.cli_pass)
        finally:
            tracer.remove()
        if total is not None:
            totals = tracer.totals()
            passes.append(totals)
            emissions = tracer.counters.get(layers.EMISSIONS, 0)
            add("traced_run_s", totals["engine.Simulation.run"].total_ns / 1e9, factor)

    if traced:
        if not passes:
            raise RuntimeError("no traced pass succeeded")
        overhead = median(samples["traced_run_s"]) / median(samples["run_s"])
        metrics = layers.layer_metrics(passes, emissions, stats, overhead)
    else:
        run_s = median(samples["run_s"])
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in {
            "setup_s": median(samples["setup_s"]),
            "run_s": run_s,
            "total_s": median(samples["total_s"]),
            "tx_per_s": stats.tx / run_s,
            "peak_rss_mb": peak_rss_mb,
        }.items()}
    return {"samples": samples, "host": host, "metrics": metrics}


def model_error_max_pct() -> float:
    return max(abs(row["deviation"]) for row in timing.comparison_table()) * 100


def print_report(args, result: dict, bench: Bench, stats: layers.OutputStats) -> None:
    samples, host = result["samples"], result["host"]
    print(f"canxlnet benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; Python {platform.python_version()}, nproc {os.cpu_count()}, "
          "host CPU only (buses and links are simulated)")
    print(f"  times in reference seconds: host seconds scaled so that the calibration "
          f"loop takes {REFERENCE_S * 1000:g} ms")
    sample_of = {"setup_s": "setup_s", "run_s": "run_s", "total_s": "total_s",
                 "trace.overhead_ratio": "traced_run_s", "tx_per_s": "run_s"}
    for name, (value, unit) in result["metrics"].items():
        if name.startswith("sim."):
            continue  # listed below with the other simulated quantities
        note = ""
        if name in sample_of:
            key = sample_of[name]
            note = (f"  ({key}: median of {len(samples[key])} samples, "
                    f"host-second median {statistics.median(host[key]):.6g} s)")
        print(f"  {name:42} {value:>14.6g} {unit}{note}")
    ratio = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_ratio':42} {ratio:>14.6g} ratio  ({bench.failed}/{bench.attempted} runs)")
    print(f"  {'model_error_max_pct':42} {model_error_max_pct():>14.6g} %  "
          "(timing model vs the paper's published durations, deterministic; "
          "no other reference data exists, the simulator is otherwise unvalidated)")
    print("  simulated (simulated time and counts of the warm-up pass, not host time):")
    for name, (value, unit) in stats.metrics().items():
        print(f"    {name:40} {value:>14.6g} {unit}")
    for reason, n in sorted(stats.drops.items()):
        print(f"    sim.drops.{reason:30} {n:>14d} count")


def expected_metric_names(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    expected_names = expected_metric_names(traced)
    recorded = json.loads((HERE / "digests.json").read_text())

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cases, golden = build_cases(args.workload, args.seed, work, recorded)
        bench = Bench(cases, work)
        stats = layers.OutputStats()
        bench.direct_pass(stats)  # warm-up; fixes the digests for this seed
        if golden is not None:
            bench.run_cli(golden)
        result = measure(bench, args.seconds, traced, stats)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    produced = {name: unit for name, (_, unit) in result["metrics"].items()}
    if produced != expected_names:
        raise RuntimeError(f"metrics {sorted(produced.items() ^ expected_names.items())} "
                           "do not match BENCHMARK.json")
    print_report(args, result, bench, stats)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
