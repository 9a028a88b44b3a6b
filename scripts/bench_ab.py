#!/usr/bin/env python3
"""Paired A/B runs of the benchmark in two checkouts.

    python3 scripts/bench_ab.py PARENT CHANGE --workload W [W ...] \\
        --pairs N --seeds S [S ...] --seconds S --out FILE

PARENT and CHANGE are each a directory holding a checkout or, if no such
directory exists, a git revision of the repository this script belongs
to.  A revision is exported with `git archive` into a temporary directory,
removed afterwards; both exports get paths of the same length, since the
length of the checkout path moves the child's peak memory a little.
Runs each checkout's own `perfbench/run.py`, unchanged, from the root of
that checkout.  Pair i runs both trees on seed `seeds[i % len(seeds)]`,
the parent first in even pairs and the change first in odd ones, so that
a drift in host speed favours neither side.  The output file holds both
revisions, the seeds, every run's end-to-end metrics and, per metric, the
median and quartiles of each side, the relative change of the medians and
the number of pairs the change won (in the direction BENCHMARK.json gives).
Exits 1 if any run failed or did not finish.

Per workload, each distinct tree's own `scripts/count_instructions.py`
also runs once, as its counts do not vary between runs: two sides that
name one directory, or one revision, share one count.  The file records,
per side, the Python version, the bytecode instructions of one seed-1
run, those of its set-up (`setup_instructions`, null for a script that
does not count them) and the run's split by module, or null for a
checkout without that script (or whose script fails).  The counts cover Python bytecode only,
not the work of C code (`bytes` joins, `json`, `heapq`), so they
complement the wall-time metrics and do not replace them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
REPO = pathlib.Path(__file__).resolve().parent.parent


def revision(tree: pathlib.Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def export(repo: pathlib.Path, rev: str, dest: pathlib.Path) -> dict:
    """Extract the tree of `rev` in `repo` into the new directory `dest`."""
    full = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", full], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return {"revision": full, "dirty": False}


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result `perfbench/run.py` prints last, or None if it did not finish."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(child.stderr, file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def count_instructions(tree: pathlib.Path, workload: str) -> dict | None:
    """The Python version, the run's total and per-module and the set-up's
    total bytecode instructions that the tree's own
    `scripts/count_instructions.py` counts for `workload`; None if the tree
    lacks the script or it fails."""
    if not (tree / "scripts" / "count_instructions.py").is_file():
        return None
    child = subprocess.run([sys.executable, "scripts/count_instructions.py", workload],
                           cwd=tree, capture_output=True, text=True)
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        return None
    counts = json.loads(child.stdout)
    counts.setdefault("setup_instructions", None)  # a script from before it counted them
    return {key: counts[key] for key in ("python", "instructions", "setup_instructions", "modules")}


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric spreads and pairs won over the finished pairs of `runs`."""
    pairs = [r for r in runs if r["parent"] is not None and r["change"] is not None]
    metrics = {}
    for name, direction in better.items():
        if not pairs or any(name not in r[side]["metrics"] for r in pairs for side in SIDES):
            continue
        values = {side: [r[side]["metrics"][name]["value"] for r in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        parent, change = spread(values["parent"]), spread(values["change"])
        metrics[name] = {
            "unit": pairs[0]["change"]["metrics"][name]["unit"],
            "better": direction,
            "parent": parent,
            "change": change,
            "change_pct": (100 * (change["median"] / parent["median"] - 1)
                           if parent["median"] else None),
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                                 values["change"])),
        }
    return {
        "pairs": len(pairs),
        "attempted": {side: sum(r[side]["attempted"] for r in runs if r[side]) for side in SIDES},
        "failed": {side: sum(r[side]["failed"] for r in runs if r[side]) for side in SIDES},
        "unfinished": {side: sum(r[side] is None for r in runs) for side in SIDES},
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as exports:
        trees, revisions, keys = {}, {}, {}
        for side in SIDES:
            given = getattr(args, side)
            if pathlib.Path(given).is_dir():
                trees[side] = keys[side] = pathlib.Path(given).resolve()
                revisions[side] = revision(trees[side])
            else:
                trees[side] = pathlib.Path(exports, side)  # "parent", "change": equal lengths
                try:
                    revisions[side] = export(REPO, given, trees[side])
                except subprocess.CalledProcessError:
                    parser.error(f"{given}: neither a directory nor a revision of {REPO}")
                keys[side] = revisions[side]["revision"]
        return compare(args, trees, revisions, keys)


def compare(args, trees: dict[str, pathlib.Path], revisions: dict[str, dict],
            keys: dict) -> int:
    """Run the pairs, print the medians and write `args.out`; 1 if any run
    failed or did not finish.  Sides with equal `keys` share one tree, so
    their instructions are counted once."""
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        **revisions,
        "pairs": args.pairs, "seeds": args.seeds, "seconds": args.seconds,
        "workloads": {},
    }
    bad = 0
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = out = run_once(trees[side], workload, seed, args.seconds)
                status = "did not finish" if out is None else f"failed {out['failed']}"
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: {status}",
                      file=sys.stderr)
            runs.append(run)
        summary = summarize(runs, better)
        counts = {}  # one per distinct tree
        for side in SIDES:
            if keys[side] not in counts:
                counts[keys[side]] = count_instructions(trees[side], workload)
        summary["instructions"] = counted = {side: counts[keys[side]] for side in SIDES}
        summary["runs"] = [
            {"seed": r["seed"], "first": r["first"],
             **{side: r[side] and {k: v["value"] for k, v in r[side]["metrics"].items()}
                for side in SIDES}}
            for r in runs]
        result["workloads"][workload] = summary
        bad += sum(summary["failed"].values()) + sum(summary["unfinished"].values())
        for name, m in summary["metrics"].items():
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            print(f"{workload:16} {name:12} {m['parent']['median']:>12.6g} -> "
                  f"{m['change']['median']:>12.6g} {m['unit']:5} {pct:>8}  "
                  f"won {m['pairs_won']}/{summary['pairs']}")
        for part in ("instructions", "setup_instructions"):
            parent, change = (counted[side] and counted[side][part] for side in SIDES)
            print(f"{workload:16} {part} {parent} -> {change}")
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
