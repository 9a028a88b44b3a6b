#!/usr/bin/env python3
"""What changed in the simulator's output between two trees.

    python3 scripts/output_diff.py PARENT CHANGE

PARENT and CHANGE are each a directory holding a checkout or, if no such
directory exists, a git revision of the repository this script belongs
to, exported as `scripts/bench_ab.py` exports one (`bench_ab.export`).
Each tree simulates its own digest inputs, those of its
`perfbench/digests.json`: each synthetic workload at its recorded seed,
written as perfbench writes it, and each bundled scenario.  It runs its
own `canxlnet simulate`, so the trace and the report are the files that
command writes.

For each input, in the order of the parent's digests, prints either
"unchanged" or what moved:
  - the trace's line count before and after, and its first differing line;
  - the change in the count of each record kind (its `event`, with its
    `reason` when it has one, as `drop/ioc_unsupported`);
  - each report JSON path whose value changed, old → new.
Uses the standard library only; the trees' own code needs its own
dependencies.  Exits 0 when every input is unchanged, 1 otherwise and 2
when it cannot compare, as `diff` does.
"""

from __future__ import annotations

import collections
import json
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))  # however this is loaded
import bench_ab  # noqa: E402

# Run in a tree's root with the output directory as its argument: writes
# `<input>.trace.jsonl` and `<input>.report.json` there for each digest input.
SIMULATE = """
import importlib.util, json, pathlib, sys
root, out = pathlib.Path.cwd(), pathlib.Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
import yaml
from canxlnet.cli import main
spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
digests = json.loads((root / "perfbench" / "digests.json").read_text())
configs = {name: root / "scenarios" / f"{name}.yaml" for name in digests["scenarios"]}
for name, generate in workloads.GENERATORS.items():
    configs[name] = out / f"{name}.yaml"
    configs[name].write_text(yaml.safe_dump(generate(digests[name]["seed"]), sort_keys=False))
for name in [*workloads.GENERATORS, *digests["scenarios"]]:
    if main(["simulate", str(configs[name]), "--trace", str(out / f"{name}.trace.jsonl"),
             "--report", str(out / f"{name}.report.json")]):
        sys.exit(f"{name}: canxlnet simulate failed")
print(json.dumps([*workloads.GENERATORS, *digests["scenarios"]]))
"""


def simulated(tree: pathlib.Path, out: pathlib.Path) -> list[str]:
    """The names of `tree`'s digest inputs, in order, once their outputs
    are written into the new directory `out`."""
    out.mkdir()
    child = subprocess.run([sys.executable, "-c", SIMULATE, str(out)], cwd=tree,
                           capture_output=True, text=True)
    if child.returncode:
        print(f"{tree}: {child.stderr.strip()}", file=sys.stderr)
        sys.exit(2)
    return json.loads(child.stdout.splitlines()[-1])


def kinds(trace: str) -> collections.Counter:
    """The count of each record kind in `trace`."""
    records = map(json.loads, trace.splitlines())
    return collections.Counter(r["event"] + (f"/{r['reason']}" if "reason" in r else "")
                               for r in records)


def leaves(value, path: str = "") -> dict:
    """JSON path -> value of each scalar, empty object or empty list in `value`."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {p: v for key, child in items
                for p, v in leaves(child, f"{path}.{key}" if path else str(key)).items()}
    return {path: value}


def differences(old: tuple[str, str], new: tuple[str, str]) -> list[str]:
    """What moved from trace and report `old` to `new`, a line each; none
    when both are equal."""
    lines = []
    if old[0] != new[0]:
        before, after = old[0].splitlines(), new[0].splitlines()
        n = next((n for n, (a, b) in enumerate(zip(before, after)) if a != b),
                 min(len(before), len(after)))
        end = ["(end of file)"]
        lines += [f"trace lines {len(before):,} → {len(after):,}, first differing at line {n + 1}",
                  f"  parent: {(before + end)[n]}", f"  change: {(after + end)[n]}"]
        moved = kinds(new[0])
        moved.subtract(kinds(old[0]))
        lines += [f"records {kind} {count:+,}" for kind, count in sorted(moved.items()) if count]
    if old[1] != new[1]:
        before, after = leaves(json.loads(old[1])), leaves(json.loads(new[1]))
        shown = {path: [json.dumps(side[path]) if path in side else "(absent)"
                        for side in (before, after)] for path in before.keys() | after.keys()}
        lines += [f"report {path}: {was} → {now}"
                  for path, (was, now) in sorted(shown.items()) if was != now]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: output_diff.py PARENT CHANGE", file=sys.stderr)
        return 2
    changed = False
    with tempfile.TemporaryDirectory(prefix="output_diff_") as work:
        outputs, names = [], []
        for side, given in zip(("parent", "change"), args):
            tree = pathlib.Path(given)
            if not tree.is_dir():
                tree = pathlib.Path(work, side)
                try:
                    bench_ab.export(bench_ab.REPO, given, tree)
                except subprocess.CalledProcessError:
                    print(f"{given}: neither a directory nor a revision of {bench_ab.REPO}",
                          file=sys.stderr)
                    return 2
            outputs.append(pathlib.Path(work, f"{side}_out"))
            names.append(simulated(tree.resolve(), outputs[-1]))
        for name in names[0] + [name for name in names[1] if name not in names[0]]:
            if name not in names[0] or name not in names[1]:
                print(f"{name}: only in {'parent' if name in names[0] else 'change'}")
                changed = True
                continue
            old, new = (tuple((out / f"{name}.{part}").read_text()
                              for part in ("trace.jsonl", "report.json")) for out in outputs)
            lines = differences(old, new)
            print(f"{name}: {'changed' if lines else 'unchanged'}")
            print("".join(f"  {line}\n" for line in lines), end="")
            changed = changed or bool(lines)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
