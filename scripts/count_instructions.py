#!/usr/bin/env python3
"""Count the Python bytecode instructions of one seed-1 `Simulation.run()`.

    python scripts/count_instructions.py WORKLOAD

WORKLOAD is one of `perfbench/workloads.py`'s `WORKLOADS`: a synthetic
workload is generated at seed 1 and written to a temporary file as
perfbench writes it (`yaml.safe_dump(..., sort_keys=False)`), and
`scenarios` runs each bundled scenario once, in the order that seed
gives.  Each simulation is set up as `Simulation(load_config(path))` and
then run, each part under a `sys.settrace` tracer that turns on opcode
events (`f_trace_opcodes`) in every frame it enters and counts one per
instruction executed.

Prints JSON: the workload, the seed, the Python version, the total of
the runs, the total of the set-ups (`setup_instructions`), the runs'
counts per module and per function, largest first, and the set-ups'
counts split the same way (`setup_modules`, `setup_functions`), so that a
set-up change shows which layer moved: `canxlnet.config`, `yaml.*`,
`canxlnet.frames` or `canxlnet.engine`.  A module is the name
in its frame's globals; code compiled from a string, such as the methods
dataclasses generate, counts as that module's "<generated>" part.

Unlike wall time, the counts do not move with the host's load: two runs
of one tree give the same figures.  They cover Python bytecode only, not
the work of C code (`bytes` joins, `heapq`, `struct`), and they depend
on the Python version, so compare figures of one version only.
"""

from __future__ import annotations

import collections
import importlib.util
import json
import pathlib
import platform
import sys
import tempfile

import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1

sys.path.insert(0, str(ROOT / "src"))
from canxlnet.config import load_config  # noqa: E402
from canxlnet.engine import Simulation  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def config_files(workload: str, directory: str) -> list[str]:
    """The configuration files of `workload` at seed 1; a synthetic one is
    written into `directory`."""
    if workload == "scenarios":
        return [str(path) for path in workloads.scenario_files(ROOT, SEED)]
    path = pathlib.Path(directory, f"{workload}.yaml")
    path.write_text(yaml.safe_dump(workloads.GENERATORS[workload](SEED), sort_keys=False))
    return [str(path)]


def count(calls: list) -> dict[str, collections.Counter]:
    """Instructions executed in each of `calls`, called with no arguments,
    per module and per "module:function"."""
    per_code = collections.Counter()
    module_of = {}

    def local(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in module_of:
            module = frame.f_globals.get("__name__", "?")
            module_of[code] = module + " <generated>" if code.co_filename == "<string>" else module
        frame.f_trace_opcodes = True
        return local

    for function in calls:
        sys.settrace(call)
        try:
            function()
        finally:
            sys.settrace(None)
    result = {"modules": collections.Counter(), "functions": collections.Counter()}
    for code, n in per_code.items():
        module = module_of[code]
        result["modules"][module] += n
        result["functions"][f"{module}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in workloads.WORKLOADS:
        print(f"usage: count_instructions.py {{{','.join(workloads.WORKLOADS)}}}",
              file=sys.stderr)
        return 2
    sims = []
    with tempfile.TemporaryDirectory() as directory:
        setup = count([lambda path=path: sims.append(Simulation(load_config(path)))
                       for path in config_files(argv[0], directory)])
    counts = count([sim.run for sim in sims])
    print(json.dumps({
        "workload": argv[0],
        "seed": SEED,
        "python": platform.python_version(),
        "instructions": sum(counts["modules"].values()),
        "setup_instructions": sum(setup["modules"].values()),
        **{part: dict(counter.most_common()) for part, counter in counts.items()},
        **{f"setup_{part}": dict(counter.most_common()) for part, counter in setup.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
