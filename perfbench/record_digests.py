#!/usr/bin/env python3
"""Record the SHA-256 digests of trace and report that the benchmark's
output gate expects: each synthetic workload at its recorded seed and
every bundled scenario.

    python3 perfbench/record_digests.py

Re-record only for a change that is meant to alter simulator output, and
say so in that change.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from run import HERE, ROOT, report_text, sha256, write_config
from canxlnet.config import load_config
from canxlnet.engine import Simulation
import workloads

RECORDED_SEED = 1


def digests(config: pathlib.Path) -> list[str]:
    trace, report = Simulation(load_config(str(config))).run()
    return [sha256(trace), sha256(report_text(report))]


def main() -> int:
    out: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, generate in workloads.GENERATORS.items():
            config = write_config(generate(RECORDED_SEED), pathlib.Path(tmp) / f"{name}.yaml")
            trace, report = digests(config)
            out[name] = {"seed": RECORDED_SEED, "trace": trace, "report": report}
    out["scenarios"] = {p.stem: digests(p) for p in sorted((ROOT / "scenarios").glob("*.yaml"))}
    (HERE / "digests.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
