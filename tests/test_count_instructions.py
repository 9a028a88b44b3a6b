"""`scripts/count_instructions.py` counts in a child process: its
`sys.settrace` tracer would replace the one of a process that traces the
tests (`scripts/unexecuted_lines.py`)."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "count_instructions.py"


def count(workload: str, hash_seed: int) -> dict:
    child = subprocess.run([sys.executable, str(SCRIPT), workload], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
    return json.loads(child.stdout)


def test_two_runs_count_the_same_instructions():
    first, second = count("scenarios", 0), count("scenarios", 12345)
    assert first == second
    assert first["workload"] == "scenarios" and first["python"] == platform.python_version()
    assert first["instructions"] == sum(first["modules"].values()) \
        == sum(first["functions"].values())
    assert first["modules"]["canxlnet.engine"] > 0
    assert first["setup_instructions"] == sum(first["setup_modules"].values()) \
        == sum(first["setup_functions"].values()) > 0
    assert first["setup_modules"]["canxlnet.config"] > 0


def test_an_unknown_workload_is_a_usage_error():
    spec = importlib.util.spec_from_file_location("count_instructions", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert script.main(["bus"]) == 2
    assert err.getvalue().startswith("usage: count_instructions.py {bus_crowd,")
