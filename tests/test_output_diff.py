"""`scripts/output_diff.py` names what moved in the simulator's output."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from conftest import DIGESTS, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_diff.py"
spec = importlib.util.spec_from_file_location("output_diff", SCRIPT)
output_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_diff)


def test_a_tree_against_itself_leaves_every_input_unchanged():
    child = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT)],
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    inputs = [*workloads.GENERATORS, *DIGESTS["scenarios"]]
    assert child.stdout == "".join(f"{name}: unchanged\n" for name in inputs)


def record(t_ns: int, event: str, **fields) -> str:
    return json.dumps({"event": event, "t_ns": t_ns, **fields})


def test_a_difference_shows_lines_record_kinds_and_report_paths():
    old_trace = "\n".join([record(0, "app_send"), record(5, "deliver")]) + "\n"
    new_trace = "\n".join([record(0, "app_send"), record(5, "drop", reason="no_route"),
                           record(9, "drop", reason="no_route")]) + "\n"
    old_report = json.dumps({"flows": {"f1": {"delivered": 1, "drops": {}}}, "seed": 1})
    new_report = json.dumps({"flows": {"f1": {"delivered": 0, "drops": {"no_route": 2}}},
                             "seed": 1})
    assert output_diff.differences((old_trace, old_report), (new_trace, new_report)) == [
        "trace lines 2 → 3, first differing at line 2",
        f"  parent: {record(5, 'deliver')}",
        f"  change: {record(5, 'drop', reason='no_route')}",
        "records deliver -1",
        "records drop/no_route +2",
        "report flows.f1.delivered: 1 → 0",
        "report flows.f1.drops: {} → (absent)",
        "report flows.f1.drops.no_route: (absent) → 2",
    ]
    assert output_diff.differences((old_trace, old_report), (old_trace, old_report)) == []


def test_a_trace_cut_short_differs_at_its_end():
    first, second = record(0, "app_send"), record(3, "app_send")
    assert output_diff.differences((f"{first}\n{second}\n", "{}"), (f"{first}\n", "{}")) == [
        "trace lines 2 → 1, first differing at line 2", f"  parent: {second}",
        "  change: (end of file)", "records app_send -1"]
