import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def result(failed=0, **values):
    return {"attempted": 3, "failed": failed,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_pairs_won_follow_the_metric_direction():
    runs = [{"parent": result(run_s=1.0, tx_per_s=10), "change": result(run_s=0.5, tx_per_s=20)},
            {"parent": result(run_s=1.0, tx_per_s=10), "change": result(run_s=2.0, tx_per_s=5)},
            {"parent": result(run_s=1.0, tx_per_s=10), "change": result(run_s=0.9, tx_per_s=11)}]
    summary = bench_ab.summarize(runs, {"run_s": "lower", "tx_per_s": "higher"})
    assert summary["pairs"] == 3
    assert summary["metrics"]["run_s"]["pairs_won"] == 2
    assert summary["metrics"]["tx_per_s"]["pairs_won"] == 2
    assert summary["metrics"]["run_s"]["change"] == {"median": 0.9, "q1": 0.7, "q3": 1.45}
    assert summary["metrics"]["run_s"]["change_pct"] == pytest.approx(-10.0)


def test_failed_and_unfinished_runs_are_counted():
    runs = [{"parent": result(failed=1, run_s=1.0), "change": None},
            {"parent": result(run_s=1.0), "change": result(failed=2, run_s=1.0)}]
    summary = bench_ab.summarize(runs, {"run_s": "lower"})
    assert summary["pairs"] == 1
    assert summary["failed"] == {"parent": 1, "change": 2}
    assert summary["unfinished"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 6, "change": 3}
    assert summary["metrics"]["run_s"]["pairs_won"] == 0
