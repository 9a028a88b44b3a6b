import importlib.util
import json
import pathlib
import subprocess

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


# A stand-in for perfbench/run.py: reports the number in VERSION as run_s
# and appends the directory it ran in to the file $RUN_LOG.
FAKE_RUN = """
import json, os, pathlib
with open(os.environ["RUN_LOG"], "a") as log:
    print(os.getcwd(), file=log)
value = float(pathlib.Path("VERSION").read_text())
print(json.dumps({"attempted": 1, "failed": 0,
                  "metrics": {"run_s": {"value": value, "unit": "s"}}}))
"""

# A stand-in for scripts/count_instructions.py: counts a thousand run
# instructions per unit of VERSION and half as many set-up instructions,
# and appends its workload to $COUNT_LOG.
FAKE_COUNT = """
import json, os, pathlib, sys
with open(os.environ["COUNT_LOG"], "a") as log:
    print(sys.argv[1], file=log)
n = int(1000 * float(pathlib.Path("VERSION").read_text()))
print(json.dumps({"workload": sys.argv[1], "seed": 1, "python": "3.x", "instructions": n,
                  "setup_instructions": n // 2, "modules": {"m": n}, "functions": {"m:f": n}}))
"""


def stand_in_repo(tmp_path):
    """A new git repository at tmp_path/repo holding the stand-in run.py and
    a BENCHMARK.json, with nothing committed yet, and its `git` command."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "run_s", "better": "lower"}]}))

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                               "user.email=t@example.org", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    return repo, git


def test_revisions_are_exported_to_paths_of_equal_length(tmp_path, monkeypatch):
    repo, git = stand_in_repo(tmp_path)
    hashes = []
    for version in ("2.0", "1.0"):  # only the second counts instructions
        (repo / "VERSION").write_text(version)
        if version == "1.0":
            (repo / "scripts").mkdir()
            (repo / "scripts" / "count_instructions.py").write_text(FAKE_COUNT)
        git("add", "-A")
        git("commit", "-q", "-m", version)
        hashes.append(git("rev-parse", "HEAD"))
    monkeypatch.setattr(bench_ab, "REPO", repo)
    monkeypatch.setenv("RUN_LOG", str(tmp_path / "runs.log"))
    monkeypatch.setenv("COUNT_LOG", str(tmp_path / "counts.log"))
    out = tmp_path / "ab.json"

    assert bench_ab.main(["HEAD~1", "HEAD", "--workload", "w", "--pairs", "2", "--seeds", "1",
                          "--seconds", "0", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["parent"] == {"revision": hashes[0], "dirty": False}
    assert result["change"] == {"revision": hashes[1], "dirty": False}
    run_s = result["workloads"]["w"]["metrics"]["run_s"]
    assert (run_s["parent"]["median"], run_s["change"]["median"], run_s["pairs_won"]) == (2, 1, 2)
    # counted once per workload, not once per pair; null where the script is missing
    assert result["workloads"]["w"]["instructions"] == {
        "parent": None, "change": {"python": "3.x", "instructions": 1000,
                                   "setup_instructions": 500, "modules": {"m": 1000}}}
    assert (tmp_path / "counts.log").read_text().split() == ["w"]
    dirs = set((tmp_path / "runs.log").read_text().split())
    assert len(dirs) == 2 and len({len(d) for d in dirs}) == 1
    assert not any(pathlib.Path(d).exists() for d in dirs)
    with pytest.raises(SystemExit) as exit_:
        bench_ab.main(["no-such-rev", "HEAD", "--workload", "w", "--pairs", "1", "--seeds", "1",
                       "--seconds", "0", "--out", str(out)])
    assert exit_.value.code == 2


@pytest.mark.parametrize("sides", ["directory", "revision"])
def test_one_tree_on_both_sides_is_counted_once(tmp_path, monkeypatch, sides):
    repo, git = stand_in_repo(tmp_path)
    (repo / "VERSION").write_text("1.0")
    (repo / "scripts").mkdir()
    (repo / "scripts" / "count_instructions.py").write_text(FAKE_COUNT)
    git("add", "-A")
    git("commit", "-q", "-m", "1.0")
    monkeypatch.setattr(bench_ab, "REPO", repo)
    monkeypatch.setenv("RUN_LOG", str(tmp_path / "runs.log"))
    monkeypatch.setenv("COUNT_LOG", str(tmp_path / "counts.log"))
    out = tmp_path / "ab.json"
    given = str(repo) if sides == "directory" else "HEAD"

    assert bench_ab.main([given, given, "--workload", "w", "v", "--pairs", "1", "--seeds", "1",
                          "--seconds", "0", "--out", str(out)]) == 0
    assert (tmp_path / "counts.log").read_text().split() == ["w", "v"]
    count = {"python": "3.x", "instructions": 1000, "setup_instructions": 500,
             "modules": {"m": 1000}}
    for workload in ("w", "v"):
        instructions = json.loads(out.read_text())["workloads"][workload]["instructions"]
        assert instructions == {"parent": count, "change": count}


def test_a_count_that_fails_is_recorded_as_null(tmp_path, capsys):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "count_instructions.py").write_text(
        "import sys\nsys.exit('no such workload')\n")
    assert bench_ab.count_instructions(tmp_path, "w") is None
    assert "no such workload" in capsys.readouterr().err


def test_a_count_without_set_up_instructions_records_them_as_null(tmp_path, monkeypatch):
    (tmp_path / "VERSION").write_text("1.0")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "count_instructions.py").write_text(
        FAKE_COUNT.replace('"setup_instructions": n // 2, ', ""))
    monkeypatch.setenv("COUNT_LOG", str(tmp_path / "counts.log"))
    assert bench_ab.count_instructions(tmp_path, "w") == {
        "python": "3.x", "instructions": 1000, "setup_instructions": None, "modules": {"m": 1000}}
