"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

import contextlib
import json
import os
import shutil

import pytest

import run  # puts the checkout's src/ on sys.path
import calibrate
import layers
import workloads
from canxlnet import frames, nodes
from tracer import Tracer


def spec_names(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(name):
    generate = workloads.GENERATORS[name]
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_work_does_not_depend_on_the_seed(name):
    def volume(doc):
        return sorted((f["payload_size"], f["schedule"]["count"]) for f in doc["flows"])
    generate = workloads.GENERATORS[name]
    assert volume(generate(5)) == volume(generate(6))


def test_scenario_order_is_deterministic_per_seed():
    assert workloads.scenario_files(run.ROOT, 3) == workloads.scenario_files(run.ROOT, 3)
    assert sorted(workloads.scenario_files(run.ROOT, 3)) == \
        sorted(workloads.scenario_files(run.ROOT, 4))


def test_install_then_remove_restores_every_original_object():
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, *_ in layers.SPAN_TARGETS]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
        assert isinstance(vars(frames.EthernetFrame)["from_bytes"], classmethod)
    finally:
        tracer.remove()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_missing_or_inherited_target_fails_loudly():
    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer.install(frames, "no_such_function", "frames.no_such_function")
    with pytest.raises(LookupError):
        tracer.install(nodes.IocNode, "on_receive", "nodes.on_receive")  # inherited
    assert not tracer._installed


def test_self_time_on_a_hand_built_span_tree():
    tracer = Tracer()
    a = tracer.add_span("a", 0, 100)
    b = tracer.add_span("b", 10, 40, a)
    tracer.add_span("c", 20, 30, b)
    tracer.add_span("b", 50, 70, a)
    totals = tracer.totals()
    assert (totals["a"].calls, totals["a"].total_ns, totals["a"].self_ns) == (1, 100, 50)
    assert (totals["b"].calls, totals["b"].total_ns, totals["b"].self_ns) == (2, 50, 40)
    assert (totals["c"].calls, totals["c"].self_ns) == (1, 10)


def test_wrapped_calls_nest_and_survive_exceptions():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError
        return x

    inner_w = tracer.wrap("inner", inner)
    outer_w = tracer.wrap("outer", lambda x: inner_w(x) + 1)
    assert outer_w(1) == 2
    with pytest.raises(ValueError):
        outer_w(-1)
    assert list(tracer.parents) == [-1, 0, -1, 2]
    assert tracer._current == -1
    assert tracer.totals()["inner"].calls == 2


@pytest.fixture
def work():
    # Stay inside the checkout, like the benchmark itself.
    path = run.ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def _scenario_bench(work):
    recorded = json.loads((run.HERE / "digests.json").read_text())
    cases, golden = run.build_cases("scenarios", 1, work, recorded)
    assert golden is None
    bench = run.Bench(cases, work)
    stats = layers.OutputStats()
    bench.direct_pass(stats)
    return bench, stats


def test_traced_pass_produces_every_per_layer_metric_with_unchanged_outputs(work):
    bench, stats = _scenario_bench(work)
    result = run.measure(bench, 0, True, stats)
    produced = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert produced == spec_names("per_layer")
    # Traced outputs were checked against the recorded digests.
    assert bench.attempted == (2 + run.RUNS_PER_PASS) * len(bench.cases)
    assert bench.failed == 0


def test_untraced_pass_produces_every_end_to_end_metric(work):
    bench, stats = _scenario_bench(work)
    result = run.measure(bench, 0, False, stats)
    produced = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert produced == spec_names("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert bench.failed == 0


def test_a_changed_output_counts_as_failed(work):
    bench, _ = _scenario_bench(work)
    bench.cases[0].expected = ("0" * 64, "0" * 64)
    assert bench.direct_pass() is None
    assert bench.failed == 1


def test_manifest_maps_every_per_layer_metric_to_one_layer():
    manifest = json.loads((run.HERE / "manifest.json").read_text())
    mapped = [name for entry in manifest["layers"] for name in entry["metrics"]]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == set(spec_names("per_layer"))
    end_to_end = set(spec_names("end_to_end"))
    assert all(set(entry["moves"]) <= end_to_end for entry in manifest["layers"])


def test_peak_rss_is_the_child_not_the_benchmark_process(work):
    bench, _ = _scenario_bench(work)
    ballast = bytearray(96 * 1024 * 1024)  # touched, so resident in this process
    assert bench.peak_rss_mb() < 64
    assert len(ballast) and bench.failed == 0


def test_yardstick_factor_uses_the_calibrations_before_and_after():
    stick = calibrate.Yardstick()
    before = stick.last
    result, factor = stick.time(lambda: 42)
    assert result == 42 and stick.last != before
    assert factor == pytest.approx(calibrate.REFERENCE_S / ((before + stick.last) / 2))
