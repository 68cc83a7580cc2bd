"""A miniature end-to-end run: every declared metric appears, with its
unit, and the correctness gate holds and bites."""

import copy
import json
import os
from dataclasses import replace

import pytest

from perf import bench, metrics
from perf.harness import run_repetition
from perf.worker import measure_timed, measure_traced
from perf.workloads import WORKLOADS, FloodSpec, offered_requests


def _tiny(name):
    """The workload ``name`` with the same shape and tiny durations."""
    workload = WORKLOADS[name]

    def build(seed):
        inputs = workload.build(seed)
        if isinstance(inputs, FloodSpec):
            return replace(inputs, cycles=300)
        chaos = tuple(replace(act, at=act.at // 50) for act in inputs.chaos)
        return replace(inputs, duration=inputs.duration // 50,
                       chaos=chaos, drain=60_000)

    return replace(workload, build=build,
                   slice_cycles=workload.slice_cycles // 5)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def documents(request):
    workload = _tiny(request.param)
    timed = measure_timed(workload, seed=1, seconds=0.0, min_reps=2,
                          setup_reps=1)
    traced = measure_traced(workload, seed=1)
    return timed, traced


def test_every_declared_metric_is_produced(documents):
    timed, traced = documents
    assert bench.check(timed, traced) == []
    end_to_end, per_layer = bench.assemble(timed, traced)
    assert set(end_to_end) == {m.name for m in metrics.END_TO_END}
    assert set(per_layer) == {m.name for m in metrics.PER_LAYER}
    assert all(value > 0 for value in end_to_end.values())
    shown = bench._with_units(end_to_end, metrics.END_TO_END)
    assert shown["run_s"]["unit"] == "s"
    assert shown["served_per_host_s"]["unit"] == "1/s"
    layers = {m.name: m for m in metrics.PER_LAYER}
    for name, cell in bench._with_units(per_layer,
                                        metrics.PER_LAYER).items():
        assert cell["unit"] == layers[name].unit


def test_layer_self_times_account_for_the_engine_time(documents):
    _, traced = documents
    trace = traced["trace"]
    layers = sum(trace[f"{layer}.self_s"] for layer in bench.LAYERS)
    assert trace["sim.loop_s"] > 0
    assert layers + trace["sim.loop_s"] == pytest.approx(
        trace["cluster.backend.engine_s"])
    assert sum(trace[f"{layer}.self_frac"] for layer in bench.LAYERS) \
        == pytest.approx(1.0)


def test_the_gate_catches_a_diverging_repetition(documents):
    timed, traced = documents
    broken = copy.deepcopy(timed)
    broken["reps"][1]["digest"] = "0" * 64
    assert any("sha256" in p for p in bench.check(broken, traced))
    broken = copy.deepcopy(timed)
    broken["reps"][1]["slices"].pop()
    assert any("slices" in p for p in bench.check(broken, None))
    broken = copy.deepcopy(timed)
    broken["reps"][0]["resolved_exactly"] = False
    assert any("balance" in p for p in bench.check(broken, None))


def test_slicing_and_tracing_leave_the_report_unchanged():
    workload = _tiny("write_chaos_windowed")
    inputs = workload.build(2)
    sliced = run_repetition(workload, inputs, sliced=True)
    whole = run_repetition(workload, inputs, sliced=False)
    assert sliced["digest"] == whole["digest"]
    assert len(sliced["slices"]) > len(whole["slices"]) == 1
    assert sliced["counts"] == whole["counts"]


def test_inputs_are_a_function_of_the_seed_with_pinned_load():
    for name in ("kv_hot", "idle_cluster", "write_chaos_windowed"):
        build = WORKLOADS[name].build
        assert build(5) == build(5)
        assert build(5).seed != build(6).seed
        nominal = sum(t.arrival.rate_per_kcycle for t in build(5).tenants) \
            * build(5).duration / 1000
        for seed in (5, 6):
            assert abs(offered_requests(build(seed)) - nominal) \
                <= 0.0025 * nominal


def test_benchmark_json_matches_the_declared_tables():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        assert json.load(handle) == metrics.benchmark_document()
    document = metrics.benchmark_document()
    assert len(document["end_to_end"]) <= 16
    assert len(document["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in document["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])
