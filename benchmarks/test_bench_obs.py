"""O1 — the observability plane: overhead, accuracy, and determinism.

Three claims, one run: the ``board_kill`` library scenario (two tenants,
~1,080 requests, board 1 of 2 dies a third of the way in) executed by
:class:`~repro.loadgen.runner.ScenarioRunner`, with the plane arriving
through its ``config=`` template and the evidence read from
``runner.diagnostics``:

* **overhead** — arming the whole plane (tracing and per-board flight
  recorders on top of the SLO engine and sketch-backed stats every
  scenario run carries) costs a bounded wall-clock factor versus the
  same scenario with the plane off.  Ceiling asserted in CI:
  ``OVERHEAD_CEILING``.  The *simulated* outcome is identical either
  way — observability never perturbs virtual time, so the two runs'
  report bytes are equal.
* **accuracy** — the :class:`~repro.obs.sketch.QuantileSketch` that
  replaced exact-sample histograms on hot paths answers every quantile
  within its documented ``alpha`` relative error of the exact order
  statistic, measured against a real :class:`~repro.sim.Histogram` over
  the same deterministic long-tailed stream.
* **determinism** — through the board kill, two observed runs on the
  sequential windowed backend produce byte-identical spans, per-board
  stats snapshots (sketch summaries included), SLO verdicts + alerts,
  and flight-recorder reports *including the kill dumps*, and their
  report is the unobserved shared run's blob.

The CI ``obs-smoke`` job runs the reduced configuration
(``BENCH_PROFILE=reduced``) and uploads the Chrome trace and the kill dump as
artifacts after validating both.
"""

import json
import math
import os
import time

from conftest import REDUCED, scale_timeline
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.loadgen import ScenarioRunner, get_scenario
from repro.obs import CycleProfiler, validate_flight_dump
from repro.obs.sketch import QuantileSketch
from repro.sim import Histogram

SCENARIO = scale_timeline(get_scenario("board_kill"))
PLANE_OFF = ClusterConfig()
PLANE_ON = ClusterConfig(obs=ObsConfig(tracing=True, flight_recorders=True))
TIMING_ROUNDS = 2 if REDUCED else 3
#: CI-enforced bound on enabled/disabled wall-clock ratio (measured
#: ~1.2x; headroom for noisy shared runners)
OVERHEAD_CEILING = 1.8
#: the full profile must offer enough work that the ratio is not noise
MIN_OFFERED = 1_000
#: percentiles the accuracy claim is checked at
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
SECTIONS = ("spans", "stats", "slo", "flight")
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_O1.json")


def _timed(config):
    """Best-of-N wall clock for the scenario, plane on or off."""
    best, report = math.inf, None
    for _ in range(TIMING_ROUNDS):
        runner = ScenarioRunner(SCENARIO, config=config)
        t0 = time.perf_counter()
        report = runner.run()
        best = min(best, time.perf_counter() - t0)
    return best, report


def _observed(backend):
    """(report, diagnostics as comparable bytes, raw diagnostics)."""
    runner = ScenarioRunner(SCENARIO, backend=backend, config=PLANE_ON)
    report = runner.run()
    diag = runner.diagnostics
    flat = dict(diag, spans=diag["spans"].dump())
    return report, {name: json.dumps(flat[name], sort_keys=True,
                                     default=repr)
                    for name in SECTIONS}, diag


def _accuracy():
    """Sketch vs exact histogram over one deterministic stream."""
    hist = Histogram("exact")
    sketch = QuantileSketch("sketch")
    for i in range(50_000):
        v = 1 + (i * i * 37) % 9_000 + (i % 97) * ((i % 13 == 0) * 400)
        hist.record(v)
        sketch.record(v)
    rows = []
    for p in PERCENTILES:
        exact = hist.percentile(p)
        est = sketch.percentile(p)
        rows.append({"p": p, "exact": exact, "estimate": est,
                     "rel_error": abs(est - exact) / exact})
    return {"alpha": sketch.alpha, "samples": hist.count,
            "sketch_bins": sketch.bins, "quantiles": rows}


def run_all():
    wall_off, report_off = _timed(PLANE_OFF)
    wall_on, report_on = _timed(PLANE_ON)
    return {
        "overhead": {"wall_off_s": wall_off, "wall_on_s": wall_on,
                     "ratio": wall_on / wall_off,
                     "report_off": report_off, "report_on": report_on},
        "accuracy": _accuracy(),
        "identity": [_observed("sequential") for _ in range(2)],
    }


def test_bench_obs(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # overhead: bounded, and the simulated outcome is untouched
    over = results["overhead"]
    assert over["ratio"] <= OVERHEAD_CEILING, (
        f"observability overhead {over['ratio']:.2f}x exceeds the "
        f"{OVERHEAD_CEILING}x ceiling")
    assert over["report_on"].to_json() == over["report_off"].to_json()
    offered = over["report_on"].data["totals"]["offered"]
    assert REDUCED or offered >= MIN_OFFERED

    # accuracy: every checked quantile inside the documented alpha bound
    acc = results["accuracy"]
    for row in acc["quantiles"]:
        assert row["rel_error"] <= acc["alpha"], (
            f"p{row['p']} off by {row['rel_error']:.4f} "
            f"(> alpha={acc['alpha']})")

    # determinism: a sequential rerun is byte-identical across the plane,
    # through the mid-run board kill — and the report is the same blob
    # the unobserved shared run produced
    (seq_report, seq, diag), (again_report, again, _) = results["identity"]
    for section in SECTIONS:
        assert seq[section] == again[section], (
            f"sequential rerun diverged in {section!r}")
    assert seq_report.to_json() == again_report.to_json() \
        == over["report_off"].to_json()
    verdicts = {r["name"]: r["verdict"] for r in diag["slo"]["targets"]}
    assert verdicts and seq_report.passed  # the SLO engine judged, and passed
    killed = diag["flight"]["fpga1"]["dumps"]
    assert any(d["reason"].startswith("board-kill:") for d in killed)
    assert all(validate_flight_dump(d) >= 1 for d in killed)
    profiler = CycleProfiler(diag["spans"])
    assert profiler.traces > 0

    rows = [
        ["overhead ratio", f"{over['ratio']:.2f}x",
         f"<= {OVERHEAD_CEILING}x"],
        ["offered requests", str(offered),
         "report bytes equal, plane on vs off"],
        ["worst quantile rel. error",
         f"{max(r['rel_error'] for r in acc['quantiles']):.4f}",
         f"<= alpha={acc['alpha']}"],
        ["sketch buckets for 50k samples", str(acc["sketch_bins"]),
         "bounded"],
        ["seq reruns (spans/stats/slo/flight)", "yes", "byte-identical"],
        ["kill dumps on fpga1", str(len(killed)), ">= 1, validated"],
        ["traces profiled", str(profiler.traces),
         f"{profiler.total_cycles:,} cycles attributed"],
    ]
    text = format_table(
        ["measure", "value", "bound"], rows,
        title=(f"O1 observability plane "
               f"({'reduced' if REDUCED else 'full'} config):"))
    record("O1", "Observability plane overhead, accuracy, determinism",
           text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    payload = {
        "reduced": REDUCED,
        "overhead_ceiling": OVERHEAD_CEILING,
        "overhead": {
            "wall_off_s": over["wall_off_s"],
            "wall_on_s": over["wall_on_s"],
            "ratio": over["ratio"],
            "offered": offered,
            "served": over["report_on"].data["totals"]["served"],
        },
        "accuracy": acc,
        "identity": {
            "byte_identical": True,
            "sections": list(SECTIONS),
            "kill_dumps": len(killed),
            "slo_verdicts": verdicts,
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
