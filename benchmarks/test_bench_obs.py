"""O1 — the observability plane: overhead, accuracy, and determinism.

Three claims, one run harness (``repro.obs.smoke.obs_plane_smoke``):

* **overhead** — arming the whole plane (tracing, per-board flight
  recorders, the SLO engine, sketch-backed stats) on the serving
  workload costs a bounded wall-clock factor versus the same workload
  with the plane off.  Ceiling asserted in CI: ``OVERHEAD_CEILING``.
  The *simulated* timeline is identical either way — observability
  never perturbs virtual time (pinned by the identity payload below).
* **accuracy** — the :class:`~repro.obs.sketch.QuantileSketch` that
  replaced exact-sample histograms on hot paths answers every quantile
  within its documented ``alpha`` relative error of the exact order
  statistic, measured against a real :class:`~repro.sim.Histogram` over
  the same deterministic long-tailed stream.
* **determinism** — with a board killed mid-run, the sequential oracle
  and the parallel worker pool produce byte-identical spans, per-board
  stats snapshots (sketch summaries included), SLO verdicts + alerts,
  and flight-recorder reports *including the kill dumps*.  This extends
  the P2 identity contract across the entire new plane.

The CI ``obs-smoke`` job runs the reduced configuration
(``BENCH_PROFILE=reduced``) and uploads the Chrome trace and the kill dump as
artifacts after validating both.
"""

import json
import math
import os
import time

from conftest import REDUCED
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.obs.sketch import QuantileSketch
from repro.obs.smoke import obs_plane_smoke
from repro.sim import Histogram

DURATION = 200_000 if REDUCED else 400_000
CLIENTS = 4 if REDUCED else 8
REQUESTS_PER_CLIENT = 60 if REDUCED else 150
TIMING_ROUNDS = 2 if REDUCED else 3
#: CI-enforced bound on enabled/disabled wall-clock ratio (measured
#: ~1.25x; headroom for noisy shared runners)
OVERHEAD_CEILING = 1.8
#: percentiles the accuracy claim is checked at
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_O1.json")


def _workload(**extra):
    base = dict(n_fpgas=2, duration=DURATION, clients=CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT)
    base.update(extra)
    return base


def _timed(observability):
    """Best-of-N wall clock for the serving run, plane on or off."""
    best, stats = math.inf, None
    for _ in range(TIMING_ROUNDS):
        t0 = time.perf_counter()
        stats = obs_plane_smoke(observability=observability, **_workload())
        best = min(best, time.perf_counter() - t0)
    return best, stats


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
    wall_off, stats_off = _timed(False)
    wall_on, stats_on = _timed(True)
    identity = {}
    for backend in ("sequential", "parallel"):
        identity[backend] = obs_plane_smoke(
            backend=backend, identity=True, **_workload())
    return {
        "overhead": {"wall_off_s": wall_off, "wall_on_s": wall_on,
                     "ratio": wall_on / wall_off,
                     "stats_off": stats_off, "stats_on": stats_on},
        "accuracy": _accuracy(),
        "identity": identity,
    }


def test_bench_obs(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # overhead: bounded, and the simulated outcome is untouched
    over = results["overhead"]
    assert over["ratio"] <= OVERHEAD_CEILING, (
        f"observability overhead {over['ratio']:.2f}x exceeds the "
        f"{OVERHEAD_CEILING}x ceiling")
    assert over["stats_on"]["completed"] == over["stats_off"]["completed"]
    assert over["stats_on"]["completed"] > 0

    # accuracy: every checked quantile inside the documented alpha bound
    acc = results["accuracy"]
    for row in acc["quantiles"]:
        assert row["rel_error"] <= acc["alpha"], (
            f"p{row['p']} off by {row['rel_error']:.4f} "
            f"(> alpha={acc['alpha']})")

    # determinism: sequential == parallel byte-for-byte across the plane,
    # through the mid-run board kill
    seq = results["identity"]["sequential"].pop("identity")
    par = results["identity"]["parallel"].pop("identity")
    for section in ("spans", "stats", "slo", "flight"):
        assert json.dumps(seq[section], sort_keys=True, default=repr) == \
            json.dumps(par[section], sort_keys=True, default=repr), (
            f"sequential/parallel divergence in {section!r}")
    seq_run = results["identity"]["sequential"]
    verdicts = {r["name"]: r["verdict"] for r in seq_run["slo"]["targets"]}
    assert verdicts  # the SLO engine judged something
    killed = seq_run["flight"]["fpga1"]
    assert any(r.startswith("board-kill:") for r in killed["dump_reasons"])
    assert all(n >= 1 for n in killed["dump_entries"])  # dumps validate

    rows = [
        ["overhead ratio", f"{over['ratio']:.2f}x",
         f"<= {OVERHEAD_CEILING}x"],
        ["worst quantile rel. error",
         f"{max(r['rel_error'] for r in acc['quantiles']):.4f}",
         f"<= alpha={acc['alpha']}"],
        ["sketch buckets for 50k samples", str(acc["sketch_bins"]),
         "bounded"],
        ["seq == par (spans/stats/slo/flight)", "yes", "byte-identical"],
        ["kill dumps on fpga1", str(killed["dumps"]), ">= 1, validated"],
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
            "completed": over["stats_on"]["completed"],
        },
        "accuracy": acc,
        "identity": {
            "byte_identical": True,
            "sections": ["spans", "stats", "slo", "flight"],
            "kill_dumps": killed["dumps"],
            "slo_verdicts": verdicts,
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
