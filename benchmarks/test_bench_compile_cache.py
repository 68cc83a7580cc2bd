"""C1 — the reconfiguration tax: scale-up-ready time, warm vs cold cache.

The bitstream compile-and-cache acceptance run.  The same load step hits
a one-replica KV service twice:

* **cold** — the artifact cache is enabled but nothing was prefetched
  and placement is legacy round-robin, so the scale-up replica lands on
  a board that has never seen the design: the load pays a full synthesis
  run (megacycles) before the partial-reconfiguration write;
* **warm** — warm placement + prefetch are on and the design family was
  compiled ahead onto every board, so the same scale-up pays the
  reconfiguration write only.

Acceptance bar (pinned in ``BENCH_C1.json`` for the CI cache-smoke job):
warm scale-up-ready time at least ``SPEEDUP_FLOOR``x faster than cold,
prefetch accuracy 1.0 on the prefetched board, the three cache gauges
present in management-plane telemetry, and a byte-identical rerun.

``BENCH_PROFILE=reduced`` shrinks the pre-step phase for the CI job; the
synthesis/reconfiguration physics (and so the ratio) are unchanged.
"""

import json
import os

from conftest import REDUCED
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.sched.smoke import cache_step_smoke

#: documented acceptance bar: warm scale-up must beat cold by this factor
SPEEDUP_FLOOR = 5.0
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_C1.json")

KWARGS = dict(phase_a=200_000) if REDUCED else {}


def run_arm(warm):
    return cache_step_smoke(warm=warm, **KWARGS)


def test_bench_compile_cache_warm_vs_cold():
    cold = run_arm(warm=False)
    warm = run_arm(warm=True)

    for arm in (cold, warm):
        assert arm["completed"] > 0
        assert arm["ready_latency"] is not None, (
            f"{'warm' if arm['warm'] else 'cold'} arm never scaled up")
        # the gauges the tentpole promises, surfaced through telemetry()
        for key in ("bitcache_hit_rate", "bitcache_prefetch_accuracy",
                    "bitcache_synth_backlog"):
            assert key in arm["gauges"], f"telemetry lost {key}"

    # both arms land the new replica on the second board — the comparison
    # is warm-vs-cold on the same slot, not a placement artifact
    assert cold["new_replica_fpga"] == warm["new_replica_fpga"] == 1

    # cold pays synthesis + reconfiguration; warm pays reconfiguration
    # only (the prefetched artifact is a cache hit)
    assert warm["ready_latency"] == warm["reconfig_cycles"], (
        "warm scale-up paid more than the partial-reconfiguration write")
    assert cold["ready_latency"] > warm["ready_latency"]
    ratio = cold["ready_latency"] / warm["ready_latency"]
    assert ratio >= SPEEDUP_FLOOR, (
        f"warm scale-up only {ratio:.2f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)")

    # the warm arm's prefetch onto the scale-up board was used: perfect
    # accuracy on that board, and the hit shows up in its store
    assert warm["prefetched_boards"] == [1]
    board1 = warm["cache"]["fpga1"]
    assert board1["prefetch_accuracy"] == 1.0
    assert board1["hits"] >= 1.0
    cold_board1 = cold["cache"]["fpga1"]
    assert cold_board1["hits"] == 0.0  # nothing warmed it ahead of time
    assert cold_board1["misses"] >= 1.0

    # byte-identical rerun under the same seed (event log included)
    rerun = run_arm(warm=False)
    assert json.dumps(rerun, sort_keys=True) == \
        json.dumps(cold, sort_keys=True), "C1 run is not deterministic"

    rows = [
        ["cold (synthesize on demand)", f"{cold['ready_latency']:,}",
         f"fpga{cold['new_replica_fpga']}",
         f"{cold_board1['misses']:.0f}/{cold_board1['hits']:.0f}"],
        ["warm (prefetched artifact)", f"{warm['ready_latency']:,}",
         f"fpga{warm['new_replica_fpga']}",
         f"{board1['misses']:.0f}/{board1['hits']:.0f}"],
    ]
    text = format_table(
        ["cache state", "scale-up ready (cycles)", "landed on",
         "miss/hit on that board"],
        rows,
        title=("Scale-up-ready time through the bitstream "
               "compile-and-cache pipeline "
               f"({'reduced' if REDUCED else 'full'} config):"))
    text += (
        f"\n\nWarm scale-up is {ratio:.1f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x): reconfiguration write "
        f"{warm['reconfig_cycles']:,} cycles vs synthesis + write "
        f"{cold['ready_latency']:,} cycles.  Prefetch accuracy on the "
        f"scale-up board: {board1['prefetch_accuracy']:.2f}.\n")
    record("C1", "Bitstream cache kills the reconfiguration tax", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({
            "reduced": REDUCED,
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup": round(ratio, 3),
            "cold": cold,
            "warm": warm,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
