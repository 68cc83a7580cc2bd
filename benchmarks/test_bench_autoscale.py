"""S2 — tile autoscaling: convergence under a load step + chaos repair.

The scheduler/autoscaler acceptance run.  Three questions:

1. **Convergence** — a stateless KV service sits at one replica when a
   4x load step hits.  New replicas cost ~810k cycles of partial
   reconfiguration each, so the autoscaler must size the whole deficit
   in one decision.  Requests issued after the last scale-up replica
   comes online (plus a settling margin) must show p99 within 2x of the
   pre-step p99 — and the service must scale back down once the step
   ends.
2. **Chaos repair** — fail-stop one replica's tile mid-run; the control
   loop must replace it and return to full service with no operator in
   the loop.
3. **Determinism** — the same seeded run twice must produce a
   byte-identical event log and result JSON.

``BENCH_PROFILE=reduced`` shrinks phase durations for the CI smoke job.
"""

import json
import os

from conftest import REDUCED
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.sched.smoke import autoscale_chaos_smoke, autoscale_smoke

#: documented acceptance bar: post-convergence tail vs pre-step tail
TAIL_RATIO = 2.0
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_S2.json")

STEP_KWARGS = (
    dict(phase_a=200_000, phase_b=1_300_000, phase_c=400_000,
         settle_margin=150_000, drain=400_000)
    if REDUCED else {}
)


def run_step():
    return autoscale_smoke(**STEP_KWARGS)


def test_bench_autoscale_step_and_chaos():
    out = run_step()
    assert out["completed"] > 0
    assert out["failed"] == 0, (
        f"{out['failed']} requests lost during scaling")
    assert out["peak_replicas"] > 1, "autoscaler never reacted to the step"
    assert out["final_replicas"] == 1, "autoscaler never scaled back down"
    assert out["scale_downs"] >= 1
    assert out["post_samples"] > 0, "no requests after convergence"
    assert out["post_p99"] <= TAIL_RATIO * out["pre_p99"], (
        f"post-scale-up p99 {out['post_p99']:.0f} exceeds "
        f"{TAIL_RATIO}x pre-step p99 {out['pre_p99']:.0f}")

    chaos = autoscale_chaos_smoke()
    assert chaos["replacements"] >= 1, "killed replica was never replaced"
    assert chaos["recovered_at"] is not None
    assert chaos["final_ready"] == 2, "service ended below its floor"
    assert chaos["post_recovery_issued"] > 0
    assert chaos["post_recovery_ok"] == chaos["post_recovery_issued"], (
        "requests still failing after the replacement settled")

    # byte-identical rerun under the same seed (event log included)
    rerun = run_step()
    assert json.dumps(rerun, sort_keys=True) == \
        json.dumps(out, sort_keys=True), "autoscale run is not deterministic"

    rows = [
        ["pre-step (1 replica)", f"{out['pre_p50']:,.0f}",
         f"{out['pre_p99']:,.0f}", "1"],
        ["post-convergence", f"{out['post_p50']:,.0f}",
         f"{out['post_p99']:,.0f}", str(out["peak_replicas"])],
    ]
    text = format_table(
        ["window", "p50 cycles", "p99 cycles", "replicas"],
        rows,
        title=("Autoscaling a KV service through a 4x load step "
               f"({'reduced' if REDUCED else 'full'} config, "
               f"{out['reconfig_cycles_per_replica']:,} cycles "
               "reconfiguration per replica):"))
    text += (
        f"\n\nScale-up ready at +{out['scale_up_ready_at']:,} cycles; "
        f"{out['scale_ups']} scale-ups, {out['scale_downs']} scale-downs, "
        f"final replicas {out['final_replicas']}.\n"
        "Chaos: tile killed at "
        f"+{chaos['killed']['at']:,}, replaced at "
        f"+{chaos['replaced'][0][0]:,}, serving again at "
        f"+{chaos['recovered_at']:,}; "
        f"{chaos['post_recovery_ok']}/{chaos['post_recovery_issued']} "
        "post-recovery requests OK.\n")
    record("S2", "Tile autoscaling under a load step", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({
            "reduced": REDUCED,
            "tail_ratio_target": TAIL_RATIO,
            "step": out,
            "chaos": chaos,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
