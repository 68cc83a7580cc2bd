"""S1 — scale-out serving: cluster throughput scaling + availability.

The cluster layer's acceptance run, from two library scenarios executed
by :class:`~repro.loadgen.runner.ScenarioRunner` — the reports are the
evidence.  Three questions:

1. **Scaling** — does goodput grow with the FPGA count when the boards
   are the bottleneck?  ``scale_out`` saturates 1/2/4 boards 4x with one
   open-loop tenant; the 1→2 goodput ratio must clear 1.5x with nothing
   failed or unresolved at any size.
2. **Availability** — ``board_kill`` loses board 1 of 2 a third of the
   way in; replication 2 leaves every shard a live replica, so every
   offered request is served and every SLO passes.
3. **Determinism** — the same seeded scenario twice must produce the
   same report bytes (the property every other benchmark leans on).

``BENCH_PROFILE=reduced`` compresses both timelines for the CI smoke job.
"""

import json
import os

from conftest import REDUCED, scale_timeline
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.loadgen import ScenarioRunner, get_scenario
from repro.loadgen.library import scale_out

FPGA_COUNTS = [1, 2] if REDUCED else [1, 2, 4]
#: documented acceptance bar for 1 -> 2 FPGAs
TARGET_SPEEDUP = 1.5
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_S1.json")


def _run(scenario):
    return ScenarioRunner(scale_timeline(scenario)).run()


def test_bench_cluster_scaleout():
    scaling = {n: _run(scale_out(n_fpgas=n)) for n in FPGA_COUNTS}
    rows = {n: scaling[n].tenants["load"] for n in FPGA_COUNTS}
    assert rows[1]["served"] > 0
    speedups = {n: rows[n]["goodput_per_kcycle"]
                / rows[1]["goodput_per_kcycle"] for n in FPGA_COUNTS}
    assert speedups[2] >= TARGET_SPEEDUP, (
        f"1->2 FPGA speedup {speedups[2]:.2f}x below the documented "
        f"{TARGET_SPEEDUP}x target")
    # saturation is shed at the door (drops), never lost in flight
    for n in FPGA_COUNTS:
        assert rows[n]["failed"] == 0 and rows[n]["unresolved"] == 0, (
            f"{n} board(s):\n{scaling[n].text()}")
        assert rows[n]["offered"] > 2 * rows[n]["served"]

    kill = _run(get_scenario("board_kill"))
    totals = kill.data["totals"]
    assert kill.passed and kill.matches_expectation(), kill.text()
    assert [e["action"] for e in kill.chaos_timeline] == ["kill"]
    assert totals["failed"] == 0 and totals["unresolved"] == 0
    assert totals["offered"] == totals["served"], (
        "requests lost after killing one FPGA despite replicas:\n"
        + kill.text())

    # byte-identical rerun under the same seed
    assert _run(scale_out(n_fpgas=2)) == scaling[2], \
        "cluster run is not deterministic"

    table = []
    for n in FPGA_COUNTS:
        row = rows[n]
        table.append([
            f"{n} FPGA(s)", 2 * n, row["offered"], row["served"],
            row["dropped"], f"{row['goodput_per_kcycle']:.3f}",
            f"{row['latency_p50']:,.0f}", f"{row['latency_p99']:,.0f}",
            f"{speedups[n]:.2f}x",
        ])
    text = format_table(
        ["cluster", "instances", "offered", "served", "dropped",
         "goodput/kcycle", "p50 cycles", "p99 cycles", "speedup"],
        table,
        title=("Scale-out serving: open-loop echo goodput vs FPGA count, "
               "4x saturated "
               f"({'reduced' if REDUCED else 'full'} config):"))
    text += (
        "\n\nAvailability (board_kill: board 1 of 2 dies at cycle "
        f"{kill.chaos_timeline[0]['at']:,} of "
        f"{kill.data['window']['duration']:,}, 4 shards x 2 replicas):\n"
        f"  offered / served : {totals['offered']} / {totals['served']}\n"
        f"  failed / unresolved: {totals['failed']} / "
        f"{totals['unresolved']}\n"
        f"  front-end failovers: {kill.data['frontend']['failovers']}\n"
        "  SLO verdicts: " + ", ".join(
            f"{r['name']}={r['verdict']}" for r in kill.slo_rows) + "\n")
    record("S1", "Scale-out cluster serving", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({
            "reduced": REDUCED,
            "target_speedup": TARGET_SPEEDUP,
            "scaling": {str(n): rows[n] for n in FPGA_COUNTS},
            "speedups": {str(n): round(speedups[n], 4)
                         for n in FPGA_COUNTS},
            "board_kill": {
                "passed": kill.passed,
                "totals": totals,
                "failovers": kill.data["frontend"]["failovers"],
                "slo_verdicts": {r["name"]: r["verdict"]
                                 for r in kill.slo_rows},
            },
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
