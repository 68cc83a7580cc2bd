"""P2 — parallel simulation scaling: PDES workers vs the sequential oracle.

The parallel backend's contract has two halves (DESIGN.md, "Parallel
simulation"):

* **identity** — a windowed cluster run produces byte-identical reports,
  span trees, and stats snapshots whether board windows execute serially
  in-process (``backend="sequential"``) or on forked worker processes
  (``backend="parallel"``).  This half is asserted unconditionally, on
  every board count, on every machine.
* **speed** — with enough cores, the forked workers overlap board
  windows and the same run finishes faster.  Wall-clock is physics, not
  arithmetic: a 1-core container *cannot* show speedup, so the floor
  assertions are gated on the cores actually available
  (``len(os.sched_getaffinity(0)) >= boards + 1`` — one core per board
  worker plus the host partition).  The measured ratios and the core
  count are always recorded in ``bench_results/BENCH_P2.json`` so the
  numbers stay honest either way.

Workload: S1's ``scale_out`` library scenario, traced, at 1/2/4/8
boards — offered load and instances scale with the board count, so every
board is saturated inside each 500-cycle lookahead window.  Documented
target: >= 2.5x at 4 boards on a machine with >= 5 cores.  The CI
``pdes-smoke`` job runs the reduced configuration (``BENCH_PROFILE=reduced``,
1/2 boards, half the window) on 4-vCPU runners, where the modest 2-board
floor is active.
"""

import json
import os
import time

from conftest import REDUCED, scale_timeline
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.loadgen import ScenarioRunner
from repro.loadgen.library import scale_out

BOARD_COUNTS = [1, 2] if REDUCED else [1, 2, 4, 8]
TRACED = ClusterConfig(obs=ObsConfig(tracing=True))
#: documented target for the full configuration (ISSUE acceptance bar)
TARGET_SPEEDUP = 2.5
TARGET_BOARDS = 4
#: conservative CI tripwire for the reduced 2-board run on 4-vCPU runners
FLOOR_SPEEDUP = 1.15
FLOOR_BOARDS = 2
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_P2.json")

CORES = len(os.sched_getaffinity(0))


def _timed_run(backend, n_fpgas):
    runner = ScenarioRunner(scale_timeline(scale_out(n_fpgas=n_fpgas)),
                            backend=backend, config=TRACED)
    t0 = time.perf_counter()
    report = runner.run()
    wall = time.perf_counter() - t0
    diag = runner.diagnostics
    identity = {"report": report.to_json(),
                "spans": diag["spans"].dump(),
                "stats": json.dumps(diag["stats"], sort_keys=True)}
    return report.tenants["load"], identity, wall


def run_all():
    results = {}
    for boards in BOARD_COUNTS:
        seq_stats, seq_id, seq_wall = _timed_run("sequential", boards)
        par_stats, par_id, par_wall = _timed_run("parallel", boards)
        results[boards] = {
            "sequential": {"wall_s": seq_wall, "stats": seq_stats,
                           "identity": seq_id},
            "parallel": {"wall_s": par_wall, "stats": par_stats,
                         "identity": par_id},
            "speedup": seq_wall / par_wall,
        }
    return results


def test_bench_pdes(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # identity: byte-for-byte, on every board count, unconditionally.
    for boards, data in results.items():
        seq, par = data["sequential"], data["parallel"]
        for section in ("report", "spans", "stats"):
            assert seq["identity"][section] == par["identity"][section], (
                f"{boards} boards: {section} diverges")
        assert len(seq["identity"]["spans"]) > 0
        assert seq["stats"]["served"] > 0, (
            f"{boards} boards: the run served no traffic")

    # speed: floors only where the hardware can physically show them —
    # one core per board worker plus one for the host partition.
    floors = {}
    for boards, data in results.items():
        can_assert = CORES >= boards + 1
        floors[boards] = can_assert
        if not can_assert:
            continue
        if boards == FLOOR_BOARDS:
            assert data["speedup"] >= FLOOR_SPEEDUP, (
                f"{boards}-board speedup {data['speedup']:.2f}x below the "
                f"{FLOOR_SPEEDUP}x floor on a {CORES}-core machine")
        if boards == TARGET_BOARDS and not REDUCED:
            assert data["speedup"] >= TARGET_SPEEDUP, (
                f"{boards}-board speedup {data['speedup']:.2f}x below the "
                f"documented {TARGET_SPEEDUP}x target on a {CORES}-core "
                f"machine")

    rows = []
    for boards, data in results.items():
        rows.append([
            str(boards),
            f"{data['sequential']['wall_s']:.2f}",
            f"{data['parallel']['wall_s']:.2f}",
            f"{data['speedup']:.2f}x",
            "yes",
            "asserted" if floors[boards] else f"recorded ({CORES} cores)",
        ])
    text = format_table(
        ["boards", "seq wall s", "par wall s", "speedup", "identical",
         "floor"],
        rows,
        title=(f"PDES scaling, parallel workers vs sequential oracle "
               f"({'reduced' if REDUCED else 'full'} config, "
               f"{CORES} cores):"))
    record("P2", "Parallel simulation wall-clock scaling", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    payload = {
        "reduced": REDUCED,
        "cores": CORES,
        "target_speedup": TARGET_SPEEDUP,
        "target_boards": TARGET_BOARDS,
        "floor_speedup": FLOOR_SPEEDUP,
        "floor_boards": FLOOR_BOARDS,
        "results": {
            str(boards): {
                "sequential_wall_s": data["sequential"]["wall_s"],
                "parallel_wall_s": data["parallel"]["wall_s"],
                "speedup": data["speedup"],
                "byte_identical": True,
                "floor_asserted": floors[boards],
                "served": data["sequential"]["stats"]["served"],
                "goodput_per_kcycle":
                    data["sequential"]["stats"]["goodput_per_kcycle"],
                "spans": len(data["sequential"]["identity"]["spans"]),
            }
            for boards, data in results.items()
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
