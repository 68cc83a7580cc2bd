"""The benchmark command: ``python -m perf.bench``.

Runs each workload in fresh child interpreters (``perf.worker``),
checks correctness, prints every metric by name with its unit, writes
``perf/out/latest.json`` and ends with one JSON line per workload:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off), ``--trace 1``
the per-layer metrics (one traced repetition beside a few untraced
ones); without ``--trace`` both are measured and printed.  Exit code 0
only if every correctness check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from perf.metrics import (
    END_TO_END,
    MIN_REPS,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_REPS,
    TRACE_REPS,
)
from perf.slicing import slice_floor, speed_factor
from perf.trace import LAYERS
from perf.workloads import WORKLOADS

__all__ = ["assemble", "check", "main"]

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT = os.path.join(_ROOT, "perf", "out", "latest.json")
#: a child may build, run MIN_REPS repetitions and set up SETUP_REPS times
_CHILD_TIMEOUT_S = 170


def _child(workload: str, seed: int, mode: str, **options: Any
           ) -> Dict[str, Any]:
    """Run ``perf.worker`` in a fresh interpreter; return its document."""
    command = [sys.executable, "-m", "perf.worker", "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=_ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=_CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(timed: Dict[str, Any], traced: Optional[Dict[str, Any]]
          ) -> List[str]:
    """The correctness gate: every way the runs disagree or misbehave."""
    reps = list(timed["reps"])
    problems: List[str] = []
    if len({len(rep["slices"]) for rep in reps}) != 1:
        problems.append("repetitions disagree on the number of slices")
    if any(rep["pending"] != reps[0]["pending"] for rep in reps):
        problems.append("pending-event samples differ between repetitions")
    everything = reps + ([traced["rep"]] if traced else [])
    if len({rep["digest"] for rep in everything}) != 1:
        problems.append("report sha256 differs between repetitions"
                        + (" (traced run included)" if traced else ""))
    for rep in everything:
        if not rep["resolved_exactly"]:
            problems.append("operations offered and operations resolved "
                            "do not balance")
            break
    if not all(rep["passed"] for rep in everything):
        problems.append("the scenario's SLO verdict is not 'pass'")
    return problems


def assemble(timed: Dict[str, Any], traced: Optional[Dict[str, Any]]
             ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(end-to-end, per-layer) values from the children's documents.

    Per-layer is empty without a traced document.
    """
    reps = timed["reps"]
    first = reps[0]
    # host seconds of this box -> seconds of the reference box
    factor = speed_factor([rep["calibration"] for rep in reps])
    floor_s = slice_floor([rep["slices"] for rep in reps])
    run_s = floor_s / factor
    end_to_end = {
        "setup_s": min([rep["setup_s"] for rep in reps]
                       + timed["extra_setups"]) / factor,
        "run_s": run_s,
        "served_per_host_s": first["served"] / run_s,
        "kcycles_per_host_s": first["kcycles"] / run_s,
        "peak_rss_mb": timed["peak_rss_mb"],
        "sim_p50_cycles": first["p50_cycles"],
        "sim_goodput_frac": first["served"] / first["attempted"],
    }
    if traced is None:
        return end_to_end, {}
    rep = traced["rep"]
    per_layer = dict.fromkeys((m.name for m in PER_LAYER), 0)
    per_layer.update({name: value for name, value in traced["trace"].items()
                      if name in per_layer})
    per_layer.update(rep["counts"])
    events = sum(traced["trace"][f"{layer}.events"] for layer in LAYERS)
    whole = [sum(r["slices"]) for r in reps]
    per_layer.update({
        "loadgen.latency_p99_cycles": rep["p99_cycles"],
        "sim.events_per_op": events / rep["served"],
        "sim.events_per_kcycle": events / rep["kcycles"],
        "sim.pending_events_max": max(first["pending"]),
        "setup.boot_s": min(r["setup_boot_s"] for r in reps),
        "setup.deploy_s": min(r["setup_deploy_s"] for r in reps),
        "setup.frontend_seal_s": min(r["setup_frontend_seal_s"]
                                     for r in reps),
        # the traced child does not calibrate: compare raw with raw
        "trace.overhead_ratio": sum(rep["slices"]) / floor_s,
        "host.rep_spread_frac": statistics.median(whole) / floor_s - 1.0,
        "host.speed_factor": factor,
        "host.slices": len(first["slices"]),
    })
    return end_to_end, per_layer


def _with_units(values: Dict[str, float], declared) -> Dict[str, Any]:
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in declared}


def run_workload(name: str, seed: int, seconds: float,
                 trace: Optional[int]) -> Dict[str, Any]:
    """Measure one workload; ``trace`` None = both kinds of metric."""
    if trace == 1:
        timed = _child(name, seed, "timed", seconds=0, min_reps=TRACE_REPS,
                       setup_reps=0)
    else:
        timed = _child(name, seed, "timed", seconds=seconds,
                       min_reps=MIN_REPS, setup_reps=SETUP_REPS)
    traced = _child(name, seed, "traced") if trace != 0 else None
    problems = check(timed, traced)
    end_to_end, per_layer = assemble(timed, traced)
    first = timed["reps"][0]
    metrics: Dict[str, Any] = {}
    if trace != 1:
        metrics.update(_with_units(end_to_end, END_TO_END))
    if trace != 0:
        metrics.update(_with_units(per_layer, PER_LAYER))
    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": metrics,
        "exact": [m.name for m in PER_LAYER if m.exact and trace != 0],
        "report_sha256": first["digest"],
        "repetitions": len(timed["reps"]),
        "slice_seconds": [rep["slices"] for rep in timed["reps"]],
        "calibration_seconds": [rep["calibration"]
                                for rep in timed["reps"]],
    }


def _print_table(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"repetitions={result['repetitions']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"report={result['report_sha256'][:16]}")
    for name, cell in result["metrics"].items():
        value = cell["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        flag = "  exact" if name in result["exact"] else ""
        print(f"  {name:<36} {shown:>14} {cell['unit']}{flag}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end only, 1 = per-layer only")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(name, args.seed, args.seconds, args.trace)
               for name in names]
    for result in results:
        _print_table(result)
    os.makedirs(os.path.dirname(_OUT), exist_ok=True)
    with open(_OUT, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "workloads": {r["workload"]: r for r in results}},
                  handle, indent=1)
    for result in results:
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
