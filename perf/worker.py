"""The measuring child: one workload, one mode, one fresh interpreter.

``perf.bench`` starts this module with ``PYTHONHASHSEED=0`` so that
neither dict/set layout nor leftover state from another workload
changes what a repetition costs.  It prints one JSON document as the
last line of its standard output.

``--mode timed``   sliced, untraced repetitions (fresh cluster each,
                   ``gc.collect()`` before each, GC left on) until both
                   ``--min-reps`` and ``--seconds`` are met, then
                   ``--setup-reps`` build-only repetitions.
``--mode traced``  one unsliced repetition under :mod:`perf.trace`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from perf.harness import run_repetition
from perf.metrics import MIN_REPS, SETUP_REPS
from perf.trace import Tracer, tracing
from perf.workloads import WORKLOADS, Workload

__all__ = ["measure_timed", "measure_traced", "main"]


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_timed(workload: Workload, seed: int, seconds: float,
                  min_reps: int, setup_reps: int) -> Dict[str, Any]:
    inputs = workload.build(seed)
    started = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    while (len(reps) < min_reps
           or time.perf_counter() - started < seconds):
        reps.append(run_repetition(workload, inputs, sliced=True))
    peak = _peak_rss_mb()
    setups = [run_repetition(workload, inputs, stop_at_seal=True)["setup_s"]
              for _ in range(setup_reps)]
    return {"reps": reps, "extra_setups": setups, "peak_rss_mb": peak}


def measure_traced(workload: Workload, seed: int) -> Dict[str, Any]:
    tracer = Tracer()
    with tracing(tracer):
        rep = run_repetition(workload, workload.build(seed), sliced=False,
                             on_seal=tracer.begin)
        tracer.end()
    return {"rep": rep, "trace": tracer.summary()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=MIN_REPS)
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "timed":
        result = measure_timed(workload, args.seed, args.seconds,
                               args.min_reps, args.setup_reps)
    else:
        result = measure_traced(workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
