"""Repeatability check: ``python -m perf.repeat``.

Runs the whole benchmark as two sets (A, B) of three runs each on the
same code and the same seed, alternating A/B so that slow drift of the
machine lands on both sets alike.  Prints, per workload and metric,
both medians, their relative gap and the metric's bound; exits non-zero
if any end-to-end gap exceeds its bound, or if an exact count or a
``sim_`` metric differs between any two runs.  The output is Markdown
(``perf/REPEATABILITY.md`` is this program's output on the tree that
introduced the benchmark).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Any, Dict, List, Optional

from perf.bench import run_workload
from perf.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from perf.workloads import WORKLOADS

__all__ = ["compare", "main"]

RUNS_PER_SET = 3


def _worse_by(metric, median_a: float, median_b: float) -> float:
    """How much worse B's median is than A's, as a share of A's
    (negative = better)."""
    if median_a == 0:
        return 0.0 if median_b == 0 else float("inf")
    change = (median_b - median_a) / abs(median_a)
    return change if metric.better == "lower" else -change


def compare(runs_a: List[Dict[str, Any]], runs_b: List[Dict[str, Any]]
            ) -> List[Dict[str, Any]]:
    """One row per metric of one workload, from its runs in each set."""
    rows = []
    for metric in (*END_TO_END, *PER_LAYER):
        values_a = [run["metrics"][metric.name]["value"] for run in runs_a]
        values_b = [run["metrics"][metric.name]["value"] for run in runs_b]
        median_a = statistics.median(values_a)
        median_b = statistics.median(values_b)
        gap = _worse_by(metric, median_a, median_b)
        bound = getattr(metric, "bound", None)
        must_repeat = (getattr(metric, "exact", False)
                       or metric.name.startswith("sim_"))
        problem = ""
        if must_repeat and len(set(values_a + values_b)) != 1:
            problem = "does not repeat exactly"
        elif bound is not None and abs(gap) > bound:
            problem = "gap exceeds bound"
        rows.append({"name": metric.name, "unit": metric.unit,
                     "a": median_a, "b": median_b, "gap": gap,
                     "bound": bound, "exact": must_repeat,
                     "problem": problem})
    return rows


def _print_rows(workload: str, rows: List[Dict[str, Any]]) -> None:
    print(f"\n## {workload}\n")
    print("| metric | unit | median A | median B | B worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.1%}"
        note = row["problem"] or ("exact" if row["exact"] else "")
        print(f"| `{row['name']}` | {row['unit']} | {row['a']:.6g} | "
              f"{row['b']:.6g} | {row['gap']:+.2%} | {bound} | {note} |")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="repeatable; default: all four")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    sets: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        label: {name: [] for name in names} for label in "AB"}
    for _ in range(RUNS_PER_SET):
        for label in "AB":
            for name in names:
                result = run_workload(name, args.seed, args.seconds, None)
                if not result["correct"]:
                    print(f"{name}: {result['problems']}", file=sys.stderr)
                    return 1
                sets[label][name].append(result)
    print("# Repeatability: two sets of runs of the same code\n")
    print(f"Seed {args.seed}, {RUNS_PER_SET} runs per set, alternating "
          f"A/B, at least {args.seconds:g} s and 5 repetitions per run.")
    print("`B worse by` is signed by each metric's direction; rows "
          "marked `exact` had the same value in all "
          f"{2 * RUNS_PER_SET} runs.")
    problems = 0
    for name in names:
        rows = compare(sets["A"][name], sets["B"][name])
        _print_rows(name, rows)
        problems += sum(1 for row in rows if row["problem"])
    print(f"\n{problems} problem(s).")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
