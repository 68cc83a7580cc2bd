"""Experiment report registry.

Benchmarks record the tables they reproduce here; the benchmark suite's
conftest dumps everything at the end of the run (so ``bench_output.txt``
contains the reproduced tables, not just timings), and each table is also
written to ``<RESULTS_DIR>/<experiment_id>.txt`` for EXPERIMENTS.md
(``bench_results/``; the benchmark conftest repoints reduced-profile runs
at a scratch directory so they never touch the committed baselines).
"""

from __future__ import annotations

import os
from typing import List, Tuple

__all__ = ["record", "render_all", "RESULTS_DIR"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "bench_results")

_reports: List[Tuple[str, str, str]] = []


def record(experiment_id: str, title: str, text: str) -> None:
    """Register one experiment's reproduced table/figure text."""
    # the first table an experiment records in a session replaces its
    # file; later ones append — so nothing ever needs wiping beforehand
    mode = "a" if any(r[0] == experiment_id for r in _reports) else "w"
    _reports.append((experiment_id, title, text))
    results_dir = os.path.abspath(RESULTS_DIR)
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{experiment_id}.txt")
    with open(path, mode) as fh:
        fh.write(f"== {title} ==\n{text}\n\n")


def render_all() -> str:
    """Everything recorded this session, for the terminal summary."""
    blocks = []
    for experiment_id, title, text in _reports:
        blocks.append(f"[{experiment_id}] {title}\n{text}")
    return "\n\n".join(blocks)
