"""The declared metrics: names, units, direction, bounds.

``BENCHMARK.json`` is generated from these tables by
``python -m perf.metrics`` and ``perf/tests`` checks the two agree.
All timings are host time unless the name starts with ``sim_``; the
end-to-end host times are calibrated to seconds of the reference box
(see :mod:`perf.slicing`), per-layer host times are as measured.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, NamedTuple

from perf.trace import HOT_KINDS, LAYERS, LINK_CALLBACKS
from perf.workloads import WORKLOADS

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER",
           "RUN_SECONDS", "benchmark_document"]

#: how long one run measures: at least this many seconds *and* at
#: least MIN_REPS repetitions of the workload
RUN_SECONDS = 12
MIN_REPS = 5
#: build-only repetitions on top of the timed ones, for ``setup_s``
SETUP_REPS = 10
#: sliced repetitions that accompany the traced one under ``--trace 1``
TRACE_REPS = 3


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which it may worsen
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: a deterministic count: repeats exactly on every run of one seed
    exact: bool


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "construct -> seal() returned: boot, deploy, front-end "
             "start, park at start_at (noc_flood: Network + 128 "
             "processes); minimum over all timed and build-only reps, "
             "calibrated"),
    EndToEnd("run_s", "s", "lower", 0.10,
             "noise-floor host seconds seal -> report: sum over slices "
             "of the minimum over repetitions, calibrated"),
    EndToEnd("served_per_host_s", "1/s", "higher", 0.10,
             "operations served / run_s (requests; packets delivered "
             "for noc_flood)"),
    EndToEnd("kcycles_per_host_s", "kcycle/s", "higher", 0.10,
             "simulated kilocycles start_at -> end of drain / run_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss of the measuring child after its timed reps"),
    EndToEnd("sim_p50_cycles", "cycles", "lower", 0.25,
             "served-latency median in simulated cycles (tenants' "
             "medians weighted by served; noc.packet_latency for "
             "noc_flood)"),
    EndToEnd("sim_goodput_frac", "ratio", "higher", 0.01,
             "served / offered"),
]


def _per_layer() -> List[PerLayer]:
    rows: List[PerLayer] = []
    for layer in LAYERS:
        rows += [PerLayer(f"{layer}.events", "count", "lower", True),
                 PerLayer(f"{layer}.self_s", "s", "lower", False),
                 PerLayer(f"{layer}.self_frac", "ratio", "lower", False)]
    rows += [
        PerLayer("sim.schedules_total", "count", "lower", True),
        PerLayer("sim.schedules_ring", "count", "lower", True),
        PerLayer("sim.schedules_heap", "count", "lower", True),
        PerLayer("sim.events_per_op", "count", "lower", True),
        PerLayer("sim.events_per_kcycle", "count", "lower", True),
        PerLayer("sim.loop_s", "s", "lower", False),
        PerLayer("sim.pending_events_max", "count", "lower", True),
    ]
    for kind in (*HOT_KINDS, LINK_CALLBACKS):
        rows += [PerLayer(f"{kind}.events", "count", "lower", True),
                 PerLayer(f"{kind}.self_s", "s", "lower", False)]
    rows += [
        PerLayer("loadgen.latency_p99_cycles", "cycles", "lower", True),
        PerLayer("noc.packets_delivered", "count", "higher", True),
        PerLayer("noc.flits_forwarded", "count", "lower", True),
        PerLayer("noc.packet_latency_p99_cycles", "cycles", "lower", True),
        PerLayer("kernel.monitor_messages", "count", "lower", True),
        PerLayer("net.frames_sent", "count", "lower", True),
        PerLayer("cluster.requests_admitted", "count", "higher", True),
        PerLayer("cluster.requests_refused", "count", "lower", True),
        PerLayer("cluster.batches_sent", "count", "lower", True),
        PerLayer("cluster.probes_sent", "count", "lower", True),
        PerLayer("cluster.failovers", "count", "lower", True),
        PerLayer("cluster.backend.window_calls", "count", "lower", True),
        PerLayer("cluster.backend.engine_s", "s", "lower", False),
        PerLayer("cluster.backend.protocol_s", "s", "lower", False),
        PerLayer("net.envelope.roundtrips", "count", "lower", True),
        PerLayer("net.envelope.pickle_s", "s", "lower", False),
        PerLayer("setup.boot_s", "s", "lower", False),
        PerLayer("setup.deploy_s", "s", "lower", False),
        PerLayer("setup.frontend_seal_s", "s", "lower", False),
        PerLayer("trace.overhead_ratio", "ratio", "lower", False),
        PerLayer("host.rep_spread_frac", "ratio", "lower", False),
        PerLayer("host.speed_factor", "ratio", "lower", False),
        PerLayer("host.slices", "count", "higher", True),
    ]
    return rows


PER_LAYER: List[PerLayer] = _per_layer()


def benchmark_document() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perf.bench"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    json.dump(benchmark_document(), sys.stdout, indent=2)
    sys.stdout.write("\n")
