"""Observability: tracing, telemetry, SLOs, profiling, flight recording.

The Apiary pitch (Design Goals, Programmability) is that because *every*
inter-accelerator interaction crosses the monitor/NoC boundary, the OS can
observe all of it.  This package is that observation layer, beside the
end-of-run :class:`~repro.sim.stats.StatsRegistry`:

* :class:`SpanRecorder` / :class:`SpanIndex` — the one event log per
  board.  Spans follow one request through injection, NoC hops, monitor
  interposition, service dispatch and DRAM access (rebuilt into
  per-request trees, critical paths and stage breakdowns whose cycle sums
  equal the measured end-to-end latency); ``SpanRecorder.event`` is how
  every layer reports an occurrence outside a request (denials, faults,
  recoveries, preemptions, chaos injections, board kills).
* :class:`TelemetrySampler` — ring-buffered per-tile time-series (inject
  backlog, buffered flits, denials, DRAM queue depth) and a NoC utilization
  heatmap, exposed mid-run via ``MgmtPlane.telemetry()``.
* :class:`QuantileSketch` — bounded-memory mergeable latency quantiles
  (DDSketch-style, documented ``alpha`` relative error) for hot paths that
  record for the lifetime of a run; registered via ``StatsRegistry.sketch``.
* :class:`SLOTarget` / :class:`SLOEngine` — declarative per-service and
  per-tenant objectives with multi-window fast/slow burn-rate alerting;
  verdicts and alerts are deterministic and PDES-mergeable.
* :class:`CycleProfiler` — cycle-accounting attribution over the span
  trees, emitting folded-stack flamegraph files and a top-N table.
* :class:`FlightRecorder` — always-on bounded ring of recent spans +
  events per board (a sink on the board's recorder, nothing more),
  dumped to a validated JSON artifact on fault/kill
  (:func:`validate_flight_dump` is the CI-side structural check).
* :func:`chrome_trace` / :func:`export_chrome_trace` — Chrome trace-event
  JSON loadable in Perfetto / ``chrome://tracing``; :func:`run_report` — a
  plain-text summary.

Everything is zero-cost when disabled: every instrumented hot path guards
on ``spans.enabled`` and ``spans.event`` keeps nothing; O1 pins the
overhead of the full plane end to end.
"""

from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    run_report,
    validate_chrome_trace,
)
from repro.obs.flight import FlightRecorder, validate_flight_dump
from repro.obs.index import QUEUE_STAGE, SpanIndex, SpanNode
from repro.obs.profile import CycleProfiler
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import SLOEngine, SLOTarget
from repro.obs.span import SpanRecord, SpanRecorder
from repro.obs.telemetry import TelemetrySampler

__all__ = [
    "SpanRecord",
    "SpanRecorder",
    "SpanIndex",
    "SpanNode",
    "QUEUE_STAGE",
    "TelemetrySampler",
    "QuantileSketch",
    "SLOTarget",
    "SLOEngine",
    "CycleProfiler",
    "FlightRecorder",
    "validate_flight_dump",
    "chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "run_report",
]
