"""Trace exporters: Chrome trace-event JSON (Perfetto) and text reports.

The Chrome trace-event format is the lingua franca of timeline viewers:
the exported file loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Spans become complete ("X") events on one track per
emitting source (tile monitor, NI, service, DRAM device), recorder events
become instants ("I") on their source's track, and telemetry series
become counter ("C") tracks, so a whole Apiary run — every request's
causal path over the per-tile utilization curves — is scrubbable in a
browser.  One simulated cycle is exported as one microsecond.

:func:`validate_chrome_trace` is the structural validator CI runs against
the demo's exported file: required keys, known phases, non-negative
durations, and monotonic timestamps.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.index import SpanIndex
from repro.obs.span import SpanRecorder
from repro.obs.telemetry import TelemetrySampler

__all__ = ["chrome_trace", "export_chrome_trace", "validate_chrome_trace",
           "run_report"]

#: Phases this exporter produces (subset of the Chrome trace-event spec).
_PHASES = {"X", "M", "C", "I"}
#: complete traces a run report shows in full (the rest are counted)
REPORT_TRACES = 5


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace(spans: SpanRecorder,
                 sampler: Optional[TelemetrySampler] = None) -> Dict[str, Any]:
    """Build a Chrome trace-event document from spans (+ optional counters).

    Spans land on one thread track per ``source``; events are exported
    as instants, and so are open (never-closed) spans so nothing is
    silently dropped.  Counter tracks come from the sampler's ring buffers.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_for(source: str) -> int:
        if source not in tids:
            tids[source] = len(tids) + 1
        return tids[source]

    for rec in spans:
        args = {"trace_id": rec.trace_id, "span_id": rec.span_id,
                "parent_id": rec.parent_id}
        for key, value in rec.detail.items():
            args[key] = _json_safe(value)
        base = {"name": rec.name, "cat": rec.category, "pid": 1,
                "tid": tid_for(rec.source), "args": args}
        if rec.closed and rec.span_id:
            events.append({**base, "ph": "X", "ts": rec.start,
                           "dur": rec.end - rec.start})
        else:
            events.append({**base, "ph": "I", "ts": rec.start, "s": "t"})

    if sampler is not None:
        for metric in sampler.metrics():
            nodes = sorted({n for (m, n) in sampler._series if m == metric})
            for node in nodes:
                label = metric if node < 0 else f"{metric}.tile{node}"
                for t, value in sampler.series(metric, node):
                    events.append({"name": label, "ph": "C", "pid": 1,
                                   "tid": 0, "ts": t,
                                   "args": {"value": value}})

    events.sort(key=lambda e: (e["ts"], e.get("dur", 0)))

    meta: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
        "args": {"name": "apiary-sim"},
    }]
    for source, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                     "ts": 0, "args": {"name": source}})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"timeUnit": "1 simulated cycle = 1us",
                      "source": "repro.obs"},
    }


def export_chrome_trace(path: str, spans: SpanRecorder,
                        sampler: Optional[TelemetrySampler] = None
                        ) -> Dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the document."""
    doc = chrome_trace(spans, sampler)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> int:
    """Structural validation of an exported trace; returns the event count.

    Raises ``ValueError`` on the first violation.  Checked: the document
    shape, per-event required keys, known phases, non-negative integer
    timestamps/durations, and monotonically non-decreasing ``ts`` across
    non-metadata events (the order viewers rely on).
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be a dict with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    last_ts = None
    for i, event in enumerate(events):
        for key in ("name", "ph", "pid", "ts"):
            if key not in event:
                raise ValueError(f"event {i} missing required key {key!r}")
        ph = event["ph"]
        if ph not in _PHASES:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        ts = event["ts"]
        if not isinstance(ts, int) or ts < 0:
            raise ValueError(f"event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise ValueError(f"event {i} has bad dur {dur!r}")
        if ph != "M":
            if last_ts is not None and ts < last_ts:
                raise ValueError(
                    f"event {i} ts {ts} goes backwards (prev {last_ts})")
            last_ts = ts
    return len(events)


def run_report(index: SpanIndex,
               sampler: Optional[TelemetrySampler] = None,
               stats: Optional[Any] = None) -> str:
    """Plain-text run report: trees + stage totals + heatmap + counters."""
    lines: List[str] = ["=== Apiary observability report ==="]
    complete = index.complete_traces()
    lines.append(f"traces: {len(index.trace_ids())} total, "
                 f"{len(complete)} complete")
    for tid in complete[:REPORT_TRACES]:
        tree = index.tree(tid)
        lines.append(f"\n-- trace {tid} "
                     f"(latency {index.latency(tid)} cyc) --")
        lines.append(tree.render())
        breakdown = index.stage_breakdown(tid)
        total = sum(breakdown.values()) or 1
        parts = ", ".join(f"{stage}={cyc} ({cyc / total:.0%})"
                          for stage, cyc in sorted(breakdown.items(),
                                                   key=lambda kv: -kv[1]))
        lines.append(f"  stages: {parts}")
    if len(complete) > REPORT_TRACES:
        lines.append(f"\n({len(complete) - REPORT_TRACES} more complete "
                     f"traces not shown)")
    totals = index.aggregate_stages()
    if totals:
        grand = sum(totals.values()) or 1
        lines.append("\n-- aggregate stage time (all complete traces) --")
        for stage, cyc in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {stage:<18} {cyc:>10} cyc  {cyc / grand:6.1%}")
    if sampler is not None and sampler.samples_taken:
        lines.append(f"\n-- NoC utilization heatmap (flits/cycle, last "
                     f"sample at {sampler.last_sample_at}) --")
        lines.append(sampler.heatmap_text())
    if stats is not None:
        snap = stats.snapshot()
        counters = snap.get("counters", {})
        if counters:
            lines.append("\n-- counters --")
            for name in sorted(counters):
                lines.append(f"  {name:<32} {counters[name]:>12.0f}")
    return "\n".join(lines)
