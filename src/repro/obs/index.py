"""Per-request span trees, stage breakdowns, and critical paths.

:class:`SpanIndex` turns the flat record list a
:class:`~repro.obs.span.SpanRecorder` accumulates back into causality:
one tree per trace id, rooted at the span with no parent (the shell
``call``), children ordered by start time.

The stage breakdown is computed by an *innermost-wins timeline sweep* over
the root interval: at every cycle the deepest active span owns that cycle,
and cycles no instrumented span covers are attributed to ``"queueing"``
(egress/inbox channel waits, scheduling).  Attribution is therefore a
partition of the root interval — the per-stage cycle counts of a request
sum *exactly* to its end-to-end latency, which is the invariant the
tracing tests and the tracing demo assert.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.span import SpanRecord, SpanRecorder

__all__ = ["SpanNode", "SpanIndex", "QUEUE_STAGE"]

#: Stage name for root-interval cycles not covered by any child span.
QUEUE_STAGE = "queueing"


class SpanNode:
    """One span plus its children, ordered by start time."""

    __slots__ = ("record", "children")

    def __init__(self, record: SpanRecord):
        self.record = record
        self.children: List[SpanNode] = []

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        """Human-readable tree dump for reports and failed tests."""
        rec = self.record
        end = rec.end if rec.closed else "open"
        dur = f"{rec.duration:>6}" if rec.closed else "     ?"
        lines = [f"{'  ' * indent}{rec.name:<20} {rec.source:<10} "
                 f"[{rec.start:>8} .. {end:>8}] {dur} cyc"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class SpanIndex:
    """Reconstructs span trees from a recorder (or a record iterable)."""

    def __init__(self, spans: Union[SpanRecorder, Iterable[SpanRecord]]):
        self._by_trace: Dict[int, List[SpanRecord]] = {}
        for rec in spans:
            if rec.trace_id:  # events belong to no trace
                self._by_trace.setdefault(rec.trace_id, []).append(rec)

    def trace_ids(self) -> List[int]:
        return list(self._by_trace)

    def records(self, trace_id: int) -> List[SpanRecord]:
        return list(self._by_trace.get(trace_id, []))

    def root(self, trace_id: int) -> Optional[SpanRecord]:
        """The trace's root span: no parent, or a parent outside the trace."""
        records = self._by_trace.get(trace_id, [])
        ids = {rec.span_id for rec in records}
        for rec in records:
            if rec.parent_id == 0 or rec.parent_id not in ids:
                return rec
        return None

    def complete(self, trace_id: int) -> bool:
        """True when the trace has a root and every span closed."""
        records = self._by_trace.get(trace_id)
        if not records or self.root(trace_id) is None:
            return False
        return all(rec.closed for rec in records)

    def tree(self, trace_id: int) -> Optional[SpanNode]:
        records = self._by_trace.get(trace_id)
        if not records:
            return None
        nodes = {rec.span_id: SpanNode(rec) for rec in records}
        root_rec = self.root(trace_id)
        if root_rec is None:
            return None
        root = nodes[root_rec.span_id]
        for rec in records:
            if rec is root_rec:
                continue
            parent = nodes.get(rec.parent_id, root)
            parent.children.append(nodes[rec.span_id])
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.record.start,
                                              n.record.span_id))
        return root

    # -- timeline attribution -------------------------------------------

    def _depths(self, records: List[SpanRecord]) -> Dict[int, int]:
        by_id = {rec.span_id: rec for rec in records}
        depths: Dict[int, int] = {}

        def depth_of(span_id: int) -> int:
            if span_id in depths:
                return depths[span_id]
            rec = by_id[span_id]
            d = 0 if rec.parent_id not in by_id else (
                depth_of(rec.parent_id) + 1)
            depths[span_id] = d
            return d

        for rec in records:
            depth_of(rec.span_id)
        return depths

    def segment_owners(self, trace_id: int
                       ) -> List[Tuple[int, int, Optional[SpanRecord]]]:
        """Partition the root interval into ``(start, end, owner)`` pieces.

        The innermost (deepest; ties: latest-started) closed span active at
        each point owns it; uncovered time has owner ``None`` (queueing).
        The pieces tile ``[root.start, root.end]`` exactly.  This is the
        raw form :class:`~repro.obs.profile.CycleProfiler` consumes — it
        needs the owning *record* (for ancestry and source), not just the
        stage name :meth:`segments` reduces it to.
        """
        root = self.root(trace_id)
        if root is None or not root.closed:
            return []
        records = [rec for rec in self._by_trace[trace_id]
                   if rec is not root and rec.closed and rec.duration > 0]
        depths = self._depths(self._by_trace[trace_id])
        lo, hi = root.start, root.end
        if hi <= lo:
            return []
        # clamp children into the root interval and collect cut points
        spans = []
        for rec in records:
            start, end = max(rec.start, lo), min(rec.end, hi)
            if end > start:
                spans.append((start, end, rec))
        cuts = {lo, hi}
        for start, end, _rec in spans:
            cuts.add(start)
            cuts.add(end)
        points = sorted(cuts)
        pieces: List[Tuple[int, int, Optional[SpanRecord]]] = []
        for a, b in zip(points, points[1:]):
            active = [rec for start, end, rec in spans
                      if start <= a and end >= b]
            winner = max(active, key=lambda r: (depths[r.span_id],
                                                r.start, r.span_id)) \
                if active else None
            if pieces and pieces[-1][2] is winner:
                pieces[-1] = (pieces[-1][0], b, winner)
            else:
                pieces.append((a, b, winner))
        return pieces

    def segments(self, trace_id: int) -> List[Tuple[int, int, str]]:
        """Partition the root interval into ``(start, end, stage)`` pieces.

        The innermost (deepest; ties: latest-started) closed span active at
        each point owns it; uncovered time is :data:`QUEUE_STAGE`.  The
        pieces tile ``[root.start, root.end]`` exactly.
        """
        segments: List[Tuple[int, int, str]] = []
        for a, b, owner in self.segment_owners(trace_id):
            stage = owner.name if owner is not None else QUEUE_STAGE
            if segments and segments[-1][2] == stage:
                segments[-1] = (segments[-1][0], b, stage)
            else:
                segments.append((a, b, stage))
        return segments

    def stage_breakdown(self, trace_id: int) -> Dict[str, int]:
        """Cycles per stage; values sum to the request's measured latency."""
        out: Dict[str, int] = {}
        for start, end, stage in self.segments(trace_id):
            out[stage] = out.get(stage, 0) + (end - start)
        return out

    def critical_path(self, trace_id: int) -> List[Tuple[str, str, int, int]]:
        """The request's timeline as ``(stage, source, start, end)`` hops.

        This *is* the critical path of an RPC-shaped request: the root is a
        single causal chain, so the sequence of innermost spans over time is
        the sequence of stages the request was actually blocked on.
        """
        root = self.root(trace_id)
        if root is None:
            return []
        out = []
        for start, end, stage in self.segments(trace_id):
            source = root.source
            # find the span that owns this segment to report its source
            best = None
            for rec in self._by_trace[trace_id]:
                if (rec is not root and rec.closed and rec.name == stage
                        and rec.start <= start and rec.end >= end):
                    if best is None or rec.start >= best.start:
                        best = rec
            if best is not None:
                source = best.source
            out.append((stage, source, start, end))
        return out

    def latency(self, trace_id: int) -> int:
        """Root end-to-end latency in cycles (-1 if incomplete)."""
        root = self.root(trace_id)
        if root is None or not root.closed:
            return -1
        return root.duration

    # -- aggregation -----------------------------------------------------

    def complete_traces(self) -> List[int]:
        return [tid for tid in self._by_trace if self.complete(tid)]

    def aggregate_stages(self) -> Dict[str, int]:
        """Total cycles per stage across every complete trace."""
        totals: Dict[str, int] = {}
        for tid in self.complete_traces():
            for stage, cycles in self.stage_breakdown(tid).items():
                totals[stage] = totals.get(stage, 0) + cycles
        return totals
