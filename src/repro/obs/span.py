"""The board's one event log: causal spans plus instant events.

Spans answer "what happened *to this request*".  Every :class:`~repro.kernel.
message.Message` optionally carries a ``trace_id`` (one per root request)
and a ``span_id`` (the parent for whatever stage handles it next).  Each
instrumented stage — monitor egress/ingress, NoC transit, service dispatch,
DRAM access — opens a span parented under the id it received and closes it
when its work completes, so the recorder accumulates the raw material for a
per-request tree (:class:`~repro.obs.index.SpanIndex` rebuilds it).

Events answer "what happened" outside any request: a monitor denial, a
contained fault, a recovery, a chaos injection, a board kill.  An event is
a :class:`SpanRecord` with no trace, no ids and no duration (``span_id``
0, ``start == end``), reported through :meth:`SpanRecorder.event` — the
only way any layer announces an occurrence.

The emit path is zero-cost when disabled: every instrumented span site
guards on :attr:`SpanRecorder.enabled` before building any arguments,
:meth:`SpanRecorder.open` itself returns 0 immediately when disabled, and
:meth:`SpanRecorder.event` builds nothing when the recorder is disabled and
no flight sink is attached.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecord", "SpanRecorder"]


def _detail_text(detail: Dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in detail.items())


class SpanRecord:
    """One span: a named interval in one trace, parented under another span.

    ``end`` is -1 while the span is open; an end of -1 in a finished run
    means the stage never completed (the request timed out, the sim stopped
    mid-flight) — :class:`SpanIndex` reports such traces as incomplete.

    An instant event is the id-less case: ``trace_id``, ``span_id`` and
    ``parent_id`` all 0, category ``"event"``, ``name`` the dotted event
    name, ``start == end`` the cycle it happened.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "source", "start", "end", "detail")

    def __init__(self, trace_id: int, span_id: int, parent_id: int,
                 name: str, category: str, source: str, start: int,
                 detail: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.source = source
        self.start = start
        self.end = -1
        self.detail: Dict[str, Any] = detail if detail is not None else {}

    @property
    def closed(self) -> bool:
        return self.end >= 0

    @property
    def duration(self) -> int:
        """Cycles from open to close (-1 while open)."""
        if self.end < 0:
            return -1
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = self.end if self.closed else "…"
        return (f"<Span t{self.trace_id} s{self.span_id}<-{self.parent_id} "
                f"{self.name} {self.source} [{self.start},{end}]>")


class SpanRecorder:
    """Collects :class:`SpanRecord` objects for causal request tracing.

    Disabled by default and free when disabled: instrumented hot paths
    guard on :attr:`enabled` before touching any span machinery (the O1
    benchmark bounds the armed plane's overhead).
    """

    def __init__(self, id_base: int = 0):
        #: a plain attribute, not a property: every instrumented hot path
        #: reads it per message
        self.enabled = False
        self._records: List[SpanRecord] = []
        self._open: Dict[int, SpanRecord] = {}
        #: first id minus one; windowed cluster backends give each board's
        #: recorder a disjoint base (partition * 10^9) so trace/span ids
        #: allocated independently per partition never collide and the
        #: merged record set is identical however many processes produced
        #: it.  The default base 0 reproduces the shared-recorder ids.
        self.id_base = id_base
        self._next_trace = id_base
        self._next_span = id_base
        # flight-recorder rings fed every closed span and every event.
        # Sinks are always-on: events reach them with tracing off (spans
        # do not — no span opens while disabled, so close() never runs)
        self._flight_sinks: List[Any] = []

    def attach_flight(self, sink: Any) -> None:
        """Feed every subsequently closed span to ``sink.record_span``
        and every subsequent event to ``sink.record_event``."""
        self._flight_sinks.append(sink)

    def enable(self) -> None:
        self.enabled = True

    def clear(self) -> None:
        self._records.clear()
        self._open.clear()

    def absorb(self, other: "SpanRecorder") -> None:
        """Append another recorder's records (cluster span merge).

        Record identity is untouched — with disjoint ``id_base`` values the
        id spaces cannot collide — and per-recorder emission order is
        preserved, so absorbing per-partition recorders in partition order
        yields a deterministic merged record list.
        """
        self._records.extend(other._records)
        self._open.update(other._open)

    # -- emission --------------------------------------------------------

    def new_trace(self) -> int:
        """Allocate a trace id for a new root request (0 = untraced)."""
        if not self.enabled:
            return 0
        self._next_trace += 1
        return self._next_trace

    def open(self, trace_id: int, name: str, category: str, source: str,
             start: int, parent_id: int = 0, **detail: Any) -> int:
        """Open a span; returns its id (0 when disabled or untraced)."""
        if not self.enabled or not trace_id:
            return 0
        self._next_span += 1
        record = SpanRecord(trace_id, self._next_span, parent_id, name,
                            category, source, start, detail or None)
        self._records.append(record)
        self._open[self._next_span] = record
        return self._next_span

    def close(self, span_id: int, end: int, **detail: Any) -> None:
        """Close an open span (no-op for id 0 or an unknown/closed span)."""
        if not span_id:
            return
        record = self._open.pop(span_id, None)
        if record is None:
            return
        record.end = end
        if detail:
            record.detail.update(detail)
        if self._flight_sinks:
            for sink in self._flight_sinks:
                sink.record_span(record)

    def event(self, now: int, name: str, source: str, /,
              **detail: Any) -> None:
        """Record an instant occurrence: a cycle, a dotted name, a source.

        Consumes no trace or span id, so turning events on or off never
        shifts the ids spans get.  Kept as a record when enabled; rung
        into every attached flight sink regardless.
        """
        if self.enabled:
            record = SpanRecord(0, 0, 0, name, "event", source, now,
                                detail or None)
            record.end = now
            self._records.append(record)
        if self._flight_sinks:
            text = _detail_text(detail)
            for sink in self._flight_sinks:
                sink.record_event(now, name, source, text)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._records)

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def records(self, trace_id: Optional[int] = None) -> List[SpanRecord]:
        if trace_id is None:
            return list(self._records)
        return [rec for rec in self._records if rec.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        """Distinct trace ids in first-seen order (events have none)."""
        seen: Dict[int, None] = {}
        for rec in self._records:
            if rec.trace_id:
                seen.setdefault(rec.trace_id, None)
        return list(seen)

    def dump(self) -> List[tuple]:
        """Flatten to comparable tuples (the identity-check shape).

        Detail dicts are rendered through ``repr`` of their sorted items so
        any picklable payload compares deterministically.
        """
        return [
            (rec.trace_id, rec.span_id, rec.parent_id, rec.name, rec.category,
             rec.source, rec.start, rec.end, repr(sorted(rec.detail.items())))
            for rec in self._records
        ]

    def events(self, name: Optional[str] = None) -> Iterator[SpanRecord]:
        """Event records whose name starts with ``name``, lazily."""
        for rec in self._records:
            if not rec.span_id and (name is None
                                    or rec.name.startswith(name)):
                yield rec

    def format_events(self, name: Optional[str] = None,
                      limit: int = 50) -> str:
        """Human-readable event dump for debugging failed tests.

        Filters lazily and stops at ``limit`` — a million-record log with
        a narrow name prefix must not be materialized to print 50 lines.
        """
        return "\n".join(
            f"[{rec.start:>8}] {rec.name:<24} {rec.source:<20} "
            + _detail_text(rec.detail)
            for rec in islice(self.events(name), limit))
