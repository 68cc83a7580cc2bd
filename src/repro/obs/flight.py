"""Always-on bounded flight recorder: the last N things a board did.

A killed board takes its recent history with it — exactly the history an
operator needs to explain the kill.  The :class:`FlightRecorder` is the
aviation black box for a board: a fixed-size ring of the most recent
closed spans and events (chaos injections, fault containments, recovery
actions), fed as a sink on the board's ``SpanRecorder``, cheap enough to
leave on for the lifetime of a run, dumped automatically to a JSON
artifact the moment something dies.

Design constraints, in order:

* **bounded** — one ``deque(maxlen=RING_CAPACITY)``; an entry is a flat
  tuple, so memory is O(RING_CAPACITY) regardless of run length;
* **deterministic** — entries are pure functions of the simulation
  stream (span close order, fault order), so two identically-seeded runs
  produce byte-identical rings and dumps;
* **picklable** — the recorder holds no file handles or engine
  references, so a collected copy is a plain value;
* **validated** — :func:`validate_flight_dump` structurally checks a dump
  the way ``validate_chrome_trace`` checks a trace export, so CI can
  assert an artifact is readable before uploading it.

Dumps coalesce per cycle: a board kill reports one fault per tile within
the same cycle, and six dumps of the same ring would bury the one that
matters.  The recorder keeps the most recent :data:`MAX_KEPT_DUMPS` dump
documents in memory (tests and the cluster read them there) and writes
files only when a ``dump_dir`` is configured.

Must stay import-free of ``repro.sim``/``repro.cluster``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.span import SpanRecord

__all__ = ["FlightRecorder", "validate_flight_dump",
           "RING_CAPACITY", "MAX_KEPT_DUMPS"]

#: ring size — enough for several requests' worth of spans per board
RING_CAPACITY = 256
#: most recent dump documents kept in memory per recorder
MAX_KEPT_DUMPS = 8

#: entry kinds in the ring
_SPAN = "span"
_EVENT = "event"


class FlightRecorder:
    """Bounded ring of recent spans + events for one board."""

    def __init__(self, board: str = "board0",
                 dump_dir: Optional[str] = None):
        self.board = board
        self.dump_dir = dump_dir
        self._ring: Deque[Tuple] = deque(maxlen=RING_CAPACITY)
        self._seen = 0
        #: most recent dump documents, newest last (bounded)
        self.dumps: List[Dict] = []
        self._last_dump_cycle: Optional[int] = None

    # -- ingest ----------------------------------------------------------

    def record_span(self, rec: SpanRecord) -> None:
        """Ring a just-closed span (wired as a ``SpanRecorder`` sink)."""
        self._seen += 1
        self._ring.append((_SPAN, rec.trace_id, rec.span_id, rec.parent_id,
                           rec.name, rec.category, rec.source, rec.start,
                           rec.end))

    def record_event(self, now: int, kind: str, subject: str,
                     detail: str = "") -> None:
        """Ring an event (wired as a ``SpanRecorder`` sink)."""
        self._seen += 1
        self._ring.append((_EVENT, now, kind, subject, detail))

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def seen(self) -> int:
        """Entries ever recorded (>= len once the ring has wrapped)."""
        return self._seen

    def entries(self) -> List[Dict[str, Any]]:
        """The ring as JSON-shaped dicts, oldest first."""
        out: List[Dict[str, Any]] = []
        for entry in self._ring:
            if entry[0] == _SPAN:
                (_, trace_id, span_id, parent_id, name, category, source,
                 start, end) = entry
                out.append({"type": _SPAN, "trace_id": trace_id,
                            "span_id": span_id, "parent_id": parent_id,
                            "name": name, "category": category,
                            "source": source, "start": start, "end": end})
            else:
                _, now, kind, subject, detail = entry
                out.append({"type": _EVENT, "cycle": now, "kind": kind,
                            "subject": subject, "detail": detail})
        return out

    def snapshot(self) -> Dict[str, Any]:
        return {"board": self.board, "capacity": RING_CAPACITY,
                "seen": self._seen, "entries": self.entries()}

    def report(self) -> Dict[str, Any]:
        """Snapshot plus the retained dump documents (identity payloads)."""
        out = self.snapshot()
        out["dumps"] = list(self.dumps)
        return out

    # -- dumping ---------------------------------------------------------

    def dump(self, now: int, reason: str,
             path: Optional[str] = None) -> Optional[Dict]:
        """Freeze the ring into a dump document; at most one per cycle.

        A board kill raises one fault per tile in the same cycle; the
        first fault's dump already holds the history, so same-cycle
        repeats coalesce into it (the reason keeps the *first* trigger).
        Returns the document, or ``None`` when coalesced away.
        """
        if self._last_dump_cycle == now:
            return None
        self._last_dump_cycle = now
        doc = {"flight_recorder": 1, "board": self.board, "cycle": now,
               "reason": reason, "capacity": RING_CAPACITY,
               "seen": self._seen, "entries": self.entries()}
        self.dumps.append(doc)
        if len(self.dumps) > MAX_KEPT_DUMPS:
            del self.dumps[0]
        target = path
        if target is None and self.dump_dir is not None:
            target = os.path.join(
                self.dump_dir, f"flight_{self.board}_{now}.json")
        if target is not None:
            os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
            with open(target, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
        return doc


def validate_flight_dump(doc: Dict) -> int:
    """Structurally validate a dump document; returns its entry count.

    Checks what a post-mortem consumer needs: the format marker, board
    and trigger metadata, and per-entry required keys with plausible
    values.  Raises ``ValueError`` on the first violation.
    """
    if not isinstance(doc, dict) or doc.get("flight_recorder") != 1:
        raise ValueError("not a flight-recorder dump (missing marker)")
    for field, kind in (("board", str), ("cycle", int), ("reason", str),
                        ("capacity", int), ("seen", int),
                        ("entries", list)):
        if not isinstance(doc.get(field), kind):
            raise ValueError(f"dump field {field!r} missing or wrong type")
    if len(doc["entries"]) > doc["capacity"]:
        raise ValueError("more entries than capacity")
    if doc["seen"] < len(doc["entries"]):
        raise ValueError("seen count below ring occupancy")
    for i, entry in enumerate(doc["entries"]):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i} is not an object")
        if entry.get("type") == "span":
            for field in ("trace_id", "span_id", "parent_id", "start",
                          "end"):
                if not isinstance(entry.get(field), int):
                    raise ValueError(f"span entry {i}: bad {field!r}")
            for field in ("name", "category", "source"):
                if not isinstance(entry.get(field), str):
                    raise ValueError(f"span entry {i}: bad {field!r}")
        elif entry.get("type") == "event":
            if not isinstance(entry.get("cycle"), int):
                raise ValueError(f"event entry {i}: bad 'cycle'")
            for field in ("kind", "subject", "detail"):
                if not isinstance(entry.get(field), str):
                    raise ValueError(f"event entry {i}: bad {field!r}")
        else:
            raise ValueError(f"entry {i}: unknown type {entry.get('type')!r}")
    return len(doc["entries"])
