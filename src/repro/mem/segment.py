"""Memory segments — Apiary's unit of isolation and allocation.

Section 4.6: "For simplicity and flexibility, we choose to do memory
isolation via segments with capabilities ... Segments allow more flexibility
in the size of an memory allocation, reducing resource stranding, while
capabilities give us isolation properties."

A :class:`Segment` is a contiguous ``[base, base+size)`` physical range with
an owner and a generation counter (bumped on revocation so stale references
fail).  :class:`SegmentTable` is the per-device registry the memory service
maintains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError, SegmentFault

__all__ = ["Segment", "SegmentTable"]


@dataclass
class Segment:
    """One allocated segment."""

    sid: int
    base: int
    size: int
    owner: str
    generation: int = 0
    live: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(f"segment size must be >= 1, got {self.size}")
        if self.base < 0:
            raise ConfigError(f"segment base must be >= 0, got {self.base}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """Whether the byte at ``addr`` lies inside the segment."""
        return self.base <= addr < self.end

    def translate(self, offset: int, nbytes: int = 1) -> int:
        """Segment-relative offset -> physical address, bounds-checked.

        Accelerators address memory *within their segment*; the monitor
        translates and enforces bounds — this is the isolation check.
        """
        if offset < 0 or offset + nbytes > self.size:
            raise SegmentFault(
                f"offset {offset}+{nbytes} outside segment {self.sid} "
                f"(size {self.size})"
            )
        if not self.live:
            raise SegmentFault(f"segment {self.sid} has been freed")
        return self.base + offset


class SegmentTable:
    """Registry of live segments with overlap invariants."""

    def __init__(self) -> None:
        self._segments: Dict[int, Segment] = {}
        self._next_sid = 1

    def create(self, base: int, size: int, owner: str, label: str = "") -> Segment:
        seg = Segment(sid=self._next_sid, base=base, size=size, owner=owner,
                      label=label)
        for other in self._segments.values():
            if other.live and not (seg.end <= other.base or other.end <= seg.base):
                raise ConfigError(
                    f"segment [{seg.base:#x},{seg.end:#x}) overlaps live "
                    f"segment {other.sid} [{other.base:#x},{other.end:#x})"
                )
        self._next_sid += 1
        self._segments[seg.sid] = seg
        return seg

    def get(self, sid: int) -> Segment:
        seg = self._segments.get(sid)
        if seg is None or not seg.live:
            raise SegmentFault(f"no live segment {sid}")
        return seg

    def free(self, sid: int) -> Segment:
        """Mark a segment dead; its id is never reused, generation bumps."""
        seg = self.get(sid)
        seg.live = False
        seg.generation += 1
        return seg

    def live_segments(self, owner: Optional[str] = None) -> List[Segment]:
        return [
            s for s in self._segments.values()
            if s.live and (owner is None or s.owner == owner)
        ]

    def find_by_addr(self, addr: int) -> Optional[Segment]:
        for seg in self._segments.values():
            if seg.live and seg.contains(addr):
                return seg
        return None

    def __len__(self) -> int:
        return sum(1 for s in self._segments.values() if s.live)
