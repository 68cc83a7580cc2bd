"""The segment-protection unit (SPU): Apiary's memory-isolation datapath.

Section 4.6: "To enforce capabilities, the monitor interposes on every
message and checks that the process has the correct capability" — for
memory traffic, the check is: does the sending tile hold a capability for
the target segment with the right access mode, and does the requested
``(offset, length)`` fall inside the segment?

The SPU is a pure checker/translator with a small cycle cost (it is a
bounds comparison plus a table lookup in hardware).  The memory *service*
(:mod:`repro.kernel.services`) composes it with the DRAM model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AccessDenied, SegmentFault
from repro.cap.capability import CapabilityRef, Rights
from repro.cap.captable import CapabilityStore
from repro.mem.segment import Segment, SegmentTable

__all__ = ["SegmentProtectionUnit", "CheckedAccess", "SPU_CHECK_CYCLES"]

#: Cycles a segment bounds-check + cap lookup costs in the monitor datapath.
SPU_CHECK_CYCLES = 1


@dataclass(frozen=True)
class CheckedAccess:
    """A validated memory access, ready for the DRAM backend."""

    physical_addr: int
    nbytes: int
    is_write: bool
    segment: Segment


class SegmentProtectionUnit:
    """Validates segment accesses against a capability store.

    One SPU instance serves one tile's monitor; ``holder`` is fixed at
    construction so a compromised accelerator cannot claim another tile's
    identity (the monitor, not the accelerator, stamps the holder).
    """

    def __init__(self, store: CapabilityStore, segments: SegmentTable, holder: str):
        self.store = store
        self.segments = segments
        self.holder = holder
        self.checks = 0
        self.faults = 0

    def check(
        self,
        cap_ref: CapabilityRef,
        offset: int,
        nbytes: int,
        is_write: bool,
    ) -> CheckedAccess:
        """Validate and translate one access.

        Raises
        ------
        AccessDenied: the capability is missing required rights or is not
            held by this tile.
        CapabilityRevoked: the capability was revoked (stale reference).
        SegmentFault: the range falls outside the segment.
        """
        self.checks += 1
        needed = Rights.WRITE if is_write else Rights.READ
        try:
            cap = self.store.lookup(self.holder, cap_ref, needed)
        except Exception:
            self.faults += 1
            raise
        if cap.segment_id is None:
            self.faults += 1
            raise AccessDenied(
                f"capability {cap_ref} is not a memory capability"
            )
        try:
            segment = self.segments.get(cap.segment_id)
            physical = segment.translate(offset, nbytes)
        except SegmentFault:
            self.faults += 1
            raise
        return CheckedAccess(
            physical_addr=physical,
            nbytes=nbytes,
            is_write=is_write,
            segment=segment,
        )
