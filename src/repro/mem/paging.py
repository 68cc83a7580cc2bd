"""Paged MMU — the comparator for the segments-vs-pages question (D7).

Section 4.6 argues a fully paged translation system may be unnecessary for
Apiary: "page sizes limit flexibility in allocation sizes" and "it is
unclear that the complexity of a paged system is necessary."  To measure
rather than assert that, this module implements the alternative: a
page-table MMU with a TLB, in the style of the CPU-coupled FPGA shells the
paper cites (Coyote's striped/hugepage TLB, [28]).

Metrics the D7 bench pulls out: internal fragmentation (page rounding),
translation cost (TLB hit/miss cycles), and table overhead (PTE storage).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError, ConfigError, SegmentFault

__all__ = ["PagedMmu", "TLB_HIT_CYCLES", "TLB_MISS_CYCLES", "PTE_BYTES"]

TLB_HIT_CYCLES = 1
#: A miss walks a page table held in on-card DRAM: tens of cycles.
TLB_MISS_CYCLES = 24
PTE_BYTES = 8


class PagedMmu:
    """A single-address-space paged MMU with a per-process ASID tag.

    Parameters
    ----------
    capacity: physical bytes managed.
    page_bytes: the (single, fixed) page size — the paper's point about
        "a single or a small, fixed choice of page sizes".
    tlb_entries: TLB capacity (LRU replacement).
    """

    def __init__(self, capacity: int, page_bytes: int = 4096, tlb_entries: int = 64):
        if page_bytes < 1 or page_bytes & (page_bytes - 1) != 0:
            raise ConfigError(f"page size must be a power of two, got {page_bytes}")
        if capacity < page_bytes:
            raise ConfigError("capacity smaller than one page")
        if tlb_entries < 1:
            raise ConfigError("TLB needs at least one entry")
        self.capacity = capacity
        self.page_bytes = page_bytes
        self.tlb_entries = tlb_entries
        self._frames_total = capacity // page_bytes
        self._free_frames: List[int] = list(range(self._frames_total - 1, -1, -1))
        #: (asid, vpn) -> pfn
        self._page_table: Dict[Tuple[str, int], int] = {}
        #: virtual allocation cursors per ASID (bump allocation of VA space)
        self._va_cursor: Dict[str, int] = {}
        #: allocations: (asid, va_base) -> (pages, requested_bytes)
        self._allocs: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._tlb: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.allocs = 0
        self.frees = 0
        self.failed = 0

    # -- allocation ----------------------------------------------------------

    def allocate(self, asid: str, size: int) -> int:
        """Map ``size`` bytes for ``asid``; returns the virtual base."""
        if size < 1:
            raise AllocationError(f"allocation size must be >= 1, got {size}")
        pages = (size + self.page_bytes - 1) // self.page_bytes
        if pages > len(self._free_frames):
            self.failed += 1
            raise AllocationError(
                f"need {pages} frames, only {len(self._free_frames)} free"
            )
        va_base = self._va_cursor.get(asid, 0)
        vpn_base = va_base // self.page_bytes
        for i in range(pages):
            pfn = self._free_frames.pop()
            self._page_table[(asid, vpn_base + i)] = pfn
        self._va_cursor[asid] = va_base + pages * self.page_bytes
        self._allocs[(asid, va_base)] = (pages, size)
        self.allocs += 1
        return va_base

    def free(self, asid: str, va_base: int) -> None:
        entry = self._allocs.pop((asid, va_base), None)
        if entry is None:
            raise AllocationError(f"free of unmapped va {va_base:#x} for {asid!r}")
        pages, _requested = entry
        vpn_base = va_base // self.page_bytes
        for i in range(pages):
            pfn = self._page_table.pop((asid, vpn_base + i))
            self._free_frames.append(pfn)
            self._tlb.pop((asid, vpn_base + i), None)
        self.frees += 1

    def internal_waste(self, requested: int) -> int:
        """Bytes lost to page rounding for one request."""
        pages = (requested + self.page_bytes - 1) // self.page_bytes
        return pages * self.page_bytes - requested

    def total_internal_waste(self) -> int:
        return sum(
            pages * self.page_bytes - requested
            for pages, requested in self._allocs.values()
        )

    def table_bytes(self) -> int:
        """PTE storage currently needed (the paged system's overhead)."""
        return len(self._page_table) * PTE_BYTES

    # -- translation -----------------------------------------------------------

    def translate(self, asid: str, va: int, nbytes: int = 1) -> Tuple[int, int]:
        """Translate ``va`` for ``asid``; returns (physical_addr, cycles).

        Accesses spanning a page boundary translate each page (and pay the
        TLB for each).  Unmapped access raises :class:`SegmentFault`.
        """
        if nbytes < 1:
            raise SegmentFault("zero-length access")
        cycles = 0
        first_pa: Optional[int] = None
        cursor = va
        remaining = nbytes
        while remaining > 0:
            vpn = cursor // self.page_bytes
            offset = cursor % self.page_bytes
            key = (asid, vpn)
            if key in self._tlb:
                self._tlb.move_to_end(key)
                pfn = self._tlb[key]
                self.tlb_hits += 1
                cycles += TLB_HIT_CYCLES
            else:
                pfn = self._page_table.get(key, -1)
                if pfn < 0:
                    raise SegmentFault(
                        f"unmapped va {cursor:#x} for asid {asid!r}"
                    )
                self.tlb_misses += 1
                cycles += TLB_MISS_CYCLES
                self._tlb[key] = pfn
                if len(self._tlb) > self.tlb_entries:
                    self._tlb.popitem(last=False)
            if first_pa is None:
                first_pa = pfn * self.page_bytes + offset
            step = min(remaining, self.page_bytes - offset)
            cursor += step
            remaining -= step
        assert first_pa is not None
        return first_pa, cycles
