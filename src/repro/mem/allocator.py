"""Segment allocators: first-fit, best-fit and buddy.

The D7 experiment compares segment allocation against page-based allocation
on stranding (how much memory is unusable) and fragmentation.  Apiary's
memory service uses :class:`FirstFitAllocator` by default; the others exist
for the allocator ablation.

All allocators deal in raw ``(base, size)`` extents over a single physical
range; :class:`repro.mem.segment.SegmentTable` layers identity/ownership on
top.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError, ConfigError

__all__ = ["Extent", "FirstFitAllocator", "BestFitAllocator", "BuddyAllocator"]

Extent = Tuple[int, int]  # (base, size)


class _FreeListAllocator:
    """Shared machinery: a sorted free list with coalescing on free."""

    def __init__(self, capacity: int, alignment: int = 64):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if alignment < 1 or (alignment & (alignment - 1)) != 0:
            raise ConfigError(f"alignment must be a power of two, got {alignment}")
        self.capacity = capacity
        self.alignment = alignment
        self._free: List[Extent] = [(0, capacity)]  # sorted by base
        self._live: Dict[int, int] = {}  # base -> size
        self.allocs = 0
        self.frees = 0
        self.failed = 0

    # -- accounting --------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(size for _base, size in self._free)

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    @property
    def largest_free_extent(self) -> int:
        return max((size for _b, size in self._free), default=0)

    def external_fragmentation(self) -> float:
        """1 - largest_free/total_free: how shattered the free space is."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_extent / free

    # -- operations ----------------------------------------------------------

    def _round(self, size: int) -> int:
        mask = self.alignment - 1
        return (size + mask) & ~mask

    def _pick(self, size: int) -> Optional[int]:
        """Index into the free list, or None.  Policy hook."""
        raise NotImplementedError

    def allocate(self, size: int) -> Extent:
        if size < 1:
            raise AllocationError(f"allocation size must be >= 1, got {size}")
        rounded = self._round(size)
        idx = self._pick(rounded)
        if idx is None:
            self.failed += 1
            raise AllocationError(
                f"no extent of {rounded} bytes (free={self.free_bytes}, "
                f"largest={self.largest_free_extent})"
            )
        base, extent_size = self._free.pop(idx)
        if extent_size > rounded:
            self._free.insert(idx, (base + rounded, extent_size - rounded))
        self._live[base] = rounded
        self.allocs += 1
        return base, rounded

    def free(self, base: int) -> None:
        size = self._live.pop(base, None)
        if size is None:
            raise AllocationError(f"free of unallocated base {base:#x}")
        self.frees += 1
        idx = bisect.bisect_left(self._free, (base, 0))
        self._free.insert(idx, (base, size))
        self._coalesce(idx)

    def _coalesce(self, idx: int) -> None:
        # merge with next
        if idx + 1 < len(self._free):
            base, size = self._free[idx]
            nbase, nsize = self._free[idx + 1]
            if base + size == nbase:
                self._free[idx] = (base, size + nsize)
                self._free.pop(idx + 1)
        # merge with previous
        if idx > 0:
            pbase, psize = self._free[idx - 1]
            base, size = self._free[idx]
            if pbase + psize == base:
                self._free[idx - 1] = (pbase, psize + size)
                self._free.pop(idx)

    def internal_waste(self, requested: int) -> int:
        """Bytes lost to alignment rounding for one request."""
        return self._round(requested) - requested


class FirstFitAllocator(_FreeListAllocator):
    """Takes the lowest-addressed extent that fits.  Fast, decent locality."""

    policy = "first-fit"

    def _pick(self, size: int) -> Optional[int]:
        for idx, (_base, extent_size) in enumerate(self._free):
            if extent_size >= size:
                return idx
        return None


class BestFitAllocator(_FreeListAllocator):
    """Takes the tightest-fitting extent: less stranding, more small holes."""

    policy = "best-fit"

    def _pick(self, size: int) -> Optional[int]:
        best_idx: Optional[int] = None
        best_size = None
        for idx, (_base, extent_size) in enumerate(self._free):
            if extent_size >= size and (best_size is None or extent_size < best_size):
                best_idx, best_size = idx, extent_size
        return best_idx


class BuddyAllocator:
    """Power-of-two buddy allocator — the page-like comparator.

    Rounds every request up to a power of two, so internal fragmentation is
    the price of O(log n) operations and trivial coalescing.  D7 uses this
    (and the paged MMU) as the foil for segments.
    """

    policy = "buddy"

    def __init__(self, capacity: int, min_block: int = 4096):
        if capacity & (capacity - 1) != 0:
            raise ConfigError(f"buddy capacity must be a power of two, got {capacity}")
        if min_block & (min_block - 1) != 0 or min_block < 1:
            raise ConfigError(f"min block must be a power of two, got {min_block}")
        if min_block > capacity:
            raise ConfigError("min block larger than capacity")
        self.capacity = capacity
        self.min_block = min_block
        self._orders = (capacity // min_block).bit_length() - 1
        self._free_by_order: Dict[int, List[int]] = {
            order: [] for order in range(self._orders + 1)
        }
        self._free_by_order[self._orders].append(0)
        self._live: Dict[int, int] = {}  # base -> order
        self.allocs = 0
        self.frees = 0
        self.failed = 0

    def _order_for(self, size: int) -> int:
        blocks = max(1, (size + self.min_block - 1) // self.min_block)
        order = (blocks - 1).bit_length()
        return order

    def block_size(self, order: int) -> int:
        return self.min_block << order

    @property
    def free_bytes(self) -> int:
        return sum(
            self.block_size(order) * len(bases)
            for order, bases in self._free_by_order.items()
        )

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    @property
    def largest_free_extent(self) -> int:
        for order in range(self._orders, -1, -1):
            if self._free_by_order[order]:
                return self.block_size(order)
        return 0

    def allocate(self, size: int) -> Extent:
        if size < 1:
            raise AllocationError(f"allocation size must be >= 1, got {size}")
        order = self._order_for(size)
        if order > self._orders:
            self.failed += 1
            raise AllocationError(f"request {size} exceeds capacity {self.capacity}")
        # find the smallest available order >= requested
        found = None
        for o in range(order, self._orders + 1):
            if self._free_by_order[o]:
                found = o
                break
        if found is None:
            self.failed += 1
            raise AllocationError(f"no block of order {order} available")
        base = self._free_by_order[found].pop()
        # split down to the requested order
        while found > order:
            found -= 1
            buddy = base + self.block_size(found)
            self._free_by_order[found].append(buddy)
        self._live[base] = order
        self.allocs += 1
        return base, self.block_size(order)

    def free(self, base: int) -> None:
        order = self._live.pop(base, None)
        if order is None:
            raise AllocationError(f"free of unallocated base {base:#x}")
        self.frees += 1
        # coalesce with the buddy while possible
        while order < self._orders:
            buddy = base ^ self.block_size(order)
            if buddy in self._free_by_order[order]:
                self._free_by_order[order].remove(buddy)
                base = min(base, buddy)
                order += 1
            else:
                break
        self._free_by_order[order].append(base)

    def internal_waste(self, requested: int) -> int:
        order = self._order_for(requested)
        if order > self._orders:
            return 0
        return self.block_size(order) - requested
