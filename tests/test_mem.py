"""Unit tests for the memory substrate: DRAM, segments, allocators, SPU, MMU."""

import pytest

from repro.cap import CapabilityStore, Rights
from repro.errors import (
    AccessDenied,
    AllocationError,
    CapabilityRevoked,
    ConfigError,
    SegmentFault,
)
from repro.mem import (
    BestFitAllocator,
    BuddyAllocator,
    DDR4_TIMING,
    Dram,
    DramTiming,
    FirstFitAllocator,
    PagedMmu,
    SegmentProtectionUnit,
    SegmentTable,
    TLB_HIT_CYCLES,
    TLB_MISS_CYCLES,
)
from repro.mem.allocator import ALIGNMENT
from repro.mem.dram import BANKS_PER_CHANNEL, ROW_BYTES
from repro.sim import Engine


class TestDram:
    def run_access(self, dram, eng, addr, nbytes, is_write=False):
        result = {}

        def proc():
            latency = yield from dram.access(addr, nbytes, is_write)
            result["latency"] = latency

        p = eng.process(proc())
        eng.run_until_done(p.done)
        return result["latency"]

    def test_row_hit_faster_than_conflict(self):
        eng = Engine()
        dram = Dram(eng, channels=1)
        first = self.run_access(dram, eng, 0, 64)          # miss (opens row 0)
        hit = self.run_access(dram, eng, 64, 64)           # same row -> hit
        # the next row of bank 0: a conflict
        conflict = self.run_access(dram, eng, BANKS_PER_CHANNEL * ROW_BYTES,
                                   64)
        assert hit < first < conflict

    def test_bank_interleaving_classifies_hits(self):
        eng = Engine()
        dram = Dram(eng, channels=1)
        # sequential rows land in different banks: no conflicts
        for row in range(BANKS_PER_CHANNEL):
            self.run_access(dram, eng, row * ROW_BYTES, 64)
        totals = dram.totals()
        assert totals["row_conflicts"] == 0
        assert totals["row_misses"] == BANKS_PER_CHANNEL

    def test_large_access_spans_channels(self):
        eng = Engine()
        dram = Dram(eng, channels=2)
        self.run_access(dram, eng, 0, 16384)
        moved = [ch.bytes_moved for ch in dram.channels]
        assert all(m > 0 for m in moved)
        assert sum(moved) == 16384

    def test_write_read_counters(self):
        eng = Engine()
        dram = Dram(eng)
        self.run_access(dram, eng, 0, 64, is_write=True)
        self.run_access(dram, eng, 0, 64, is_write=False)
        assert dram.totals()["writes"] == 1
        assert dram.totals()["reads"] == 1

    def test_out_of_range_address_rejected(self):
        eng = Engine()
        dram = Dram(eng, capacity_bytes=1 << 20)
        with pytest.raises(ConfigError):
            self.run_access(dram, eng, 1 << 20, 64)

    def test_timing_validation(self):
        with pytest.raises(ConfigError):
            DramTiming(row_hit=10, row_miss=5, row_conflict=20)

    def test_concurrent_accesses_share_bus(self):
        eng = Engine()
        dram = Dram(eng, channels=1)
        done = []

        def proc(addr):
            yield from dram.access(addr, 4096)
            done.append(eng.now)

        eng.process(proc(0))
        eng.process(proc(4096))  # different bank, same channel/bus
        eng.run()
        # bursts serialize on the bus: second finisher later than solo time
        assert done[1] > done[0]


class TestSegments:
    def test_create_and_translate(self):
        table = SegmentTable()
        seg = table.create(base=0x1000, size=0x100, owner="tile0")
        assert seg.translate(0, 16) == 0x1000
        assert seg.translate(0xF0, 16) == 0x10F0

    def test_out_of_bounds_translate_faults(self):
        seg = SegmentTable().create(base=0, size=64, owner="t")
        with pytest.raises(SegmentFault):
            seg.translate(60, 8)
        with pytest.raises(SegmentFault):
            seg.translate(-1, 1)

    def test_overlap_rejected(self):
        table = SegmentTable()
        table.create(base=0, size=100, owner="a")
        with pytest.raises(ConfigError):
            table.create(base=50, size=100, owner="b")

    def test_adjacent_segments_allowed(self):
        table = SegmentTable()
        table.create(base=0, size=100, owner="a")
        table.create(base=100, size=100, owner="b")
        assert len(table) == 2

    def test_freed_segment_faults_and_space_reusable(self):
        table = SegmentTable()
        seg = table.create(base=0, size=100, owner="a")
        table.free(seg.sid)
        with pytest.raises(SegmentFault):
            seg.translate(0, 1)
        with pytest.raises(SegmentFault):
            table.get(seg.sid)
        table.create(base=0, size=100, owner="b")  # space reusable

    def test_find_by_addr(self):
        table = SegmentTable()
        seg = table.create(base=0x200, size=0x40, owner="a")
        assert table.find_by_addr(0x210).sid == seg.sid
        assert table.find_by_addr(0x100) is None

    def test_live_segments_by_owner(self):
        table = SegmentTable()
        table.create(base=0, size=10, owner="a")
        table.create(base=10, size=10, owner="b")
        table.create(base=20, size=10, owner="a")
        assert len(table.live_segments("a")) == 2


@pytest.mark.parametrize("alloc_cls", [FirstFitAllocator, BestFitAllocator])
class TestFreeListAllocators:
    def test_allocate_free_roundtrip(self, alloc_cls):
        alloc = alloc_cls(1 << 20)
        base, size = alloc.allocate(1000)
        assert size >= 1000
        alloc.free(base)
        assert alloc.free_bytes == 1 << 20

    def test_coalescing_restores_whole_extent(self, alloc_cls):
        alloc = alloc_cls(1 << 16)
        extents = [alloc.allocate(4096)[0] for _ in range(8)]
        for base in extents:
            alloc.free(base)
        assert alloc.largest_free_extent == 1 << 16
        assert alloc.external_fragmentation() == 0.0

    def test_exhaustion_raises(self, alloc_cls):
        alloc = alloc_cls(4096)
        alloc.allocate(4096)
        with pytest.raises(AllocationError):
            alloc.allocate(1)
        assert alloc.failed == 1

    def test_double_free_rejected(self, alloc_cls):
        alloc = alloc_cls(4096)
        base, _size = alloc.allocate(64)
        alloc.free(base)
        with pytest.raises(AllocationError):
            alloc.free(base)

    def test_alignment_rounding(self, alloc_cls):
        alloc = alloc_cls(1 << 16)
        _base, size = alloc.allocate(1)
        assert size == ALIGNMENT
        assert alloc.internal_waste(1) == ALIGNMENT - 1

    def test_odd_sizes_supported(self, alloc_cls):
        """Segments' flexibility claim: arbitrary sizes, small waste."""
        alloc = alloc_cls(1 << 20)
        _base, size = alloc.allocate(100_001)
        assert size - 100_001 < ALIGNMENT  # waste below one alignment unit


class TestBestFitBehaviour:
    def test_best_fit_picks_tightest_hole(self):
        alloc = BestFitAllocator(1 << 16)
        a, _sz = alloc.allocate(4096)
        guard, _sz = alloc.allocate(64)  # keeps the two holes apart
        b, _sz = alloc.allocate(128)
        alloc.allocate(4096)
        alloc.free(a)  # 4096-byte hole at 0
        alloc.free(b)  # 128-byte hole after the guard
        base, _sz = alloc.allocate(128)
        assert base == b  # reused the tight hole, not the big one

    def test_first_fit_picks_lowest_hole(self):
        alloc = FirstFitAllocator(1 << 16)
        a, _sz = alloc.allocate(4096)
        guard, _sz = alloc.allocate(64)
        b, _sz = alloc.allocate(128)
        alloc.allocate(4096)
        alloc.free(a)
        alloc.free(b)
        base, _sz = alloc.allocate(128)
        assert base == a  # lowest hole wins even though b fits tighter


class TestBuddyAllocator:
    def test_rounds_to_power_of_two(self):
        alloc = BuddyAllocator(1 << 20, min_block=4096)
        _base, size = alloc.allocate(5000)
        assert size == 8192
        assert alloc.internal_waste(5000) == 8192 - 5000

    def test_buddy_coalescing(self):
        alloc = BuddyAllocator(1 << 16, min_block=4096)
        bases = [alloc.allocate(4096)[0] for _ in range(16)]
        for base in bases:
            alloc.free(base)
        assert alloc.largest_free_extent == 1 << 16

    def test_split_and_exhaust(self):
        alloc = BuddyAllocator(1 << 14, min_block=4096)
        for _ in range(4):
            alloc.allocate(4096)
        with pytest.raises(AllocationError):
            alloc.allocate(1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BuddyAllocator(1000)  # not a power of two
        with pytest.raises(ConfigError):
            BuddyAllocator(1 << 12, min_block=1 << 13)

    def test_internal_waste_exceeds_segment_allocator(self):
        """The quantitative heart of D7: pages/buddy strand more memory."""
        buddy = BuddyAllocator(1 << 24, min_block=4096)
        segments = FirstFitAllocator(1 << 24)
        sizes = [5000, 70_000, 300_000, 1_000_001, 9_999]
        buddy_waste = sum(buddy.internal_waste(s) for s in sizes)
        seg_waste = sum(segments.internal_waste(s) for s in sizes)
        assert buddy_waste > 10 * seg_waste


class TestPagedMmu:
    def test_allocate_translate_roundtrip(self):
        mmu = PagedMmu(1 << 20, page_bytes=4096)
        va = mmu.allocate("p1", 10_000)
        pa, cycles = mmu.translate("p1", va, 64)
        assert cycles == TLB_MISS_CYCLES  # cold TLB
        pa2, cycles2 = mmu.translate("p1", va, 64)
        assert pa2 == pa
        assert cycles2 == TLB_HIT_CYCLES

    def test_asid_isolation(self):
        mmu = PagedMmu(1 << 20)
        va = mmu.allocate("p1", 4096)
        with pytest.raises(SegmentFault):
            mmu.translate("p2", va, 1)

    def test_unmapped_access_faults(self):
        mmu = PagedMmu(1 << 20)
        with pytest.raises(SegmentFault):
            mmu.translate("p1", 0, 1)

    def test_page_rounding_waste(self):
        mmu = PagedMmu(1 << 20, page_bytes=4096)
        mmu.allocate("p1", 1)
        assert mmu.total_internal_waste() == 4095
        assert mmu.internal_waste(4097) == 4095

    def test_free_returns_frames(self):
        mmu = PagedMmu(1 << 16, page_bytes=4096)
        va = mmu.allocate("p1", 1 << 16)
        with pytest.raises(AllocationError):
            mmu.allocate("p2", 4096)
        mmu.free("p1", va)
        mmu.allocate("p2", 4096)

    def test_tlb_eviction_lru(self):
        mmu = PagedMmu(1 << 24, page_bytes=4096, tlb_entries=2)
        va = mmu.allocate("p1", 3 * 4096)
        mmu.translate("p1", va, 1)            # page0 miss
        mmu.translate("p1", va + 4096, 1)     # page1 miss
        mmu.translate("p1", va + 8192, 1)     # page2 miss, evicts page0
        _pa, cycles = mmu.translate("p1", va, 1)
        assert cycles == TLB_MISS_CYCLES

    def test_cross_page_access_translates_both(self):
        mmu = PagedMmu(1 << 20, page_bytes=4096)
        va = mmu.allocate("p1", 8192)
        _pa, cycles = mmu.translate("p1", va + 4000, 200)
        assert cycles == 2 * TLB_MISS_CYCLES

    def test_table_overhead_grows_with_mapping(self):
        mmu = PagedMmu(1 << 24, page_bytes=4096)
        assert mmu.table_bytes() == 0
        mmu.allocate("p1", 1 << 20)
        assert mmu.table_bytes() == (1 << 20) // 4096 * 8


class TestSegmentProtectionUnit:
    def setup_spu(self):
        store = CapabilityStore()
        table = SegmentTable()
        seg = table.create(base=0x1000, size=0x1000, owner="tile0")
        ref = store.mint("tile0", Rights.rw(), segment_id=seg.sid)
        spu = SegmentProtectionUnit(store, table, holder="tile0")
        return store, table, seg, ref, spu

    def test_valid_access_translates(self):
        _store, _table, seg, ref, spu = self.setup_spu()
        access = spu.check(ref, offset=0x10, nbytes=64, is_write=False)
        assert access.physical_addr == 0x1010
        assert access.segment.sid == seg.sid

    def test_write_needs_write_right(self):
        store = CapabilityStore()
        table = SegmentTable()
        seg = table.create(base=0, size=64, owner="t")
        ref = store.mint("t", Rights.READ, segment_id=seg.sid)
        spu = SegmentProtectionUnit(store, table, holder="t")
        spu.check(ref, 0, 8, is_write=False)
        with pytest.raises(AccessDenied):
            spu.check(ref, 0, 8, is_write=True)
        assert spu.faults == 1

    def test_out_of_bounds_faults(self):
        _store, _table, _seg, ref, spu = self.setup_spu()
        with pytest.raises(SegmentFault):
            spu.check(ref, offset=0xFFF, nbytes=64, is_write=False)

    def test_revoked_cap_fails(self):
        store, _table, _seg, ref, spu = self.setup_spu()
        cid = store.lookup("tile0", ref, Rights.READ).cid
        store.revoke(cid)
        with pytest.raises(AccessDenied):
            spu.check(ref, 0, 8, is_write=False)

    def test_endpoint_cap_rejected_for_memory(self):
        store = CapabilityStore()
        table = SegmentTable()
        ref = store.mint("t", Rights.READ | Rights.SEND, endpoint="svc")
        spu = SegmentProtectionUnit(store, table, holder="t")
        with pytest.raises(AccessDenied):
            spu.check(ref, 0, 8, is_write=False)

    def test_spu_is_holder_locked(self):
        """A tile cannot exercise another tile's capability through its SPU."""
        store = CapabilityStore()
        table = SegmentTable()
        seg = table.create(base=0, size=64, owner="victim")
        victim_ref = store.mint("victim", Rights.rw(), segment_id=seg.sid)
        attacker_spu = SegmentProtectionUnit(store, table, holder="attacker")
        with pytest.raises(AccessDenied):
            attacker_spu.check(victim_ref, 0, 8, is_write=True)
