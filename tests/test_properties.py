"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cap import CapabilityStore, Rights
from repro.errors import AccessDenied, AllocationError
from repro.mem import BuddyAllocator, FirstFitAllocator, PagedMmu, SegmentTable
from repro.noc import Mesh2D, TokenBucket, XYRouting
from repro.sim import Channel, Engine

SETTINGS = settings(max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow],
                    deadline=None)


# -- allocator invariants -------------------------------------------------------


@st.composite
def alloc_ops(draw):
    """A random interleaving of allocate/free operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 40))):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("alloc", draw(st.integers(1, 100_000))))
            live += 1
    return ops


@SETTINGS
@given(alloc_ops())
def test_freelist_allocator_never_overlaps_and_conserves(ops):
    capacity = 1 << 21
    alloc = FirstFitAllocator(capacity)
    live = []
    for op, arg in ops:
        if op == "alloc":
            try:
                base, size = alloc.allocate(arg)
            except AllocationError:
                continue
            live.append((base, size))
        else:
            if live:
                base, _size = live.pop(arg % len(live))
                alloc.free(base)
        # invariant 1: live extents never overlap
        spans = sorted(live)
        for (b1, s1), (b2, _s2) in zip(spans, spans[1:]):
            assert b1 + s1 <= b2
        # invariant 2: conservation of bytes
        assert alloc.used_bytes == sum(s for _b, s in live)
        assert alloc.used_bytes + alloc.free_bytes == capacity


@SETTINGS
@given(alloc_ops())
def test_buddy_allocator_invariants(ops):
    capacity = 1 << 22
    alloc = BuddyAllocator(capacity, min_block=4096)
    live = []
    for op, arg in ops:
        if op == "alloc":
            try:
                base, size = alloc.allocate(arg)
            except AllocationError:
                continue
            # block is power-of-two sized and naturally aligned
            assert size & (size - 1) == 0
            assert base % size == 0
            live.append((base, size))
        else:
            if live:
                base, _size = live.pop(arg % len(live))
                alloc.free(base)
        spans = sorted(live)
        for (b1, s1), (b2, _s2) in zip(spans, spans[1:]):
            assert b1 + s1 <= b2
        assert alloc.used_bytes + alloc.free_bytes == capacity


@SETTINGS
@given(alloc_ops())
def test_full_free_returns_to_pristine(ops):
    alloc = FirstFitAllocator(1 << 20)
    bases = []
    for op, arg in ops:
        if op == "alloc":
            try:
                bases.append(alloc.allocate(arg)[0])
            except AllocationError:
                pass
    for base in bases:
        alloc.free(base)
    assert alloc.free_bytes == 1 << 20
    assert alloc.largest_free_extent == 1 << 20


# -- segment table -----------------------------------------------------------------


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 4096)),
                min_size=1, max_size=30))
def test_segment_table_rejects_exactly_the_overlaps(requests):
    table = SegmentTable()
    accepted = []
    for base, size in requests:
        overlaps = any(
            not (base + size <= b or b + s <= base) for b, s in accepted
        )
        try:
            table.create(base=base, size=size, owner="t")
            assert not overlaps, "overlap accepted"
            accepted.append((base, size))
        except Exception:
            assert overlaps, "non-overlap rejected"


# -- paged MMU ----------------------------------------------------------------------


@SETTINGS
@given(st.lists(st.integers(1, 100_000), min_size=1, max_size=20))
def test_mmu_translations_never_alias(sizes):
    mmu = PagedMmu(1 << 24, page_bytes=4096)
    frames_seen = set()
    for i, size in enumerate(sizes):
        try:
            va = mmu.allocate(f"p{i}", size)
        except AllocationError:
            continue
        pages = (size + 4095) // 4096
        for page in range(pages):
            pa, _cycles = mmu.translate(f"p{i}", va + page * 4096, 1)
            frame = pa // 4096
            assert frame not in frames_seen, "two mappings share a frame"
            frames_seen.add(frame)


# -- capability store ------------------------------------------------------------------


@SETTINGS
@given(st.lists(st.sampled_from(["read", "write", "grant"]), min_size=0,
                max_size=4))
def test_derivation_never_amplifies(extra_rights):
    store = CapabilityStore()
    parent_rights = Rights.READ | Rights.GRANT
    ref = store.mint("root", parent_rights, segment_id=1)
    requested = Rights.READ
    for r in extra_rights:
        requested |= {"read": Rights.READ, "write": Rights.WRITE,
                      "grant": Rights.GRANT}[r]
    amplifies = bool(requested & ~parent_rights)
    try:
        child = store.derive("root", ref, "child", requested)
        assert not amplifies
        cap = store.lookup("child", child, requested)
        assert (cap.rights & ~parent_rights) == Rights.NONE
    except AccessDenied:
        assert amplifies


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 5))
def test_revocation_closes_whole_subtree(depth, fanout_seed):
    store = CapabilityStore(slots_per_holder=64)
    root = store.mint("h0", Rights.READ | Rights.GRANT, segment_id=1)
    refs = [("h0", root)]
    all_refs = [("h0", root)]
    for level in range(1, depth):
        new_refs = []
        for holder, ref in refs:
            child_holder = f"h{level}-{len(new_refs)}"
            child = store.derive(holder, ref, child_holder,
                                 Rights.READ | Rights.GRANT)
            new_refs.append((child_holder, child))
            all_refs.append((child_holder, child))
        refs = new_refs
    root_cid = store.lookup("h0", root, Rights.READ).cid
    revoked = store.revoke(root_cid)
    assert revoked == len(all_refs)
    for holder, ref in all_refs:
        try:
            store.lookup(holder, ref, Rights.READ)
            assert False, "revoked capability still valid"
        except Exception:
            pass


# -- routing -----------------------------------------------------------------------------


@SETTINGS
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_dimension_ordered_routing_always_terminates(width, height, data):
    mesh = Mesh2D(width, height)
    src = data.draw(st.integers(0, mesh.node_count - 1))
    dst = data.draw(st.integers(0, mesh.node_count - 1))
    routing = XYRouting()
    node = src
    hops = 0
    while node != dst:
        port = routing.route(mesh, node, dst)
        node = mesh.neighbor(node, port)
        hops += 1
        assert hops <= width + height, "route is not minimal"
    assert hops == mesh.hop_distance(src, dst)


# -- token bucket -----------------------------------------------------------------------


@SETTINGS
@given(st.floats(0.01, 2.0), st.integers(1, 64),
       st.lists(st.integers(0, 50), min_size=10, max_size=200))
def test_token_bucket_long_run_rate_bound(rate, burst, gaps):
    tb = TokenBucket(rate_per_cycle=rate, burst=burst)
    now = 0
    admitted = 0
    for gap in gaps:
        now += gap
        if tb.consume(now):
            admitted += 1
    # long-run admissions can never exceed initial burst + rate * elapsed
    assert admitted <= burst + rate * now + 1


# -- channel FIFO order --------------------------------------------------------------------


@SETTINGS
@given(st.lists(st.integers(), min_size=1, max_size=50), st.integers(1, 8))
def test_channel_preserves_fifo_under_any_capacity(items, capacity):
    eng = Engine()
    ch = Channel(eng, capacity=capacity)
    got = []

    def producer():
        for item in items:
            yield ch.put(item)

    def consumer():
        for _ in items:
            got.append((yield ch.get()))

    eng.process(producer())
    p = eng.process(consumer())
    eng.run_until_done(p.done, limit=1_000_000)
    assert got == items
