"""Unit tests for resources, RNG pools and stats."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import (
    Counter,
    Engine,
    Gauge,
    Histogram,
    Resource,
    RngPool,
    StatsRegistry,
)


class TestResource:
    def test_acquire_release_single_slot(self):
        eng = Engine()
        res = Resource(eng, slots=1)
        timeline = []

        def worker(ident, hold):
            grant = yield res.acquire()
            timeline.append((eng.now, ident, "in"))
            yield hold
            res.release(grant)
            timeline.append((eng.now, ident, "out"))

        eng.process(worker("a", 10))
        eng.process(worker("b", 5))
        eng.run()
        assert timeline == [
            (0, "a", "in"),
            (10, "a", "out"),
            (10, "b", "in"),
            (15, "b", "out"),
        ]

    def test_multiple_slots_run_concurrently(self):
        eng = Engine()
        res = Resource(eng, slots=2)
        done_at = []

        def worker():
            grant = yield res.acquire()
            yield 10
            res.release(grant)
            done_at.append(eng.now)

        for _ in range(4):
            eng.process(worker())
        eng.run()
        assert done_at == [10, 10, 20, 20]

    def test_double_release_rejected(self):
        eng = Engine()
        res = Resource(eng, slots=1)
        grant = res.acquire().value
        res.release(grant)
        with pytest.raises(SimulationError):
            res.release(grant)

    def test_foreign_grant_rejected(self):
        eng = Engine()
        a = Resource(eng, slots=1)
        b = Resource(eng, slots=1)
        grant = a.acquire().value
        with pytest.raises(SimulationError):
            b.release(grant)

    def test_zero_slots_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Resource(eng, slots=0)


class TestRngPool:
    def test_same_name_same_stream_object(self):
        pool = RngPool(seed=1)
        assert pool.stream("x") is pool.stream("x")

    def test_streams_reproducible_across_pools(self):
        a = RngPool(seed=42).stream("arrivals").integers(0, 1000, size=10)
        b = RngPool(seed=42).stream("arrivals").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_names_give_independent_draws(self):
        pool = RngPool(seed=42)
        a = pool.stream("one").integers(0, 10**9, size=8)
        b = pool.stream("two").integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngPool(seed=1).stream("s").integers(0, 10**9, size=8)
        b = RngPool(seed=2).stream("s").integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_creation_order_does_not_perturb_streams(self):
        p1 = RngPool(seed=9)
        p1.stream("a")
        first = p1.stream("target").integers(0, 10**9, size=4)
        p2 = RngPool(seed=9)
        p2.stream("z")
        p2.stream("y")
        second = p2.stream("target").integers(0, 10**9, size=4)
        assert np.array_equal(first, second)

    def test_fork_gives_independent_pool(self):
        base = RngPool(seed=3)
        forked = base.fork("rep1")
        a = base.stream("s").integers(0, 10**9, size=4)
        b = forked.stream("s").integers(0, 10**9, size=4)
        assert not np.array_equal(a, b)
        again = RngPool(seed=3).fork("rep1").stream("s").integers(0, 10**9, size=4)
        assert np.array_equal(b, again)


class TestStats:
    def test_counter_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_gauge_tracks_extremes(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        g.add(10)
        assert g.value == 12
        assert g.min_seen == 0
        assert g.max_seen == 12

    def test_histogram_summary(self):
        h = Histogram("lat")
        h.record_many(range(1, 101))
        s = h.summary()
        assert s["count"] == 100
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == pytest.approx(50.5)
        assert s["max"] == 100

    def test_histogram_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(99))

    def test_histogram_reset(self):
        a = Histogram()
        a.record(1)
        a.record(3)
        assert a.count == 2
        a.reset()
        assert a.count == 0

    def test_registry_reuses_instances(self):
        reg = StatsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.sketch("h") is reg.sketch("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_registry_snapshot_shape(self):
        reg = StatsRegistry()
        reg.counter("sent").inc(3)
        reg.gauge("depth").set(2)
        reg.sketch("lat").record(10)
        snap = reg.snapshot()
        assert snap["counters"]["sent"] == 3.0
        assert snap["gauges"]["depth"] == 2.0
        assert snap["sketches"]["lat"]["count"] == 1
        # one distribution kind: there is no second section to look in
        assert sorted(snap) == ["counters", "gauges", "sketches"]


class TestSnapshotJsonSafety:
    def test_empty_sketch_snapshots_to_none_not_nan(self):
        reg = StatsRegistry()
        reg.sketch("never-recorded")
        snap = reg.snapshot()
        row = snap["sketches"]["never-recorded"]
        assert row["count"] == 0.0
        for key in ("mean", "p50", "p90", "p99", "p999", "max"):
            assert row[key] is None, f"{key} should be None, got {row[key]}"

    def test_nan_gauge_snapshots_to_none(self):
        reg = StatsRegistry()
        reg.gauge("g").set(math.nan)
        assert reg.snapshot()["gauges"]["g"] is None

    def test_snapshot_round_trips_through_strict_json(self):
        import json

        reg = StatsRegistry()
        reg.counter("sent").inc(3)
        reg.gauge("depth").set(2)
        reg.sketch("lat").record(10)
        reg.sketch("empty")
        # parse_constant raises on NaN/Infinity tokens — the strictness
        # every non-Python JSON consumer applies by default
        def reject(token):
            raise ValueError(f"invalid JSON token {token}")

        text = json.dumps(reg.snapshot())
        back = json.loads(text, parse_constant=reject)
        assert back["sketches"]["lat"]["count"] == 1
        assert back["sketches"]["empty"]["mean"] is None

class TestRegistryMerge:
    """Merge-safe snapshots: the cluster roll-up contract for PDES runs."""

    @staticmethod
    def _board(seed: int) -> StatsRegistry:
        reg = StatsRegistry()
        reg.counter("noc.packets_injected").inc(100 + seed)
        reg.counter(f"board{seed}.only").inc(7)
        g = reg.gauge("mgmt.free_tiles", initial=float(10 + seed))
        g.add(-seed)
        reg.sketch("noc.packet_latency").record_many(
            [seed, seed + 10, seed + 20])
        return reg

    def test_counters_add(self):
        merged = StatsRegistry()
        merged.merge(self._board(1))
        merged.merge(self._board(2))
        assert merged.counters["noc.packets_injected"].value == 203
        assert merged.counters["board1.only"].value == 7
        assert merged.counters["board2.only"].value == 7

    def test_sketches_add_bucket_counts(self):
        merged = StatsRegistry()
        merged.merge(self._board(1))
        merged.merge(self._board(2))
        whole = StatsRegistry().sketch("noc.packet_latency")
        whole.record_many([1, 2, 11, 12, 21, 22])
        sketch = merged.sketches["noc.packet_latency"]
        # folding per-board sketches equals one sketch that saw it all
        assert sketch.bucket_counts() == whole.bucket_counts()
        assert sketch.summary() == whole.summary()

    def test_gauges_sum_with_minmax_union(self):
        merged = StatsRegistry()
        merged.merge(self._board(1))
        merged.merge(self._board(2))
        g = merged.gauges["mgmt.free_tiles"]
        assert g.value == 10 + 10  # (11-1) + (12-2)
        # extremes are the union across boards, not a sum
        assert g.max_seen == 12
        assert g.min_seen == 10

    def test_merge_round_trips_commutatively(self):
        """snapshot(merge(a, b)) == snapshot(merge(b, a)) — byte-stable
        telemetry however board registries arrive at the roll-up."""
        ab = StatsRegistry()
        ab.merge(self._board(1))
        ab.merge(self._board(2))
        ba = StatsRegistry()
        ba.merge(self._board(2))
        ba.merge(self._board(1))
        snap_ab, snap_ba = ab.snapshot(), ba.snapshot()
        assert snap_ab == snap_ba
        assert ab.sketches["noc.packet_latency"].bucket_counts() == \
            ba.sketches["noc.packet_latency"].bucket_counts()

    def test_merge_into_empty_equals_source_snapshot(self):
        merged = StatsRegistry()
        merged.merge(self._board(3))
        assert merged.snapshot() == self._board(3).snapshot()

    def test_snapshot_keys_sorted_not_registration_order(self):
        reg = StatsRegistry()
        reg.counter("zebra").inc()
        reg.counter("aardvark").inc()
        assert list(reg.snapshot()["counters"]) == ["aardvark", "zebra"]
