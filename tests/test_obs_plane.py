"""The production observability plane: sketches, SLOs, profiler, flight.

Unit tests for the four new components plus their integration seams:
the DDSketch-style quantile sketch honours its relative-error guarantee
against the exact order statistic and merges commutatively; the SLO
engine classifies deterministically, alerts on rising edges only, and
merges across partitions; the cycle profiler's folded stacks partition
every request's latency; the flight recorder rings, dumps, coalesces,
and validates.  Satellite coverage: the new public accessors, telemetry
ring wraparound at exact capacity, stage_breakdown on incomplete
traces, and the text report's SLO section.
"""

import json
import math

import pytest

from repro.accel import EchoAccel
from repro.chaos import FaultEvent, FaultKind, FaultPlan, Injector
from repro.kernel import ApiarySystem, SystemConfig
from repro.obs import (
    QUEUE_STAGE,
    CycleProfiler,
    FlightRecorder,
    QuantileSketch,
    SLOEngine,
    SLOTarget,
    SpanIndex,
    SpanRecorder,
    run_report,
    validate_flight_dump,
)
from repro.obs.flight import MAX_KEPT_DUMPS
from repro.sim import Engine, StatsRegistry


def latency_samples(n=5_000):
    """A deterministic long-tailed sample set (no RNG: pure arithmetic)."""
    return [1 + (i * i * 37) % 900 + (i % 97) * ((i % 13 == 0) * 40)
            for i in range(n)]


def exact_percentile(samples, p):
    ordered = sorted(samples)
    return ordered[math.floor(p / 100.0 * (len(samples) - 1))]


class TestQuantileSketch:
    def test_percentiles_within_alpha_of_exact_order_statistic(self):
        samples = latency_samples()
        sk = QuantileSketch("lat", alpha=0.01)
        sk.record_many(samples)
        for p in (10, 50, 90, 99, 99.9):
            exact = exact_percentile(samples, p)
            assert abs(sk.percentile(p) - exact) <= sk.alpha * exact
        assert sk.min() == min(samples)
        assert sk.max() == max(samples)
        assert sk.count == len(samples)
        assert sk.mean() == pytest.approx(sum(samples) / len(samples))

    def test_merge_is_commutative_byte_for_byte(self):
        samples = latency_samples(2_000)
        half = len(samples) // 2
        a1, b1 = QuantileSketch("a"), QuantileSketch("b")
        a2, b2 = QuantileSketch("a"), QuantileSketch("b")
        for s in (a1, a2):
            s.record_many(samples[:half])
        for s in (b1, b2):
            s.record_many(samples[half:])
        a1.merge(b1)   # a then b
        b2.merge(a2)   # b then a
        assert json.dumps(a1.summary()) == json.dumps(b2.summary())

    def test_merged_equals_monolithic(self):
        samples = latency_samples(2_000)
        half = len(samples) // 2
        mono = QuantileSketch("all")
        mono.record_many(samples)
        a, b = QuantileSketch("a"), QuantileSketch("b")
        a.record_many(samples[:half])
        b.record_many(samples[half:])
        a.merge(b)
        assert a.count == mono.count
        for p in (50, 90, 99, 99.9):
            assert a.percentile(p) == mono.percentile(p)
        assert a.max() == mono.max()
        # sums are added in a different order; equal to float tolerance
        assert math.isclose(a.mean(), mono.mean(), rel_tol=1e-12)

    def test_zero_values_are_exact(self):
        sk = QuantileSketch("z")
        sk.record_many([0, 0, 0, 100])
        assert sk.percentile(50) == 0.0
        assert sk.min() == 0.0
        assert sk.percentile(100) == 100.0

    def test_rejects_negative_nan_and_inf(self):
        sk = QuantileSketch("bad")
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sk.record(value)

    def test_merge_rejects_alpha_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch("a", alpha=0.01).merge(
                QuantileSketch("b", alpha=0.02))

    def test_memory_stays_bounded_and_collapse_spares_the_upper_tail(self):
        sk = QuantileSketch("wide", alpha=0.01, max_bins=64)
        samples = [float(2 ** (i % 40)) + i % 7 for i in range(4_000)]
        sk.record_many(samples)
        assert sk.bins <= 65  # max_bins live buckets + zero bucket
        assert sk.collapsed > 0
        exact99 = exact_percentile(samples, 99)
        assert abs(sk.percentile(99) - exact99) <= sk.alpha * exact99

    def test_summary_matches_histogram_row_shape(self):
        sk = QuantileSketch("s")
        sk.record_many([1, 2, 3])
        assert set(sk.summary()) == {"count", "mean", "p50", "p90", "p99",
                                     "p999", "max"}

    def test_stats_registry_sketch_kind_snapshots_and_merges(self):
        reg_a, reg_b = StatsRegistry(), StatsRegistry()
        reg_a.sketch("noc.lat").record_many([10, 20])
        reg_b.sketch("noc.lat").record_many([30, 40])
        reg_a.merge(reg_b)
        snap = reg_a.snapshot()
        assert snap["sketches"]["noc.lat"]["count"] == 4.0
        assert reg_a.sketch("noc.lat").max() == 40


def feed(engine, service, good, bad, at, latency=10, tenant=None):
    for _ in range(good):
        engine.observe(service, latency, True, at, tenant=tenant)
    for _ in range(bad):
        engine.observe(service, None, False, at, tenant=tenant)


class TestSLOEngine:
    def target(self, **kwargs):
        kwargs.setdefault("name", "avail")
        kwargs.setdefault("service", "kv")
        kwargs.setdefault("objective", 0.99)
        return SLOTarget(**kwargs)

    def test_verdicts_pass_fail_and_no_data(self):
        eng = SLOEngine()
        eng.add_target(self.target())
        eng.add_target(self.target(service="idle"))
        feed(eng, "kv", good=995, bad=5, at=50_000)
        rows = {r["service"]: r for r in eng.report(100_000)["targets"]}
        assert rows["kv"]["verdict"] == "pass"
        assert rows["idle"]["verdict"] == "no-data"
        feed(eng, "kv", good=0, bad=95, at=60_000)
        rows = {r["service"]: r for r in eng.report(100_000)["targets"]}
        assert rows["kv"]["verdict"] == "fail"
        assert rows["kv"]["bad"] == 100

    def test_latency_bound_classifies_slow_requests_bad(self):
        eng = SLOEngine()
        eng.add_target(self.target(name="lat", latency_cycles=100))
        eng.observe("kv", 50, True, 1_000)    # fast: good
        eng.observe("kv", 500, True, 1_000)   # slow: bad despite ok
        (row,) = eng.report(10_000)["targets"]
        assert (row["good"], row["bad"]) == (1, 1)
        assert row["latency_p99"] is not None

    def test_tenant_target_sees_only_its_tenant(self):
        eng = SLOEngine()
        eng.add_target(self.target(tenant="t0"))
        feed(eng, "kv", good=3, bad=0, at=1_000, tenant="t0")
        feed(eng, "kv", good=0, bad=7, at=1_000, tenant="t1")
        (row,) = eng.report(10_000)["targets"]
        assert (row["good"], row["bad"]) == (3, 0)

    def test_burn_rate_and_firing(self):
        eng = SLOEngine()
        target = self.target()  # budget 1%; burn 14 needs 14% bad
        eng.add_target(target)
        feed(eng, "kv", good=80, bad=20, at=95_000)  # 20% bad in window
        assert eng.burn_rate(target, 99_999, target.fast_window) == \
            pytest.approx(20.0)
        assert eng.firing("kv", 99_999)
        # outside the fast window the page signal clears
        assert not eng.firing("kv", 95_000 + target.fast_window
                              + 3 * eng.bucket_cycles)

    def test_alerts_fire_on_rising_edges_only(self):
        eng = SLOEngine()
        eng.add_target(self.target())
        # sustained burn across many consecutive buckets: one page, not
        # one alert per bucket
        for bucket in range(10):
            feed(eng, "kv", good=5, bad=5, at=5_000 + bucket * 10_000)
        alerts = eng.report(200_000)["alerts"]
        pages = [a for a in alerts if a["severity"] == "page"]
        assert len(pages) == 1
        assert pages[0]["burn_rate"] >= 14.0

    def test_merge_is_commutative(self):
        def build(flip):
            a, b = SLOEngine(), SLOEngine()
            for eng in (a, b):
                eng.add_target(self.target())
            feed(a, "kv", good=10, bad=2, at=5_000, latency=20)
            feed(b, "kv", good=7, bad=1, at=15_000, latency=90)
            if flip:
                b.merge(a)
                return b
            a.merge(b)
            return a
        ab, ba = build(False), build(True)
        assert json.dumps(ab.report(50_000), sort_keys=True) == \
            json.dumps(ba.report(50_000), sort_keys=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTarget("x", "s", objective=1.0)
        with pytest.raises(ValueError):
            SLOTarget("x", "s", fast_window=500_000, window=400_000)
        eng = SLOEngine()
        eng.add_target(self.target())
        with pytest.raises(ValueError):
            eng.add_target(self.target(objective=0.95))  # same key, differs
        with pytest.raises(ValueError):
            eng.merge(SLOEngine(bucket_cycles=1))


def profiled_spans():
    """root [0,100]: a [10,40] with child b [20,30]; queueing elsewhere."""
    spans = SpanRecorder()
    spans.enable()
    tid = spans.new_trace()
    root = spans.open(tid, "request:op", "request", "tile1", 0)
    a = spans.open(tid, "stage.a", "noc", "ni1", 10, parent_id=root)
    b = spans.open(tid, "stage.b", "dram", "dram", 20, parent_id=a)
    spans.close(b, 30)
    spans.close(a, 40)
    spans.close(root, 100)
    return spans, tid


class TestCycleProfiler:
    def test_folded_stacks_partition_the_request(self):
        spans, tid = profiled_spans()
        prof = CycleProfiler(spans)
        folded = prof.folded()
        assert folded == {
            "tile1:request:op;ni1:stage.a": 20,
            "tile1:request:op;ni1:stage.a;dram:stage.b": 10,
            f"tile1:request:op;{QUEUE_STAGE}": 70,
        }
        assert sum(folded.values()) == prof.total_cycles == 100
        assert prof.total_cycles == SpanIndex(spans).latency(tid)

    def test_self_cycles_rank_the_leaves(self):
        spans, _ = profiled_spans()
        top = dict(CycleProfiler(spans).top())
        assert top[QUEUE_STAGE] == 70
        assert top["ni1:stage.a"] == 20
        assert top["dram:stage.b"] == 10

    def test_write_folded_round_trips(self, tmp_path):
        spans, _ = profiled_spans()
        prof = CycleProfiler(spans)
        path = tmp_path / "profile.folded"
        assert prof.write_folded(str(path)) == 3
        lines = path.read_text().strip().split("\n")
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_incomplete_traces_are_excluded(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        spans.open(tid, "request:op", "request", "tile1", 0)  # never closed
        prof = CycleProfiler(spans)
        assert prof.traces == 0 and prof.folded() == {}

    def test_output_is_deterministic(self):
        a = CycleProfiler(profiled_spans()[0])
        b = CycleProfiler(profiled_spans()[0])
        assert a.folded_lines() == b.folded_lines()
        assert a.render_top() == b.render_top()


class TestFlightRecorder:
    def test_ring_wraps_at_capacity(self):
        flight = FlightRecorder("fpga0", capacity=4)
        for i in range(10):
            flight.record_event(i, "tick", f"n{i}")
        assert len(flight) == 4
        assert flight.seen == 10
        assert [e["subject"] for e in flight.entries()] == \
            ["n6", "n7", "n8", "n9"]

    def test_span_sink_rings_closed_spans(self):
        spans = SpanRecorder()
        spans.enable()
        flight = FlightRecorder("fpga0", capacity=8)
        spans.attach_flight(flight)
        tid = spans.new_trace()
        sid = spans.open(tid, "work", "svc", "tile0", 5)
        assert len(flight) == 0  # only *closed* spans ring
        spans.close(sid, 17)
        (entry,) = flight.entries()
        assert (entry["type"], entry["name"], entry["start"],
                entry["end"]) == ("span", "work", 5, 17)

    def test_dump_coalesces_within_one_cycle(self, tmp_path):
        flight = FlightRecorder("fpga1", capacity=8,
                                dump_dir=str(tmp_path))
        flight.record_event(90, "kill", "fpga1", "board lost power")
        doc = flight.dump(100, "board-kill:fpga1")
        assert doc is not None
        # the per-tile fault storm in the same cycle coalesces away
        for _ in range(6):
            assert flight.dump(100, "fault:tile3:drained") is None
        assert [d["reason"] for d in flight.dumps] == ["board-kill:fpga1"]
        assert flight.dump(200, "fault:tile4:drained") is not None
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["flight_fpga1_100.json", "flight_fpga1_200.json"]
        on_disk = json.loads((tmp_path / files[0]).read_text())
        assert validate_flight_dump(on_disk) == 1

    def test_kept_dumps_are_bounded(self):
        flight = FlightRecorder(capacity=2)
        for i in range(MAX_KEPT_DUMPS + 5):
            flight.dump(i * 10, f"r{i}")
        assert len(flight.dumps) == MAX_KEPT_DUMPS
        assert flight.dumps[-1]["reason"] == f"r{MAX_KEPT_DUMPS + 4}"

    def test_validator_rejects_malformed_dumps(self):
        flight = FlightRecorder("fpga0", capacity=4)
        flight.record_event(1, "chaos", "noc", "applied")
        doc = flight.dump(5, "test")
        assert validate_flight_dump(doc) == 1
        with pytest.raises(ValueError):
            validate_flight_dump({"board": "x"})  # no marker
        bad = dict(doc, entries=[{"type": "span", "name": "x"}])
        with pytest.raises(ValueError):
            validate_flight_dump(bad)
        with pytest.raises(ValueError):
            validate_flight_dump(dict(doc, seen=0))

    def test_absorb_adopts_collected_state(self):
        worker = FlightRecorder("fpga0", capacity=4)
        worker.record_event(1, "fault", "tile1", "drained:TileFault")
        worker.dump(2, "fault:tile1:drained")
        local = FlightRecorder("fpga0", capacity=4)
        local.absorb(worker)
        assert json.dumps(local.report(), sort_keys=True) == \
            json.dumps(worker.report(), sort_keys=True)


class TestOneEventLog:
    """One occurrence, one record: every layer reports through
    ``SpanRecorder.event`` and the flight ring is a sink on it."""

    def crashed_and_recovered(self, tracing=True):
        system = ApiarySystem(SystemConfig.figure1())
        system.boot()
        if tracing:
            system.enable_tracing()
        # flight recorder first, recovery second: no wiring order matters
        flight = system.enable_flight_recorder(board="fpga0", capacity=512)
        manager = system.enable_recovery()
        system.run_until(manager.deploy(
            2, lambda: EchoAccel("svc", cost=20), endpoint="app.svc"))
        crash = FaultEvent(1_000, FaultKind.TILE_CRASH, "app.svc")
        Injector(system, FaultPlan(seed=0, duration=1_000_000,
                                   events=[crash])).arm()
        system.run(until=system.engine.now + 2_000_000)
        assert [e.kind for e in manager.recoveries] == ["restart"]
        return system, flight

    @staticmethod
    def ring_kinds(flight):
        return [e["kind"] for e in flight.entries() if e["type"] == "event"]

    def test_one_record_in_the_span_set_and_one_in_the_ring(self):
        system, flight = self.crashed_and_recovered()
        ring = self.ring_kinds(flight)
        for name in ("recovery.restart", "fault.contained",
                     "chaos.tile-crash"):
            assert len(list(system.spans.events(name))) == 1, name
            assert ring.count(name) == 1, name
        (restart,) = system.spans.events("recovery.restart")
        assert restart.source == "app.svc"
        assert restart.detail["src"] == restart.detail["dst"] == 2
        # the ring entry is the same occurrence, same cycle
        (entry,) = [e for e in flight.entries()
                    if e.get("kind") == "recovery.restart"]
        assert (entry["cycle"], entry["subject"]) == \
            (restart.start, "app.svc")
        assert f"mttr={restart.detail['mttr']}" in entry["detail"]

    def test_fault_dump_holds_the_fault_event(self):
        _system, flight = self.crashed_and_recovered()
        (doc,) = [d for d in flight.dumps
                  if d["reason"].startswith("fault:")]
        assert validate_flight_dump(doc) >= 1
        last = doc["entries"][-1]
        assert (last["type"], last["kind"]) == ("event", "fault.contained")
        assert set(last) == {"type", "cycle", "kind", "subject", "detail"}

    def test_ring_is_always_on_but_span_set_needs_tracing(self):
        system, flight = self.crashed_and_recovered(tracing=False)
        assert len(system.spans) == 0
        assert self.ring_kinds(flight).count("recovery.restart") == 1

    def test_events_leave_span_ids_dense(self):
        """Events consume no ids: the traced run's span and trace ids are
        exactly 1..N, as they were before any layer reported events."""
        system, _flight = self.crashed_and_recovered()
        spans = [r for r in system.spans if r.span_id]
        assert len(spans) < len(system.spans)  # events are in the set
        assert sorted(r.span_id for r in spans) == \
            list(range(1, len(spans) + 1))
        assert sorted(system.spans.trace_ids()) == \
            list(range(1, len(system.spans.trace_ids()) + 1))


class TestSatelliteAccessors:
    def booted(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.boot()
        return system

    def test_router_buffered_flits_matches_occupancy(self):
        system = self.booted()
        router = system.network.router(0)
        assert router.buffered_flits == router.occupancy()

    def test_monitor_egress_backlog_is_public(self):
        system = self.booted()
        monitor = system.tiles[0].monitor
        assert monitor.egress_backlog == 0
        assert monitor.heartbeat()["egress_backlog"] == 0.0

    def test_sampler_last_sample_at_advances(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.enable_telemetry(interval=500)
        system.boot()
        assert system.sampler.last_sample_at is not None
        assert system.sampler.last_sample_at % 500 == 0

    def test_sampler_ring_wraps_exactly_at_capacity(self):
        eng = Engine()
        from repro.obs import TelemetrySampler
        sampler = TelemetrySampler(eng, interval=10, capacity=8).start()
        eng.run(until=65)   # samples at 0..60: below capacity
        assert len(sampler.series("sampled_at")) == 7
        eng.run(until=75)   # 8th sample: exactly at capacity
        assert len(sampler.series("sampled_at")) == 8
        first = sampler.series("sampled_at")[0][0]
        eng.run(until=85)   # 9th: oldest falls off
        series = sampler.series("sampled_at")
        assert len(series) == 8
        assert series[0][0] == first + 10
        assert sampler.last_sample_at == 80

    def test_stage_breakdown_on_incomplete_trace_is_empty(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        root = spans.open(tid, "request:op", "request", "tile1", 0)
        child = spans.open(tid, "stage.a", "noc", "ni1", 10, parent_id=root)
        spans.close(child, 40)
        # root never closes: no interval to partition, and no crash
        index = SpanIndex(spans)
        assert not index.complete(tid)
        assert index.stage_breakdown(tid) == {}
        assert index.segments(tid) == []
        assert index.latency(tid) == -1


class TestRunReport:
    def test_slo_section_rides_along(self):
        eng = SLOEngine()
        eng.add_target(SLOTarget("avail", "kv", objective=0.99))
        feed(eng, "kv", good=10, bad=0, at=1_000)
        spans, _tid = profiled_spans()
        text = run_report(SpanIndex(spans), slo=eng, now=50_000)
        assert "SLO" in text and "pass" in text
