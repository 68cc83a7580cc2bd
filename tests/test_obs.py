"""Observability subsystem: spans, span index, telemetry, exporters.

Unit tests for the recorder/index primitives plus end-to-end checks on a
booted :class:`ApiarySystem`: every completed traced request must produce
a causal span tree whose per-stage cycle sums equal its measured
end-to-end latency, the Chrome trace export must validate structurally,
and everything must be zero-cost (no records, no ids stamped) while
tracing is disabled.
"""

import json

import pytest

from repro.accel import Accelerator
from repro.kernel import ApiarySystem, SystemConfig
from repro.obs import (
    QUEUE_STAGE,
    SpanIndex,
    SpanRecorder,
    TelemetrySampler,
    chrome_trace,
    export_chrome_trace,
    run_report,
    validate_chrome_trace,
)
from repro.obs.telemetry import SERIES_CAPACITY
from repro.sim import Engine


class MemWorker(Accelerator):
    """alloc -> write -> read -> free; each call becomes one trace."""

    def __init__(self):
        super().__init__("memworker")
        self.readback = None
        self.finished_at = None

    def main(self, shell):
        seg = yield shell.alloc(8 * 1024)
        yield shell.mem_write(seg, 0, b"spans", 5)
        resp = yield shell.mem_read(seg, 0, 5)
        self.readback = resp.payload
        yield shell.free(seg)
        self.finished_at = shell.engine.now


def traced_system():
    system = ApiarySystem(SystemConfig.figure1())
    system.enable_tracing()
    system.boot()
    return system


def run_memworker(system):
    app = MemWorker()
    started = system.start_app(4, app, endpoint="app.mem")
    system.run_until(started)
    system.run(until=system.engine.now + 2_000_000)
    assert app.readback == b"spans"
    return app


class TestSpanRecorder:
    def test_disabled_recorder_records_nothing(self):
        spans = SpanRecorder()
        assert not spans.enabled
        assert spans.new_trace() == 0
        assert spans.open(1, "x", "cat", "src", 0) == 0
        spans.close(0, 10)  # must be a silent no-op
        assert len(spans) == 0

    def test_open_close_round_trip(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        sid = spans.open(tid, "work", "service", "tile0", 5, op="read")
        assert spans.open_spans == 1
        spans.close(sid, 17, ok=True)
        (rec,) = spans.records(trace_id=tid)
        assert (rec.start, rec.end, rec.duration) == (5, 17, 12)
        assert rec.detail == {"op": "read", "ok": True}
        assert spans.open_spans == 0

    def test_untraced_open_is_dropped(self):
        spans = SpanRecorder()
        spans.enable()
        assert spans.open(0, "x", "cat", "src", 0) == 0
        assert len(spans) == 0


class TestEvents:
    """The recorder's instant-record call (the flat tracer, folded in)."""

    def test_disabled_and_sinkless_event_records_nothing(self):
        spans = SpanRecorder()
        spans.event(0, "noc.inject", "r0", pkt=1)
        assert len(spans) == 0

    def test_enabled_event_is_an_idless_instant(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(5, "monitor.deny", "tile3", reason="no-cap", name="x")
        (rec,) = spans.events()
        assert (rec.trace_id, rec.span_id, rec.parent_id) == (0, 0, 0)
        assert (rec.start, rec.end, rec.duration) == (5, 5, 0)
        assert (rec.name, rec.category, rec.source) == \
            ("monitor.deny", "event", "tile3")
        assert rec.detail == {"reason": "no-cap", "name": "x"}
        assert spans.records() == [rec]

    def test_events_consume_no_ids(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(0, "a", "src")
        tid = spans.new_trace()
        spans.event(1, "b", "src")
        sid = spans.open(tid, "work", "svc", "tile0", 2)
        spans.event(3, "c", "src")
        assert (tid, sid) == (1, 1)
        assert spans.new_trace() == 2
        assert spans.open(2, "more", "svc", "tile0", 4) == 2
        assert spans.open_spans == 2  # events are never "open"

    def test_events_filter_by_name_prefix(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(1, "monitor.deny", "a")
        spans.event(2, "monitor.allow", "a")
        spans.event(3, "monitor.deny", "b")
        assert len(list(spans.events("monitor.deny"))) == 2
        assert len(list(spans.events("monitor."))) == 3
        assert [r.source for r in spans.events("monitor.deny")] == ["a", "b"]

    def test_trace_queries_skip_events(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(1, "fault.contained", "tile1")
        tid = spans.new_trace()
        spans.close(spans.open(tid, "request:op", "request", "tile1", 2), 9)
        assert spans.trace_ids() == [tid]
        index = SpanIndex(spans)
        assert index.trace_ids() == [tid]
        assert index.complete_traces() == [tid]

    def test_clear_and_format(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(1, "cat", "src", k=1)
        assert "cat" in spans.format_events()
        assert "k=1" in spans.format_events()
        spans.clear()
        assert len(spans) == 0

    def test_format_respects_limit(self):
        spans = SpanRecorder()
        spans.enable()
        for i in range(100):
            spans.event(i, "cat.a" if i % 2 else "cat.b", "src", i=i)
        assert len(spans.format_events(limit=7).splitlines()) == 7
        assert len(spans.format_events("cat.a", limit=3).splitlines()) == 3

    def test_events_are_filtered_lazily(self):
        """``events()`` materializes nothing: a record appended after the
        call is still seen (``format_events`` islices this iterator)."""
        spans = SpanRecorder()
        spans.enable()
        spans.event(0, "monitor.deny", "t1")
        found = spans.events("monitor.")
        spans.event(1, "monitor.deny", "t2")
        assert [rec.source for rec in found] == ["t1", "t2"]

    def test_format_filters_by_name_prefix(self):
        spans = SpanRecorder()
        spans.enable()
        spans.event(1, "noc.inject", "r0")
        spans.event(2, "monitor.deny", "t1")
        out = spans.format_events("monitor.")
        assert "monitor.deny" in out and "noc.inject" not in out


class TestSpanIndex:
    def build(self):
        """root [0,100] with two children and an uncovered gap."""
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        root = spans.open(tid, "request:op", "request", "tile1", 0)
        a = spans.open(tid, "stage.a", "noc", "ni1", 10, parent_id=root)
        spans.close(a, 40)
        b = spans.open(tid, "stage.b", "dram", "dram", 40, parent_id=a)
        spans.close(b, 70)
        spans.close(root, 100)
        return SpanIndex(spans), tid

    def test_tree_nesting_follows_parents(self):
        index, tid = self.build()
        tree = index.tree(tid)
        assert tree.record.name == "request:op"
        (child_a,) = tree.children
        assert child_a.record.name == "stage.a"
        (child_b,) = child_a.children
        assert child_b.record.name == "stage.b"

    def test_stage_sums_partition_root_interval(self):
        index, tid = self.build()
        breakdown = index.stage_breakdown(tid)
        assert breakdown == {"stage.a": 30, "stage.b": 30, QUEUE_STAGE: 40}
        assert sum(breakdown.values()) == index.latency(tid) == 100

    def test_critical_path_is_contiguous(self):
        index, tid = self.build()
        path = index.critical_path(tid)
        assert path[0][2] == 0 and path[-1][3] == 100
        for (_, _, _, end), (_, _, start, _) in zip(path, path[1:]):
            assert end == start

    def test_incomplete_trace_is_reported(self):
        spans = SpanRecorder()
        spans.enable()
        tid = spans.new_trace()
        spans.open(tid, "request:op", "request", "tile1", 0)  # never closed
        index = SpanIndex(spans)
        assert not index.complete(tid)
        assert index.complete_traces() == []


class TestEndToEndTracing:
    def test_every_request_gets_a_complete_span_tree(self):
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        complete = index.complete_traces()
        # the management plane traces the accelerator load itself...
        mgmt = [t for t in complete
                if index.root(t).name.startswith("mgmt.")]
        assert [index.root(t).name for t in mgmt] == ["mgmt.load:app.mem"]
        # ...and alloc + write + read + free = 4 root requests
        requests = [t for t in complete if t not in mgmt]
        assert len(requests) == 4
        ops = [index.root(t).name for t in requests]
        assert ops == ["request:mem.alloc", "request:mem.write",
                       "request:mem.read", "request:mem.free"]

    def test_stage_sums_equal_end_to_end_latency(self):
        """The tentpole invariant for real traffic, not synthetic spans."""
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        for tid in index.complete_traces():
            breakdown = index.stage_breakdown(tid)
            assert sum(breakdown.values()) == index.latency(tid)

    def test_expected_stages_appear_in_a_memory_read(self):
        system = traced_system()
        run_memworker(system)
        index = system.span_index()
        read_tid = next(t for t in index.complete_traces()
                        if index.root(t).name == "request:mem.read")
        names = {node.record.name for node in index.tree(read_tid).walk()}
        assert {"request:mem.read", "monitor.egress", "noc.transit",
                "monitor.ingress", "service:mem.read",
                "dram.access"} <= names

    def test_disabled_tracing_is_zero_cost(self):
        system = ApiarySystem(SystemConfig.figure1())  # no enable_tracing()
        system.boot()
        app = MemWorker()
        started = system.start_app(4, app, endpoint="app.mem")
        system.run_until(started)
        system.run(until=system.engine.now + 2_000_000)
        assert app.readback == b"spans"
        assert len(system.spans) == 0
        assert system.spans.open_spans == 0

    def test_tracing_does_not_perturb_simulated_time(self):
        def finish_cycle(trace):
            system = ApiarySystem(SystemConfig.figure1())
            if trace:
                system.enable_tracing()
            system.boot()
            app = MemWorker()
            started = system.start_app(4, app, endpoint="app.mem")
            system.run_until(started)
            system.run(until=system.engine.now + 2_000_000)
            assert app.finished_at is not None
            return app.finished_at

        assert finish_cycle(trace=False) == finish_cycle(trace=True)


class TestExport:
    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        system = traced_system()
        system.enable_telemetry(interval=500)
        run_memworker(system)
        path = tmp_path / "trace.json"
        export_chrome_trace(str(path), system.spans, sampler=system.sampler)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) > 0
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in phases  # spans
        assert "C" in phases  # telemetry counters
        assert "M" in phases  # track names
        # boot-time mgmt.register/grant_send events export as instants
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "I"]
        assert {ev["name"] for ev in instants} >= {"mgmt.register"}
        assert all(ev["cat"] == "event" and "dur" not in ev
                   for ev in instants)

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 0}  # missing dur
            ]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "I", "pid": 1, "ts": 10, "tid": 0},
                {"name": "b", "ph": "I", "pid": 1, "ts": 5, "tid": 0},
            ]})  # ts not monotonic

    def test_run_report_mentions_stages_and_traces(self):
        system = traced_system()
        run_memworker(system)
        report = run_report(system.span_index())
        assert "request:mem.read" in report
        assert "dram.access" in report


class TestTelemetrySampler:
    def test_series_accumulate_at_interval(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.enable_telemetry(interval=500)
        system.boot()
        series = system.sampler.series("inject_backlog", node=0)
        assert len(series) >= 2
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert all(t2 - t1 == 500 for t1, t2 in zip(times, times[1:]))

    def test_ring_buffer_caps_memory(self):
        eng = Engine()
        sampler = TelemetrySampler(eng, interval=10).start()
        eng.run(until=10 * SERIES_CAPACITY + 1_000)
        assert len(sampler.series("sampled_at")) == SERIES_CAPACITY

    def test_heatmap_matches_topology(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.enable_telemetry(interval=500)
        system.boot()
        grid = system.sampler.noc_heatmap()
        assert len(grid) == 2 and all(len(row) == 3 for row in grid)
        assert "." in system.sampler.heatmap_text() or any(
            v is not None for row in grid for v in row)

    def test_telemetry_cannot_be_enabled_twice(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.enable_telemetry()
        with pytest.raises(Exception):
            system.enable_telemetry()
