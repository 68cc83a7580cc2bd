"""The window protocol's own contract: per-board ids, board ops, idle boards.

Message ids are a property of the board (not of the process), a board
answers exactly its ten ops, and a board that sits windows out runs the
same schedule as one that runs every window.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.apps import echo_handler_factory
from repro.cluster import backend as backend_module
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.errors import SimulationError
from repro.loadgen import Scenario, ScenarioRunner
from tests.strategies import small_scenarios

WINDOWED = ("sequential",)


def _sealed(backend, n_fpgas=2):
    cluster = Cluster(ClusterConfig(n_fpgas=n_fpgas, backend=backend))
    cluster.boot()
    cluster.seal()
    return cluster


class TestPerBoardMessageIds:
    def test_traced_shared_rerun_is_span_identical(self, scale_small):
        runs = []
        for _ in range(2):
            runner = ScenarioRunner(
                scale_small, config=ClusterConfig(obs=ObsConfig(tracing=True)))
            runner.run()
            runs.append(runner.diagnostics["spans"].dump())
        assert runs[0] and runs[0] == runs[1]

    def test_boards_allocate_independently(self):
        names = []
        for _ in range(2):  # the second cluster is not the process's first
            cluster = Cluster()
            for system in cluster.systems:
                shell = system.tiles[2].shell
                names.append([shell.call("svc.mem", "mem.free",
                                         payload={"sid": 0}).name
                              for _ in range(2)])
        assert names == [["tile2.call#1", "tile2.call#2"]] * 4


class TestBoardOps:
    def test_the_ten_ops(self):
        assert backend_module.BOARD_OPS == (
            "window", "kill", "mark_detached", "partition", "heal",
            "collect", "load", "teardown", "forget", "prefetch")

    @pytest.mark.parametrize("backend", WINDOWED)
    def test_only_the_board_ops_are_reachable(self, backend):
        cluster = _sealed(backend)
        # not an op, public non-op methods, a private helper
        for name in ("reboot", "migrate", "dispatch", "placement", "_news"):
            with pytest.raises(SimulationError,
                               match=rf"board 1.*unknown board op '{name}'"):
                cluster._backend.boards[1].dispatch(name, ())
        # the board survives a refused op
        cluster.run(until=cluster.now + 1_000)


class TestFailedWindow:
    def test_a_board_failure_propagates_from_the_run(self):
        """An error inside a board's window leaves the run that ran it,
        as the board's engine raised it."""
        cluster = Cluster(ClusterConfig(backend="sequential"))
        cluster.boot()

        def boom():
            yield 100
            raise RuntimeError("boom")

        cluster.systems[0].engine.process(boom(), name="boom")
        cluster.seal()
        with pytest.raises(SimulationError, match="process 'boom'"):
            cluster.run(until=cluster.now + 1_000)


# -- ISSUE 23: goldens and the self-oracle for the idle rule ---------------
#
# Everything below was written (and the literals captured) on the tree
# where every board runs every window; a board that sits a window out, the
# park before run() returns and the header-aware envelope copy must leave
# all of it green, unedited.

#: 3 boards, a kill, a partition and a heal whose cycles sit exactly on
#: window barriers (start_at and every ``at`` are multiples of the
#: 500-cycle fabric latency), at a rate low enough that boards idle
BARRIER_CHAOS = {
    "name": "barrier_chaos", "seed": 7, "duration": 120_000, "n_fpgas": 3,
    "start_at": 1_500_000, "drain": 80_000,
    "services": [{"name": "kv", "kind": "kv", "shards": 3, "replicas": 2,
                  "work_cycles": 1_500}],
    "tenants": [
        {"name": "alpha", "service": "kv", "read_fraction": 0.3,
         "arrival": {"process": "poisson", "rate_per_kcycle": 0.25}},
        {"name": "beta", "service": "kv", "read_fraction": 0.8,
         "arrival": {"process": "poisson", "rate_per_kcycle": 0.15}},
    ],
    "chaos": [{"at": 30_000, "action": "kill", "board": 2},
              {"at": 60_000, "action": "partition", "board": 1},
              {"at": 90_000, "action": "heal", "board": 1}],
    "slos": [{"name": "kv-availability", "service": "kv", "objective": 0.9,
              "latency_cycles": 80_000}],
}

#: sha256 of each artefact of the run above, re-pinned once, on purpose,
#: when liveness became one heartbeat per board (answered by its network
#: tile) plus pings for instances marked down, and a backend's reply a
#: ``net.post``: fewer NoC messages move every artefact; all 50 offered
#: requests are still served and the report still passes, as it did on the
#: tree before (captured at da0351e, the id-free digests at 115c7cf).
#: Re-pinned again when a board heartbeat came to be answered by its
#: transport ACK instead of a response datagram: fewer frames move the
#: stats, spans and flight rings, and the partitioned board is heard again
#: a few cycles sooner after the heal, so one attempt fewer fails over
#: (73 -> 72) and the tenants' p99 falls; all 50 requests are still
#: served and the report still passes.
#: The stats digest was re-pinned once more when the NI loss windows were
#: deleted: each board's snapshot lost its ``"noc.packets_dropped": 0.0``
#: entry and nothing else (the other five artefacts are unchanged).
#: The as-recorded spans and flight digests were re-pinned when a message
#: came to cross the monitor and the network interface by plain calls: a
#: monitor opens its ingress span in the cycle the packet is reassembled,
#: as before, but no longer one ring hop later, so on each board the
#: ``monitor.ingress`` span of ``net.bind`` and a ``noc.transit`` opened in
#: that cycle (1,420,051) trade ids.  The report, the stats and both
#: id-free digests are unchanged.
#: The stats digest was re-pinned when the time-weighted stat was
#: deleted: each board's snapshot lost its always-empty
#: ``"time_weighted": {}`` section and nothing else — the new digest is
#: the old snapshot's with that key removed (the other five artefacts are
#: unchanged).
#: All six were re-pinned when the front-end's probe rounds came to fire on
#: multiples of ``PROBE_INTERVAL`` instead of one interval after the cycle
#: setup ended on: the beats, and the spans and flight entries around them,
#: move; in the report only tenant beta's p99/p99.9 move (25,598 -> 25,092
#: cycles), and all 50 requests are still served.
GOLDEN = {
    "report":
        "39a98616e6c89e7dbe33b3f9651421c5780ac8ed71dcfc1e244879364c68439f",
    "spans":
        "6714844623aefcb541517b982c50414aeaadd8c92e20737d9a5d173f70dc12e6",
    "stats":
        "d8f9972ab6ee0f57e8082ffe7207730836b9d99314dd5862c7c80ef65840437c",
    "flight":
        "0f427133cf589a31a84e607275b8883a6f037163beb885bec71da618859f594c",
    "spans_id_free":
        "da32c7a016dd614c213b83405041acc024410463ab9621529a1a9942f63f3315",
    "flight_id_free":
        "f8be8efb6f5bb4c161cbacb44ce693b64b55771d9e7a522b7e33552d30fd0eb2",
}

OBSERVED = ClusterConfig(obs=ObsConfig(tracing=True, flight_recorders=True))


def _artefacts(backend, scenario=BARRIER_CHAOS):
    """Report, span dump, stats snapshots and flight reports of one
    observed run, as comparable bytes — the span dump and flight reports
    twice: as recorded, and id-free."""
    runner = ScenarioRunner(Scenario.from_dict(scenario), backend=backend,
                            config=OBSERVED)
    out = {"report": runner.run().to_json()}
    for name in ("spans", "stats", "flight"):
        part = runner.diagnostics[name]
        if name == "spans":
            part = part.dump()
        out[name] = json.dumps(part, sort_keys=True, default=repr)
    out.update(_id_free(runner.diagnostics["spans"].dump(),
                        runner.diagnostics["flight"]))
    return out


def _id_free(dump, flight):
    """The span dump and the flight reports with every span id replaced by
    ``(name, source, start)`` of the span it names and every trace id by
    the earliest such triple of its trace, rows ordered by cycle and then
    by content.  Two spans opened in one cycle that trade ids — labels,
    not behaviour — leave both texts unchanged."""
    span_key = {row[1]: (row[3], row[5], row[6]) for row in dump if row[1]}
    trace_key = {}
    for row in dump:
        if row[0]:
            key = (row[6], row[3], row[5])
            trace_key[row[0]] = min(trace_key.get(row[0], key), key)

    def ids(trace_id, span_id, parent_id):
        return (trace_key.get(trace_id), span_key.get(span_id),
                span_key.get(parent_id))

    def ordered(rows):  # (cycle, row) pairs
        return sorted((cycle, json.dumps(row, sort_keys=True, default=repr))
                      for cycle, row in rows)

    def entries(doc):
        rows = []
        for entry in doc["entries"]:
            if entry["type"] == "span":
                row = {k: v for k, v in entry.items()
                       if k not in ("trace_id", "span_id", "parent_id")}
                row["ids"] = ids(entry["trace_id"], entry["span_id"],
                                 entry["parent_id"])
                rows.append((entry["end"], row))
            else:
                rows.append((entry["cycle"], entry))
        return dict(doc, entries=ordered(rows))

    spans = ordered((row[6], (ids(*row[:3]),) + row[3:]) for row in dump)
    boards = {board: dict(entries(report),
                          dumps=[entries(doc) for doc in report["dumps"]])
              for board, report in flight.items()}
    return {"spans_id_free": json.dumps(spans),
            "flight_id_free": json.dumps(boards, sort_keys=True,
                                         default=repr)}


def _always_due(patch):
    """The parent's schedule: every board runs every window."""
    patch.setattr(backend_module.Board, "due", lambda self, end: True)


class TestGoldens:
    @pytest.mark.parametrize("backend", WINDOWED)
    def test_barrier_chaos_artefacts_are_pinned(self, backend):
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in _artefacts(backend).items()}
        assert digests == GOLDEN


def test_id_free_texts_ignore_a_same_cycle_id_swap():
    """Two spans opened in one cycle, recorded in either order with either
    pair of ids, children following: one id-free text."""
    def run(first, second):
        dump = [(1, 1, 0, "request:x", "request", "tile2", 10, 40, "[]")]
        opened = {"a": ("service:a", "tile1"), "b": ("backend:b", "tile3")}
        for span_id, name in ((2, first), (3, second)):
            dump.append((1, span_id, 1, *opened[name], "cluster", 20, 30,
                         "[]"))
        dump.append((1, 4, 2 if first == "a" else 3, "dram.access", "dram",
                     "dram", 21, 25, "[]"))
        ring = [{"type": "span", "trace_id": t, "span_id": s,
                 "parent_id": p, "name": n, "category": c, "source": src,
                 "start": start, "end": end}
                for t, s, p, n, c, src, start, end, _ in dump]
        ring.append({"type": "event", "cycle": 20, "kind": "k",
                     "subject": "s", "detail": ""})
        report = {"board": "fpga0", "seen": 5, "entries": ring,
                  "dumps": [{"cycle": 30, "entries": ring}]}
        return _id_free(dump, {"fpga0": report})

    assert run("a", "b") == run("b", "a")
    assert run("a", "b") != _id_free([], {})


class TestSittingOut:
    """Sitting a window out ≡ running every window."""

    @pytest.mark.parametrize("backend", WINDOWED)
    def test_barrier_chaos_is_identical_with_every_board_always_due(
            self, backend, monkeypatch):
        lazy = _artefacts(backend)
        _always_due(monkeypatch)
        assert _artefacts(backend) == lazy

    @settings(max_examples=10, deadline=None)
    @given(small_scenarios())
    def test_random_scenarios_are_identical_with_every_board_always_due(
            self, scenario):
        lazy = _artefacts("sequential", scenario)
        with pytest.MonkeyPatch.context() as patch:
            _always_due(patch)
            assert _artefacts("sequential", scenario) == lazy


class TestClockContract:
    """Whatever sat windows out, nobody outside a run sees a stale board
    clock."""

    def _aligned(self, cluster):
        return [s.engine.now for s in cluster.systems] == \
            [cluster.now] * len(cluster.systems)

    def test_board_clocks_equal_the_cluster_clock_between_runs(self):
        cluster = Cluster(ClusterConfig(n_fpgas=3, backend="sequential"))
        cluster.boot()
        assert self._aligned(cluster)
        # ends mid-idle-stretch, off the window grid
        cluster.run(until=cluster.now + 50 * 500 + 123)
        assert self._aligned(cluster)
        started = cluster.deploy_stateless(
            "echo", echo_handler_factory(100), instances=2)
        cluster.run_until(started)
        assert self._aligned(cluster)
        cluster.run(until=cluster.now + 20 * 500)
        assert self._aligned(cluster)

    @pytest.mark.parametrize("backend", WINDOWED)
    def test_kill_after_idle_windows_is_stamped_at_the_cluster_clock(
            self, backend):
        cluster = Cluster(replace(OBSERVED, n_fpgas=2, backend=backend))
        cluster.boot()
        cluster.seal()
        cluster.run(until=cluster.now + 50 * 500)
        cluster.kill_fpga(1)
        kills = list(cluster.merged_spans().events("board.kill"))
        dump = cluster.flight_reports()["fpga1"]["dumps"][0]
        assert [(rec.start, rec.source) for rec in kills] == \
            [(cluster.now, "fpga1")]
        assert (dump["cycle"], dump["reason"]) == \
            (cluster.now, "board-kill:fpga1")

    @pytest.mark.parametrize("backend", WINDOWED)
    def test_run_until_still_reports_a_drained_cluster(self, backend):
        cluster = _sealed(backend)
        with pytest.raises(SimulationError, match="all partitions drained"):
            cluster.run_until([cluster.engine.event("never")])
