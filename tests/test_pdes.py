"""Windowed cluster simulation: backends, envelopes, determinism.

The contract under test (DESIGN.md, "Windowed simulation"): a windowed
(``backend="sequential"``) cluster run is deterministic, and on these
data-plane scenarios it reports the same bytes, stats snapshots and SLO
verdicts as the shared engine — through a mid-run board kill too.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import echo_handler_factory
from repro.cluster.backend import SPAN_ID_STRIDE
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.errors import ConfigError, SimulationError
from repro.loadgen import ScenarioRunner
from repro.net.envelope import FrameEnvelope, PartitionFabric, pickle_roundtrip
from repro.net.frame import EthernetFrame, wire_copy
from repro.net.transport import Datagram
from repro.sim import Engine


TRACED = ClusterConfig(obs=ObsConfig(tracing=True))
OBSERVED = ClusterConfig(obs=ObsConfig(tracing=True, flight_recorders=True))


def _ran(scenario, backend, config=ClusterConfig()):
    runner = ScenarioRunner(scenario, backend=backend, config=config)
    runner.report = runner.run()
    return runner


def _section(runner, name):
    """One diagnostics section as comparable bytes."""
    part = runner.diagnostics[name]
    if name == "spans":
        part = part.dump()
    return json.dumps(part, sort_keys=True, default=repr)


@pytest.fixture(scope="module")
def s1_runs(scale_small):
    return {b: _ran(scale_small, b, TRACED) for b in ("shared", "sequential")}


@pytest.fixture(scope="module")
def kill_runs(kill_small):
    return {b: _ran(kill_small, b, OBSERVED)
            for b in ("shared", "sequential")}


class TestEnvelope:
    def test_roundtrip_is_a_copy(self):
        env = FrameEnvelope(seq=1, src_partition=2, send_cycle=30,
                            src_mac="a", dst_mac="b", nbytes=96,
                            payload={"k": [1, 2]}, ethertype=0x88B5)
        copy = pickle_roundtrip(env)
        assert copy is not env
        assert copy.payload == env.payload
        assert copy.payload is not env.payload
        assert copy.sort_key() == env.sort_key()

    def test_to_frame_restores_wire_fields(self):
        env = FrameEnvelope(seq=3, src_partition=1, send_cycle=70,
                            src_mac="fpga0", dst_mac="frontend", nbytes=128,
                            payload="hi", ethertype=0x0800)
        frame = env.to_frame()
        assert isinstance(frame, EthernetFrame)
        assert (frame.src_mac, frame.dst_mac) == ("fpga0", "frontend")
        assert frame.sent_at == 70

    def test_sort_key_orders_by_cycle_then_partition_then_seq(self):
        mk = lambda c, p, s: FrameEnvelope(  # noqa: E731
            seq=s, src_partition=p, send_cycle=c, src_mac="x", dst_mac="y",
            nbytes=64, payload=None, ethertype=0)
        envs = [mk(5, 1, 2), mk(4, 2, 9), mk(5, 0, 7), mk(4, 2, 1)]
        ordered = sorted(envs, key=FrameEnvelope.sort_key)
        assert [(e.send_cycle, e.src_partition, e.seq) for e in ordered] == \
            [(4, 2, 1), (4, 2, 9), (5, 0, 7), (5, 1, 2)]


#: application payloads: nested containers of immutable leaves
_payloads = st.recursive(
    st.none() | st.integers() | st.text(max_size=8) | st.binary(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)
_datagrams = st.builds(Datagram, st.sampled_from(["data", "ack"]),
                       st.integers(0, 99), _payloads, st.integers(0, 9_000),
                       st.integers(0, 5))


def _mutable_ids(obj, seen):
    """ids of every mutable object reachable from ``obj``."""
    if isinstance(obj, Datagram):
        seen.add(id(obj))
        _mutable_ids(obj.payload, seen)
    elif isinstance(obj, dict):
        seen.add(id(obj))
        for value in obj.values():
            _mutable_ids(value, seen)
    elif isinstance(obj, (list, tuple)):
        if isinstance(obj, list):
            seen.add(id(obj))
        for value in obj:
            _mutable_ids(value, seen)
    return seen


class TestWireCopy:
    @settings(max_examples=100, deadline=None)
    @given(_payloads | _datagrams
           | st.dictionaries(st.text(max_size=4), _datagrams, max_size=2))
    def test_equals_a_pickle_roundtrip_and_shares_nothing_mutable(self, x):
        copy = wire_copy(x)
        assert copy == pickle.loads(pickle.dumps(x))
        assert type(copy) is type(x)
        assert not _mutable_ids(x, set()) & _mutable_ids(copy, set())

    def test_header_fields_survive(self):
        gram = Datagram("data", 7, {"k": [1]}, payload_bytes=640, frag_rest=2)
        copy = wire_copy(gram)
        assert copy is not gram and copy.payload is not gram.payload
        assert (copy.kind, copy.seq, copy.payload, copy.payload_bytes,
                copy.frag_rest) == ("data", 7, {"k": [1]}, 640, 2)
        assert wire_copy(Datagram("ack", 3)) == Datagram("ack", 3)

    @pytest.mark.parametrize("wrap", [
        lambda x: x, lambda x: Datagram("data", 0, x),
        lambda x: {"port": 1, "data": Datagram("data", 0, x)}])
    def test_an_unpicklable_payload_raises_as_pickle_does(self, wrap):
        payload = wrap({"callback": lambda: None})
        with pytest.raises(Exception) as from_pickle:
            pickle.dumps(payload)
        with pytest.raises(type(from_pickle.value)):
            wire_copy(payload)
        with pytest.raises(type(from_pickle.value)):
            pickle_roundtrip(FrameEnvelope(
                seq=1, src_partition=0, send_cycle=0, src_mac="a",
                dst_mac="b", nbytes=64, payload=payload, ethertype=0))


class TestPartitionFabric:
    def _fabric(self, pid):
        eng = Engine()
        return eng, PartitionFabric(eng, partition_id=pid,
                                    partition_of={"fpga0": 1, "fpga1": 2},
                                    latency_cycles=500)

    def test_local_destination_delivers_in_partition(self):
        eng, fab = self._fabric(1)
        got = []
        fab.attach("fpga0", got.append)
        fab.transmit(EthernetFrame(src_mac="fpga0", dst_mac="fpga0",
                                   nbytes=96, payload="loop"))
        eng.run()
        assert len(got) == 1
        assert not fab.drain_outbox()

    def test_remote_destination_lands_in_outbox(self):
        eng, fab = self._fabric(1)
        fab.transmit(EthernetFrame(src_mac="fpga0", dst_mac="fpga1",
                                   nbytes=96, payload="x"))
        out = fab.drain_outbox()
        assert [e.dst_mac for e in out] == ["fpga1"]
        assert fab.drain_outbox() == []  # drained

    def test_unmapped_mac_belongs_to_host_partition(self):
        eng, fab = self._fabric(0)
        got = []
        fab.attach("host7", got.append)
        fab.transmit(EthernetFrame(src_mac="frontend", dst_mac="host7",
                                   nbytes=64, payload="p"))
        eng.run()
        assert len(got) == 1

    def test_inject_delivers_at_send_plus_latency(self):
        eng, fab = self._fabric(2)
        arrivals = []
        fab.attach("fpga1", lambda f: arrivals.append(eng.now))
        fab.inject(FrameEnvelope(seq=1, src_partition=0, send_cycle=30,
                                 src_mac="frontend", dst_mac="fpga1",
                                 nbytes=64, payload="p", ethertype=0x88B5))
        eng.run()
        assert arrivals == [530]

    def test_inject_to_detached_mac_drops_at_delivery(self):
        eng, fab = self._fabric(2)
        fab.inject(FrameEnvelope(seq=1, src_partition=0, send_cycle=0,
                                 src_mac="frontend", dst_mac="fpga1",
                                 nbytes=64, payload="p", ethertype=0x88B5))
        eng.run()
        assert fab.frames_dropped == 1

    def test_inject_of_a_stale_envelope_is_a_lookahead_violation(self):
        eng, fab = self._fabric(2)
        got = []
        fab.attach("fpga1", got.append)
        eng.run_window(531)  # cycle 530 has run; the clock parks on 531
        stale = FrameEnvelope(seq=4, src_partition=0, send_cycle=30,
                              src_mac="frontend", dst_mac="fpga1",
                              nbytes=64, payload="p", ethertype=0x88B5)
        with pytest.raises(SimulationError,
                           match=r"partition 2: <Envelope #4 p0 frontend->"
                                 r"fpga1 @30> arrives at cycle 530, .* "
                                 r"cycle 531"):
            fab.inject(stale)
        # arriving exactly at the barrier cycle is legal: it has not run
        stale.send_cycle = 31
        fab.inject(stale)
        eng.run()
        assert [f.sent_at for f in got] == [31]

    def test_transmit_to_remote_detached_mac_drops_at_send(self):
        eng, fab = self._fabric(0)
        fab.mark_remote_detached("fpga1")
        fab.transmit(EthernetFrame(src_mac="frontend", dst_mac="fpga1",
                                   nbytes=64, payload="p"))
        assert fab.drain_outbox() == []
        assert fab.frames_dropped == 1


class TestWindowedCluster:
    def test_boot_aligns_all_partitions(self):
        cluster = Cluster(ClusterConfig(n_fpgas=2, backend="sequential"))
        cluster.boot()
        now = cluster.engine.now
        assert now > 0
        for system in cluster.systems:
            assert system.engine.now == now

    def test_span_id_spaces_are_disjoint(self):
        cluster = Cluster(ClusterConfig(n_fpgas=2, backend="sequential"))
        bases = [rec.id_base for rec in
                 [cluster.spans] + [s.spans for s in cluster.systems]]
        assert bases == [0, SPAN_ID_STRIDE, 2 * SPAN_ID_STRIDE]

    def test_deploy_after_seal_rejected(self):
        cluster = Cluster(ClusterConfig(n_fpgas=1, backend="sequential"))
        cluster.boot()
        cluster.seal()
        with pytest.raises(ConfigError, match="seal"):
            cluster.deploy_stateless("svc", lambda: None, instances=1)

    def test_only_a_new_service_is_refused_after_seal(self):
        """On every backend: ``replication=True`` and the autoscaler are
        accepted (their placements are board ops), a new service after
        ``seal()`` is refused."""
        for backend in ("shared", "sequential"):
            cluster = Cluster(ClusterConfig(n_fpgas=1, backend=backend,
                                            replication=True))
            cluster.boot()
            started = cluster.deploy_stateless(
                "svc", echo_handler_factory(100), instances=1)
            cluster.run_until(started)
            cluster.start_frontend()
            cluster.seal()
            assert cluster.replication is not None
            cluster.start_autoscaler("svc")
            with pytest.raises(ConfigError,
                               match="new service 'kv' after seal"):
                cluster.deploy_stateless("kv", echo_handler_factory(100))
            cluster.run(until=cluster.now + 50_000)
            assert list(cluster.directory.services) == ["svc"]

    def test_windowed_backend_rejects_external_engine(self):
        with pytest.raises(ConfigError, match="per partition"):
            Cluster(ClusterConfig(n_fpgas=1, backend="sequential"),
                    engine=Engine())

    def test_unknown_backend_rejected(self):
        for backend in ("warp-drive", "parallel"):
            with pytest.raises(ConfigError, match="unknown backend"):
                Cluster(ClusterConfig(n_fpgas=1, backend=backend))

    def test_windowed_run_needs_a_bound(self):
        cluster = Cluster(ClusterConfig(n_fpgas=1, backend="sequential"))
        cluster.boot()
        with pytest.raises(ConfigError, match="bounded"):
            cluster.run()

    def test_shared_backend_remains_default(self):
        cluster = Cluster(ClusterConfig(n_fpgas=1))
        assert cluster.config.backend == "shared"
        # every board really is on the one shared engine
        assert all(s.engine is cluster.engine for s in cluster.systems)


class TestDeterminism:
    """The headline contract: sequential ≡ shared, byte for byte, on the
    data plane."""

    def test_s1_serving_identical_across_backends(self, s1_runs):
        seq, shared = s1_runs["sequential"], s1_runs["shared"]
        assert seq.report.to_json() == shared.report.to_json()
        assert len(seq.diagnostics["spans"]) > 0
        assert _section(seq, "stats") == _section(shared, "stats")
        # sanity: the run actually served traffic
        assert seq.report.data["totals"]["served"] > 0

    def test_chaos_kill_identical_across_backends(self, kill_runs,
                                                  kill_small):
        seq, shared = kill_runs["sequential"], kill_runs["shared"]
        assert seq.report.to_json() == shared.report.to_json()
        assert _section(seq, "stats") == _section(shared, "stats")
        # one blob: the shared engine with the plane off reports the
        # same bytes as the observed windowed runs
        plain = _ran(kill_small, "shared")
        assert plain.diagnostics is None
        assert plain.report.to_json() == seq.report.to_json()
        # the kill really happened and service survived it
        assert seq.report.chaos_timeline == [
            {"at": 50_000, "action": "kill", "board": 1}]
        totals = seq.report.data["totals"]
        assert totals["offered"] == totals["served"] > 0
        assert totals["unresolved"] == 0
        unhealthy = [iid for iid, h in
                     seq.cluster.frontend.health_table().items()
                     if not h["healthy"]]
        assert unhealthy, "killing a board must mark its replicas down"

    def test_obs_kill_run_events_identical_across_backends(self, kill_runs):
        """The diagnostics of the observed kill run carry events (in the
        merged span set and in every board's black box); the events, the
        stats and the SLO verdicts match the shared engine's."""
        seq, shared = kill_runs["sequential"], kill_runs["shared"]
        for section in ("stats", "slo"):
            assert _section(seq, section) == _section(shared, section), \
                section
        events = [rec.name for rec in seq.diagnostics["spans"].events()]
        assert sorted(events) == sorted(
            rec.name for rec in shared.diagnostics["spans"].events())
        assert events.count("board.kill") == 1
        assert events.count("fault.contained") >= 1
        flight = seq.diagnostics["flight"]
        ring = [e["kind"] for e in flight["fpga1"]["entries"]
                if e["type"] == "event"]
        assert ring.count("board.kill") == 1
        assert ring.count("fault.contained") == events.count(
            "fault.contained")
        assert flight["fpga1"]["dumps"][0]["reason"].startswith(
            "board-kill:")

    def test_sequential_rerun_is_deterministic(self, s1_runs, scale_small):
        a = s1_runs["sequential"]
        b = _ran(scale_small, "sequential", TRACED)
        assert a.report.to_json() == b.report.to_json()
        for section in ("spans", "stats", "slo"):
            assert _section(a, section) == _section(b, section), section

    def test_windowed_matches_shared_aggregates(self, s1_runs):
        """The serving outcome must agree with the shared oracle on this
        workload."""
        shared = s1_runs["shared"].report.tenants["load"]
        seq = s1_runs["sequential"].report.tenants["load"]
        assert shared["served"] == seq["served"]
        assert shared["goodput_per_kcycle"] == seq["goodput_per_kcycle"]
