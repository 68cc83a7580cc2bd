"""Chain replication: the write-ahead log, replicated state machines,
the linearizability checker, chained serving end to end, and unattended
chain repair (promote + splice + fencing) under injected chaos."""

import dataclasses

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.frontend import DEAD_AFTER
from repro.cluster.frontend import PROBE_INTERVAL as FE_PROBE_INTERVAL
from repro.errors import ConfigError, DeadlineExceeded
from repro.kernel import NocConfig, SystemConfig
from repro.loadgen import ChaosAction, ScenarioRunner, get_scenario
from repro.replic import HistoryChecker, KvMachine, WriteAheadLog
from repro.replic.manager import PROBE_INTERVAL, REPAIR_SETTLE, RPC_TIMEOUT

from tests.conftest import submitted


# -- unit: the write-ahead log ---------------------------------------------

class TestWriteAheadLog:
    def test_dense_one_based_indices(self):
        log = WriteAheadLog()
        first = log.append(epoch=1, wid="c#1", body={"op": "put"})
        second = log.append(epoch=1, wid=None, body={"op": "delete"})
        assert (first.index, second.index) == (1, 2)
        assert log.last_index == 2
        assert log.get(1).wid == "c#1"

    def test_replicated_append_must_be_next_index(self):
        log = WriteAheadLog()
        entry = log.append(epoch=1, wid=None, body={})
        with pytest.raises(ConfigError):
            log.append_entry(entry)  # index 1 again: a gap/dup, refuse

    def test_stream_range_and_truncation_gap(self):
        log = WriteAheadLog()
        for _ in range(5):
            log.append(epoch=1, wid=None, body={})
        assert [e.index for e in log.entries_from(3)] == [3, 4, 5]
        assert log.entries_from(6) == []  # nothing to stream, not an error
        dropped = log.truncate_to(3)
        assert dropped == 3 and log.base_index == 3
        # streaming from below the checkpoint must force a snapshot path
        assert log.entries_from(2) is None
        assert [e.index for e in log.entries_from(4)] == [4, 5]

    def test_wire_round_trip(self):
        from repro.replic import LogEntry

        log = WriteAheadLog()
        entry = log.append(epoch=3, wid="w#9", body={"op": "put", "key": "k"})
        assert LogEntry.from_wire(entry.to_wire()) == entry


# -- unit: the replicated state machine ------------------------------------

class TestKvMachine:
    def test_versions_order_mutations(self):
        m = KvMachine(0)
        reply, _ = m.apply({"op": "put", "key": "a", "value": 1})
        assert reply["ok"] and reply["version"] == 1
        reply, _ = m.apply({"op": "delete", "key": "a"})
        assert reply["deleted"] and reply["version"] == 2
        read, _ = m.read({"op": "get", "key": "a"})
        assert read["found"] is False and read["version"] == 2

    def test_snapshot_restore_round_trip(self):
        m = KvMachine(1)
        for i in range(4):
            m.apply({"op": "put", "key": f"k{i}", "value": i})
        clone = KvMachine(1)
        clone.restore(m.snapshot())
        assert clone.store == m.store and clone.version == m.version

    def test_same_log_prefix_same_state(self):
        ops = ([{"op": "put", "key": f"k{i % 3}", "value": i}
                for i in range(9)]
               + [{"op": "delete", "key": "k1"}])
        a, b = KvMachine(0), KvMachine(0)
        for op in ops:
            assert a.apply(dict(op)) == b.apply(dict(op))
        assert a.snapshot() == b.snapshot()


# -- unit: the linearizability checker -------------------------------------

class TestHistoryChecker:
    def clean(self):
        c = HistoryChecker()
        c.record_write("k", 1, 0, 10, acked=True)
        c.record_write("k", 2, 20, 30, acked=True)
        c.record_read("k", 1, 12, 18)
        c.record_read("k", 2, 40, 50)
        c.record_final("k", 2)
        return c

    def test_clean_history_is_linearizable(self):
        report = self.clean().check()
        assert report["linearizable"] is True
        assert report["violations"] == []
        assert report["acked_writes"] == 2 and report["reads"] == 2

    def test_lost_acked_write_detected(self):
        c = self.clean()
        c.record_final("k", 1)  # value 2 was acked but vanished
        report = c.check()
        assert report["lost_acked_writes"] == 1
        assert any(v["kind"] == "lost_acked_write"
                   for v in report["violations"])

    def test_stale_read_detected(self):
        c = self.clean()
        c.record_read("k", 1, 60, 70)  # starts after 2 was acked
        report = c.check()
        assert any(v["kind"] == "stale_read" for v in report["violations"])

    def test_future_read_detected(self):
        c = HistoryChecker()
        c.record_write("k", 1, 0, 10, acked=True)
        c.record_read("k", 5, 12, 18)  # nobody ever submitted 5
        report = c.check()
        assert any(v["kind"] == "future_read" for v in report["violations"])

    def test_read_regression_detected(self):
        c = self.clean()
        # non-overlapping read pair observed out of order
        c.record_read("k", 2, 60, 70)
        c.record_read("k", 1, 80, 90)
        report = c.check()
        assert any(v["kind"] == "read_regression"
                   for v in report["violations"])

    def test_unacked_write_may_be_applied_or_lost(self):
        c = HistoryChecker()
        c.record_write("k", 1, 0, 10, acked=True)
        c.record_write("k", 2, 20, 30, acked=False)  # timed out
        # either outcome is linearizable: a later read may see 1 or 2 ...
        c.record_read("k", 2, 40, 50)
        # ... and the final state may have dropped the unacked value
        c.record_final("k", 2)
        assert c.check()["linearizable"] is True
        d = HistoryChecker()
        d.record_write("k", 1, 0, 10, acked=True)
        d.record_write("k", 2, 20, 30, acked=False)
        d.record_final("k", 1)
        assert d.check()["linearizable"] is True


# -- end-to-end: chained serving -------------------------------------------

def chain_cluster(n_fpgas=3, n_shards=2, replication=2, seed=1):
    cluster = Cluster(ClusterConfig(
        n_fpgas=n_fpgas,
        system=SystemConfig(seed=seed, noc=NocConfig(width=3, height=3)),
        recovery=True,
        replication=True))
    cluster.boot()
    started, configured = cluster.deploy_chain(
        "kv", lambda shard: KvMachine(shard),
        n_shards=n_shards, replication=replication)
    engine = cluster.engine
    engine.run_until_done(engine.all_of(started), limit=50_000_000)
    cluster.start_frontend()
    engine.run_until_done(configured, limit=50_000_000)
    return cluster


def drive(cluster, gen, limit=30_000_000):
    proc = cluster.engine.process(gen, name="test.drive")
    return cluster.engine.run_until_done(proc.done, limit=limit)


def member_accels(cluster, shard):
    spec = cluster.directory.services["kv"]
    accels = []
    for iid in spec.chains[shard]:
        inst = next(i for i in spec.instances if i.iid == iid)
        accels.append(
            cluster.systems[inst.fpga].tiles[inst.node].accelerator)
    return accels


class TestChainServing:
    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = chain_cluster()

        def load():
            for i in range(8):
                reply = yield submitted(
                    cluster.frontend, "kv",
                    body={"op": "put", "key": f"key{i}", "value": i},
                    key=f"key{i}", write=True)
                assert reply["ok"] and reply["body"]["ok"], reply

        drive(cluster, load())
        cluster.run(until=cluster.engine.now + 50_000)
        return cluster

    def test_write_acked_then_read_back(self, cluster):
        def go():
            return (yield submitted(
                cluster.frontend, "kv", body={"op": "get", "key": "key3"},
                key="key3"))

        reply = drive(cluster, go())
        assert reply["ok"] and reply["body"]["found"]
        assert reply["body"]["value"] == 3

    def test_acked_writes_exist_on_every_member(self, cluster):
        spec = cluster.directory.services["kv"]
        for shard in spec.chains:
            accels = member_accels(cluster, shard)
            stores = [a.machine.store for a in accels]
            assert stores[0] == stores[1], \
                f"shard {shard} replicas diverged: {stores}"
            stats = [a.stat() for a in accels]
            assert stats[0]["commit_index"] == stats[1]["commit_index"]
            assert all(s["applied_index"] == s["commit_index"]
                       for s in stats)

    def test_roles_follow_chain_order(self, cluster):
        spec = cluster.directory.services["kv"]
        for shard in spec.chains:
            roles = [a.stat()["role"]
                     for a in member_accels(cluster, shard)]
            assert roles == ["head", "tail"]

    def test_tearing_down_an_already_empty_or_failed_member_does_not_raise(
            self):
        """The manager frees a fenced member's tile with
        ``ServiceDirectory.teardown``: for a tile already failed, or
        already unloaded, the unload event fails and nothing raises."""
        cluster = chain_cluster(n_shards=1)
        spec = cluster.directory.services["kv"]
        empty, failed = spec.instances[:2]
        system = cluster.systems[empty.fpga]
        cluster.engine.run_until_done(system.mgmt.teardown(empty.node))
        cluster.systems[failed.fpga].mgmt.fail_stop(failed.node)
        for inst in (empty, failed, empty):
            cluster.directory.teardown(inst)
        cluster.run(until=cluster.engine.now + 10_000)
        assert system.tiles[empty.node].free
        assert spec.instances == []  # both unplaced, neither routable

    def test_a_timeout_is_deadline_exceeded_and_only_a_timeout_is_counted(
            self):
        """The host client fails a request that runs out of time with
        ``DeadlineExceeded``, the manager counts exactly that as an RPC
        timeout, and any other error reaches the caller."""
        cluster = chain_cluster(n_shards=1)
        engine, manager = cluster.engine, cluster.replication
        inst = cluster.directory.services["kv"].instances[0]
        unbound = dataclasses.replace(inst, port=9_999)  # nobody listens
        late = manager.client.request(cluster.mac(inst.fpga), unbound.port,
                                      {"op": "chain.stat"}, timeout=1_000)
        cluster.run(until=engine.now + 2_000)
        assert late.failed and isinstance(late.value, DeadlineExceeded)

        def stat(target):
            return (yield from manager._rpc(target, {"op": "chain.stat"},
                                            timeout=5_000))

        timeouts = manager.rpc_timeouts
        assert drive(cluster, stat(unbound)) is None
        assert manager.rpc_timeouts == timeouts + 1

        def refused(*_args, **_kwargs):
            event = engine.event("refused")
            event.fail(ConfigError("not a timeout"))
            return event

        manager.client.request = refused
        with pytest.raises(ConfigError, match="not a timeout"):
            drive(cluster, stat(inst))
        assert manager.rpc_timeouts == timeouts + 1

    def test_chain_requires_replication_manager(self):
        cluster = Cluster()
        cluster.boot()
        with pytest.raises(ConfigError):
            cluster.deploy_chain("kv", lambda s: KvMachine(s), n_shards=1)


# -- chaos: unattended repair ----------------------------------------------

def reduced_campaign(seed, duration=1_000_000):
    """The R2 library scenario with only its head-board kill, shortened:
    the splice still lands before the read-back."""
    scenario = dataclasses.replace(
        get_scenario("replication_chaos", seed=seed), duration=duration,
        chaos=(ChaosAction(at=200_000, action="kill", board=0),),
        drain=1_000_000)
    return ScenarioRunner(scenario).run().data


class TestChainRepair:
    @pytest.fixture(scope="class")
    def killed(self):
        return reduced_campaign(seed=5)

    def test_no_acked_write_lost_across_board_kill(self, killed):
        assert [a["action"] for a in killed["chaos"]] == ["kill"]
        assert killed["consistency"]["lost_acked_writes"] == 0
        assert killed["consistency"]["violations"] == []
        assert killed["consistency"]["linearizable"] is True
        assert killed["consistency"]["acked_writes"] > 0
        assert killed["consistency"]["failed_final_reads"] == 0

    def test_repair_is_unattended_promote_then_splice(self, killed):
        repair = killed["replication"]["repair"]
        assert repair["promotes"] >= 1
        assert repair["splices"] >= 1
        # promotes restore service orders of magnitude faster than the
        # splice's partial reconfiguration
        promote = min(e["latency"] for e in repair["events"]
                      if e["kind"] == "promote")
        splice = max(e["latency"] for e in repair["events"]
                     if e["kind"] == "splice")
        assert promote < splice

    def test_chains_restored_to_full_replication(self, killed):
        (svc,) = killed["scenario"]["services"]
        for shard, chain in killed["replication"]["chains"]["kv"].items():
            assert chain["length"] == svc["replicas"], \
                f"shard {shard} still under-replicated"
            assert chain["epoch"] >= 1

    def test_same_seed_reports_are_identical(self):
        a = reduced_campaign(seed=11, duration=500_000)
        b = reduced_campaign(seed=11, duration=500_000)
        assert a == b


class TestPartitionFencing:
    def test_stale_head_is_fenced_not_split_brained(self):
        """A partitioned board keeps running and still believes it is the
        chain head; after the heal its writes must be rejected, not
        silently merged (the split-brain the epochs exist to prevent)."""
        cluster = chain_cluster(n_fpgas=3, n_shards=1, replication=3,
                                seed=3)
        engine = cluster.engine
        spec = cluster.directory.services["kv"]
        stale_head = next(i for i in spec.instances
                          if i.iid == spec.chains[0][0])
        stale_accel = cluster.systems[stale_head.fpga] \
            .tiles[stale_head.node].accelerator

        cluster.partition_fpga(stale_head.fpga)
        for _ in range(200):
            cluster.run(until=engine.now + 25_000)
            if spec.epochs[0] >= 2:
                break
        assert spec.epochs[0] >= 2, "survivors must promote"
        assert stale_head.iid not in spec.chains[0]
        # the partitioned ex-head never heard any of it
        assert stale_accel.epoch == 0 or not stale_accel.fenced

        cluster.heal_fpga(stale_head.fpga)
        manager = cluster.replication

        def stale_write():
            return (yield from manager._rpc(
                stale_head, {"op": "put", "key": "poison",
                             "value": "evil", "_wid": "evil#1"},
                nbytes=64))

        reply = drive(cluster, stale_write())
        # rejected outright (nack) or unreachable — never acknowledged
        assert not (isinstance(reply, dict) and reply.get("ok")), reply
        cluster.run(until=engine.now + 500_000)
        assert manager.fences_acked >= 1

        def check():
            return (yield submitted(
                cluster.frontend, "kv", body={"op": "get", "key": "poison"},
                key="poison"))

        reply = drive(cluster, check())
        assert reply["ok"] and reply["body"]["found"] is False, \
            "the fenced head's write leaked into the chain"

    def test_a_partitioned_head_is_promoted_away_once_its_beats_go_unanswered(
            self):
        """Nothing reports a partition: the manager acts on the front-end's
        heartbeat record.  The board is down within ``DEAD_AFTER + 1``
        front-end intervals, the manager's next tick marks the shard dirty,
        the repair settles, and the promote's four RPCs (two stats, two
        configs, each answered in a few thousand cycles) fit in one more
        RPC timeout."""
        cluster = chain_cluster(n_fpgas=3, n_shards=1, replication=3,
                                seed=3)
        engine, spec = cluster.engine, cluster.directory.services["kv"]
        head = spec.instance(spec.chains[0][0])
        board = cluster.frontend.boards[cluster.mac(head.fpga)]
        partitioned_at = engine.now
        cluster.partition_fpga(head.fpga)
        bound = (partitioned_at + (DEAD_AFTER + 1) * FE_PROBE_INTERVAL
                 + PROBE_INTERVAL + REPAIR_SETTLE + RPC_TIMEOUT)
        while head.iid in spec.chains[0]:
            assert engine.now < bound, spec.chains
            cluster.run(until=engine.now + 100)
        # what the manager acted on: the front-end holds the board down
        assert board.misses >= DEAD_AFTER
        assert spec.epochs[0] == 2 and cluster.replication.promotes == 1

    def test_a_healthy_cluster_costs_the_manager_no_rpc(self):
        cluster = chain_cluster()
        client = cluster.replication.client
        sent = client.requests_sent
        cluster.run(until=cluster.engine.now + 5 * PROBE_INTERVAL)
        assert client.requests_sent == sent


class TestFrontendDivergenceCounter:
    def test_unreplicated_fanout_writes_are_counted(self):
        """Satellite regression: the legacy sharded fan-out path counts
        every best-effort replica write that was never acknowledged."""
        from repro.policy import RetryPolicy

        cluster = Cluster()
        cluster.boot()

        def kv_factory(shard):
            store = {}

            def handler(body):
                if body.get("op") == "put":
                    store[body["key"]] = body["value"]
                    return 500, {"ok": True}, 32
                return 500, {"ok": True,
                             "value": store.get(body.get("key"))}, 64
            return handler

        started = cluster.deploy_sharded("kv", kv_factory, n_shards=2,
                                         replication=2)
        engine = cluster.engine
        engine.run_until_done(engine.all_of(started), limit=50_000_000)
        cluster.start_frontend(retry=RetryPolicy(
            deadline=120_000, attempt_timeout=20_000))
        spec = cluster.directory.services["kv"]
        # a key whose primary lives on fpga0, so the best-effort replica
        # write targets fpga1 — which we silently partition
        key = next(
            k for k in (f"key{i}" for i in range(64))
            if next(i for i in spec.instances
                    if i.shard == spec.ring.shard_for(k)
                    and i.replica == 0).fpga == 0)
        assert cluster.frontend.telemetry()["writes_unreplicated"] == 0
        cluster.partition_fpga(1)
        def go():
            return (yield submitted(
                cluster.frontend, "kv",
                body={"op": "put", "key": key, "value": 1}, key=key,
                write=True))

        reply = drive(cluster, go())
        assert reply["ok"], "the primary on fpga0 still acks the write"
        cluster.run(until=engine.now + 200_000)
        assert cluster.frontend.telemetry()["writes_unreplicated"] >= 1
