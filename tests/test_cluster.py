"""The scale-out cluster layer: sharding determinism, health-aware
failover, admission control, and cross-FPGA trace propagation."""

import pytest

from repro.cluster import (
    CacheConfig,
    Cluster,
    ClusterConfig,
    FrontEnd,
    HashRing,
    ObsConfig,
)
from repro.errors import ConfigError
from repro.loadgen import ScenarioRunner, get_scenario
from repro.loadgen.library import scale_out
from repro.replic.machine import KvMachine

from tests.conftest import submitted


def small_cluster(n_fpgas=2, **config):
    cluster = Cluster(ClusterConfig(n_fpgas=n_fpgas, **config))
    cluster.boot()
    return cluster


def echo_factory(cycles=500):
    def make():
        def handler(body):
            return cycles, {"echo": body.get("x")}, 64
        return handler
    return make


def kv_factory(cycles=500):
    def make(shard):
        store = {}

        def handler(body):
            if body.get("op") == "put":
                store[body["key"]] = body["value"]
                return cycles, {"ok": True}, 32
            return cycles, {"ok": body.get("key") in store,
                            "value": store.get(body.get("key"))}, 64
        return handler
    return make


def deploy_and_settle(cluster, started):
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=50_000_000)


def drive(cluster, gen, limit=10_000_000):
    proc = cluster.engine.process(gen, name="test.drive")
    return cluster.engine.run_until_done(proc.done, limit=limit)


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(n_shards=8)
        b = HashRing(n_shards=8)
        keys = [f"key{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_covers_all_shards(self):
        ring = HashRing(n_shards=4)
        hit = {ring.shard_for(f"key{i}") for i in range(500)}
        assert hit == {0, 1, 2, 3}

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            HashRing(n_shards=0)


class TestPlacement:
    def test_sharded_replicas_on_distinct_fpgas(self):
        cluster = small_cluster(n_fpgas=2)
        cluster.deploy_sharded("kv", kv_factory(), n_shards=4,
                               replication=2)
        by_shard = {}
        for inst in cluster.directory.services["kv"].instances:
            by_shard.setdefault(inst.shard, set()).add(inst.fpga)
        for shard, fpgas in by_shard.items():
            assert len(fpgas) == 2, f"shard {shard} replicas share an FPGA"

    def test_placement_deterministic(self):
        tables = []
        for _ in range(2):
            cluster = small_cluster(n_fpgas=2)
            cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                   replication=2)
            cluster.deploy_stateless("echo", echo_factory(), instances=2)
            tables.append(cluster.directory.placement_table())
        assert tables[0] == tables[1]

    def test_replication_beyond_cluster_rejected(self):
        cluster = small_cluster(n_fpgas=2)
        with pytest.raises(ConfigError):
            cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                   replication=3)

    def test_a_deploy_that_cannot_fit_loads_nothing(self):
        """6 shards x 2 replicas want 6 tiles on each of 2 boards that
        have 4: the deploy must refuse before its first load, not bind
        and reconfigure half a service it then never registers."""
        cluster = small_cluster(n_fpgas=2)
        free = [s.mgmt.free_tiles() for s in cluster.systems]
        names = dict(cluster.directory.items())
        with pytest.raises(ConfigError, match="needs 6 .* FPGA 0.* has 4"):
            cluster.deploy_sharded("kv", kv_factory(), n_shards=6,
                                   replication=2)
        assert cluster.directory.services == {}
        assert dict(cluster.directory.items()) == names
        assert [s.mgmt.free_tiles() for s in cluster.systems] == free
        assert not any(tile.region.reconfiguring or tile.reserved
                       for s in cluster.systems for tile in s.tiles)
        with pytest.raises(ConfigError, match="needs 5 .* FPGA 0.* has 4"):
            cluster.deploy_stateless("kv", echo_factory(), instances=9)
        assert cluster.directory.services == {}
        # the refused picks did not move the round-robin cursor either
        started = cluster.deploy_stateless("echo", echo_factory(),
                                           instances=1)
        assert [i.fpga for i in cluster.directory.spec("echo").instances] \
            == [0]
        # the name is not burnt: a retry that fits deploys and settles
        started += cluster.deploy_sharded("kv", kv_factory(), n_shards=3,
                                          replication=2)
        deploy_and_settle(cluster, started)
        assert all(i.ready for i in cluster.directory.spec("kv").instances)

    def test_stateless_placement_skips_a_killed_board_without_the_cache(
            self):
        """The cursor points at board 1 when it is killed: the scale-up
        takes the next live board, cache or no cache."""
        cluster = small_cluster(n_fpgas=2)
        assert cluster.bitplane is None
        cluster.deploy_stateless("echo", echo_factory(), instances=1)
        cluster.kill_fpga(1)
        inst, _started = cluster.directory.add_instance("echo")
        assert inst.fpga == 0

    @pytest.mark.parametrize("cache", [False, True])
    def test_stateless_placement_skips_a_full_board_cache_or_not(self, cache):
        """Seven unreplicated shards fill board 0 and leave board 1 one
        free tile; the cursor points at board 0, and the stateless deploy
        takes board 1 with or without the compile cache."""
        cluster = small_cluster(n_fpgas=2,
                                cache=CacheConfig(enabled=cache))
        cluster.deploy_sharded("fill", kv_factory(), n_shards=7,
                               replication=1)
        assert [cluster.directory.free_tiles(i) for i in (0, 1)] == [0, 1]
        cluster.deploy_stateless("kv", echo_factory(), instances=1)
        assert [i.fpga for i in cluster.directory.spec("kv").instances] \
            == [1]

    def test_deploy_chain_after_seal_is_refused_like_its_siblings(self):
        cluster = small_cluster(
            n_fpgas=2, replication=True)
        cluster.seal()
        for deploy, factory in ((cluster.deploy_sharded, kv_factory()),
                                (cluster.deploy_chain, KvMachine)):
            with pytest.raises(ConfigError, match="seal"):
                deploy("kv", factory, n_shards=1, replication=1)
        assert cluster.directory.services == {}

    def test_duplicate_service_rejected(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.deploy_stateless("echo", echo_factory(), instances=1)
        with pytest.raises(ConfigError):
            cluster.deploy_stateless("echo", echo_factory(), instances=1)

    def test_directory_is_a_namespace(self):
        cluster = small_cluster(n_fpgas=2)
        cluster.deploy_stateless("echo", echo_factory(), instances=2)
        # instances are bound cluster-wide under their iid
        assert cluster.directory.lookup("echo#0") == (0, 2)
        assert "echo#1" in cluster.directory


class TestServing:
    def test_request_round_trip(self):
        cluster = small_cluster(n_fpgas=1)
        started = cluster.deploy_stateless("echo", echo_factory(),
                                           instances=1)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend()

        def go():
            return (yield submitted(fe, "echo", body={"x": 41}))

        reply = drive(cluster, go())
        assert reply == {"ok": True, "body": {"echo": 41}}

    def test_unknown_service_errors(self):
        cluster = small_cluster(n_fpgas=1)
        fe = cluster.start_frontend()

        def go():
            return (yield submitted(fe, "nope", body={"x": 1}))

        reply = drive(cluster, go())
        assert reply["ok"] is False
        assert "nope" in reply["error"]

    def test_stateless_load_spreads_across_instances(self):
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_stateless("echo", echo_factory(4_000),
                                           instances=2)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend()
        replies = []

        def closed_loop():
            for i in range(10):
                replies.append((yield submitted(fe, "echo", body={"x": i})))

        for c in range(4):
            cluster.engine.process(closed_loop(), name=f"loop{c}")
        cluster.run(until=cluster.engine.now + 400_000)
        assert [reply["ok"] for reply in replies] == [True] * 40
        # both instances took real work (least-loaded spreading)
        assert all(h.served > 0 for h in cluster.frontend.health.values())


class TestAdmissionControl:
    def test_overload_past_the_queue_deadline_is_rejected(self):
        """Twelve closed loops on one slow instance, four slots: a
        submission that waits in the backlog past ``queue_deadline`` is
        answered ``rejected``, and the in-flight budget is never
        exceeded."""
        cluster = small_cluster(n_fpgas=1)
        started = cluster.deploy_stateless("echo", echo_factory(20_000),
                                           instances=1)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend(max_pending=4, queue_deadline=60_000)
        replies, peak = [], []

        def closed_loop():
            for _ in range(4):
                replies.append((yield submitted(fe, "echo", body={"x": 0})))
                peak.append(fe.inflight)

        for c in range(12):
            cluster.engine.process(closed_loop(), name=f"loop{c}")
        cluster.run(until=cluster.engine.now + 300_000)
        rejected = sum(1 for reply in replies if reply.get("rejected"))
        assert fe.requests_rejected == rejected > 0
        assert max(peak) <= 4


class TestFailover:
    def test_kill_fpga_marks_instances_dead(self):
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_sharded("kv", kv_factory(), n_shards=2,
                                         replication=2)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        cluster.kill_fpga(1)
        cluster.run(until=cluster.engine.now + 1_000)
        for inst in cluster.directory.instances_on(1):
            assert not cluster.frontend.health[inst.iid].healthy
        for inst in cluster.directory.instances_on(0):
            assert cluster.frontend.health[inst.iid].healthy

    def test_an_operator_kill_is_heard_at_once_and_spends_no_time_box(self):
        """``mgmt.fail_stop`` reports through the fault manager, so the
        front-end marks the instance down in the same cycle and routes
        every request to the survivor without waiting out an attempt."""
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_stateless("echo", echo_factory(1_000),
                                           instances=2)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend()
        cluster.run(until=cluster.engine.now + 20_000)
        victim = cluster.directory.spec("echo").instances[0]
        cluster.systems[victim.fpga].mgmt.fail_stop(victim.node)
        assert {iid: b.healthy for iid, b in fe.health.items()} == {
            victim.iid: False, "echo#1": True}
        t0 = cluster.engine.now
        answers = []

        def answered(reply):
            answers.append((reply["ok"], cluster.engine.now - t0))

        for i in range(6):
            fe.submit("echo", body={"x": i}, on_done=answered)
        cluster.run(until=t0 + 100_000)
        assert [ok for ok, _ in answers] == [True] * 6
        assert max(took for _, took in answers) < fe.retry.attempt_timeout
        assert fe.failovers == 0

    def test_reads_fail_over_to_replica(self):
        # the one thing a ScenarioReport cannot say: a read after the
        # kill returns the *value written before it*
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_sharded("kv", kv_factory(1_000),
                                         n_shards=4, replication=2)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend()
        keys = [f"key{i}" for i in range(8)]

        def write_all():
            for k in keys:
                reply = yield submitted(
                    fe, "kv", body={"op": "put", "key": k, "value": f"v-{k}"},
                    key=k, write=True)
                assert reply["ok"], reply

        drive(cluster, write_all())
        cluster.kill_fpga(1)
        seen = {}

        def read_back():
            for k in keys:
                reply = yield submitted(fe, "kv", body={"op": "get", "key": k},
                                        key=k)
                seen[k] = reply["ok"] and reply["body"]["value"]

        drive(cluster, read_back())
        assert seen == {k: f"v-{k}" for k in keys}

    def test_availability_run_is_deterministic(self, kill_small):
        runners = [ScenarioRunner(kill_small) for _ in range(2)]
        a, b = (runner.run() for runner in runners)
        assert a.to_json() == b.to_json()
        # the kill bit, and service rode through it
        assert a.chaos_timeline == [
            {"at": 50_000, "action": "kill", "board": 1}]
        assert a.passed and a.matches_expectation()
        totals = a.data["totals"]
        assert totals["offered"] == totals["served"] > 0
        assert totals["unresolved"] == 0
        cluster = runners[0].cluster
        on_board1 = {inst.iid for inst in cluster.directory.instances_on(1)}
        health = cluster.frontend.health_table()
        assert on_board1
        assert all(not health[iid]["healthy"] for iid in on_board1)
        assert all(h["healthy"] for iid, h in health.items()
                   if iid not in on_board1)


class TestScaling:
    @pytest.fixture(scope="class")
    def reports(self):
        return {n: ScenarioRunner(scale_out(n_fpgas=n)).run()
                for n in (1, 2)}

    def test_two_fpgas_beat_one(self, reports):
        goodput = {}
        for n, report in reports.items():
            totals = report.data["totals"]
            assert totals["failed"] == 0 and totals["unresolved"] == 0
            goodput[n] = report.tenants["load"]["goodput_per_kcycle"]
        assert goodput[1] > 0
        assert goodput[2] / goodput[1] >= 1.5

    def test_scaling_run_is_deterministic(self, reports):
        again = ScenarioRunner(get_scenario("scale_out")).run()
        assert again.to_json() == reports[2].to_json()


class TestTracing:
    def test_span_crosses_the_fabric_hop(self):
        cluster = small_cluster(n_fpgas=1, obs=ObsConfig(tracing=True))
        started = cluster.deploy_stateless("echo", echo_factory(),
                                           instances=1)
        deploy_and_settle(cluster, started)
        fe = cluster.start_frontend()

        def go():
            return (yield submitted(fe, "echo", body={"x": 1}))

        reply = drive(cluster, go())
        assert reply["ok"]
        by_name = {}
        for rec in cluster.spans:
            if rec.category == "cluster":
                by_name[rec.name.split(":")[0]] = rec
        assert set(by_name) == {"frontend", "forward", "backend"}
        fe, fwd, backend = (by_name["frontend"], by_name["forward"],
                            by_name["backend"])
        # one causal chain: frontend -> forward -> backend, one trace
        assert fwd.parent_id == fe.span_id
        assert backend.parent_id == fwd.span_id
        assert fe.trace_id == fwd.trace_id == backend.trace_id
        # the backend span ran on a tile, not on the front-end host
        assert backend.source.startswith("tile")


class TestClusterConstruction:
    def test_per_fpga_configs_are_derived(self):
        cluster = small_cluster(n_fpgas=3)
        assert cluster.macs() == ["fpga0", "fpga1", "fpga2"]
        seeds = [s.config.seed for s in cluster.systems]
        assert seeds == [0, 1, 2]
        # same grid everywhere, derived via dataclasses.replace
        for system in cluster.systems:
            assert system.config.noc == cluster.config.system.noc

    def test_one_shared_span_recorder(self):
        cluster = small_cluster(n_fpgas=2)
        assert cluster.systems[0].spans is cluster.systems[1].spans
        assert cluster.systems[0].spans is cluster.spans

    def test_second_frontend_rejected(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.start_frontend()
        with pytest.raises(ConfigError):
            cluster.start_frontend()
