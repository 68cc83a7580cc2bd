"""The scale-out cluster layer: sharding determinism, health-aware
failover, admission control, and cross-FPGA trace propagation."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FrontEnd,
    HashRing,
    ObsConfig,
)
from repro.errors import ConfigError
from repro.loadgen import ScenarioRunner, get_scenario
from repro.loadgen.library import scale_out
from repro.policy import RetryPolicy
from repro.replic.machine import KvMachine
from repro.workloads import ClusterClient

from tests.test_frontend_path import ProcessLog


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
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            reply = yield host.call_service("echo", {"x": 41},
                                            timeout=200_000)
            return reply

        reply = drive(cluster, go())
        assert reply == {"ok": True, "body": {"echo": 41}}

    def test_unknown_service_errors(self):
        cluster = small_cluster(n_fpgas=1)
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            reply = yield host.call_service("nope", {"x": 1},
                                            timeout=200_000)
            return reply

        reply = drive(cluster, go())
        assert reply["ok"] is False
        assert "nope" in reply["error"]

    def test_stateless_load_spreads_across_instances(self):
        cluster = small_cluster(n_fpgas=2)
        started = cluster.deploy_stateless("echo", echo_factory(4_000),
                                           instances=2)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        hosts = [ClusterClient(cluster.engine, cluster.fabric, f"h{i}")
                 for i in range(4)]
        for host in hosts:
            reqs = [{"body": {"x": i}} for i in range(10)]
            cluster.engine.process(
                host.closed_loop_service("echo", reqs, timeout=300_000),
                name=f"{host.mac}.loop")
        cluster.run(until=cluster.engine.now + 400_000)
        assert sum(h.ok for h in hosts) == 40
        # both instances took real work (least-loaded spreading)
        assert all(h.served > 0 for h in cluster.frontend.health.values())


class TestAdmissionControl:
    def test_overload_is_rejected_not_queued(self):
        cluster = small_cluster(n_fpgas=1)
        started = cluster.deploy_stateless("echo", echo_factory(20_000),
                                           instances=1)
        deploy_and_settle(cluster, started)
        cluster.start_frontend(max_pending=4)
        hosts = [ClusterClient(cluster.engine, cluster.fabric, f"h{i}")
                 for i in range(12)]
        for host in hosts:
            cluster.engine.process(
                host.closed_loop_service(
                    "echo", [{"body": {"x": 0}}] * 4, timeout=400_000),
                name=f"{host.mac}.loop")
        cluster.run(until=cluster.engine.now + 300_000)
        rejected = sum(h.rejected for h in hosts)
        assert cluster.frontend.requests_rejected == rejected
        assert rejected > 0
        # the budget was enforced, never exceeded
        assert cluster.frontend.inflight <= 4


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

    def test_reads_fail_over_to_replica(self):
        # the one thing a ScenarioReport cannot say: a read after the
        # kill returns the *value written before it*
        cluster = small_cluster(n_fpgas=2, swallow_orphan_errors=True)
        started = cluster.deploy_sharded("kv", kv_factory(1_000),
                                         n_shards=4, replication=2)
        deploy_and_settle(cluster, started)
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")
        keys = [f"key{i}" for i in range(8)]
        writes = [{"body": {"op": "put", "key": k, "value": f"v-{k}"},
                   "key": k, "write": True} for k in keys]
        drive(cluster, host.closed_loop_service("kv", writes))
        assert host.ok == 8
        cluster.kill_fpga(1)
        seen = {}

        def read_back():
            for k in keys:
                reply = yield host.call_service(
                    "kv", {"op": "get", "key": k}, key=k, timeout=100_000)
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
        cluster.start_frontend()
        host = ClusterClient(cluster.engine, cluster.fabric, "h0")

        def go():
            return (yield host.call_service("echo", {"x": 1},
                                            timeout=200_000))

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


class TestClosedGenerators:
    """Closing a generator (``gen.close()``, or the collector reaping an
    abandoned run) is not an outcome: nothing is counted, nobody is
    answered.  Both waited under ``except BaseException`` once."""

    def test_a_closed_request_is_not_a_failed_request(self):
        engine = ProcessLog()
        cluster = Cluster(ClusterConfig(n_fpgas=1), engine=engine)
        cluster.boot()
        deploy_and_settle(cluster, cluster.deploy_stateless(
            "echo", echo_factory(20_000), instances=1))
        fe = cluster.start_frontend()
        observed, answered = [], []

        class Slo:
            def observe(self, *args, **kwargs):
                observed.append(args)

        cluster.slo = Slo()
        assert fe.submit("echo", body={"x": 1}, on_done=answered.append)
        cluster.run(until=cluster.now + 5_000)  # on the wire, unanswered
        assert fe.inflight == 1 and fe.health["echo#0"].outstanding == 1
        before = fe.telemetry()
        engine.started["fe.submit.1"].generator.close()
        assert fe.telemetry() == before
        assert fe.requests_failed == 0
        assert not answered and not observed
        # the late answer finds a finished process and moves nothing either
        cluster.run(until=cluster.now + 100_000)
        assert fe.requests_failed == 0 and not answered and not observed

    def test_a_closed_retry_loop_answers_nobody(self):
        engine = ProcessLog()
        never = engine.event("never")
        result = RetryPolicy().drive(engine, lambda _timeout: never,
                                     retry_on=(ConfigError,), name="loop")
        engine.run(until=10)
        engine.started["loop"].generator.close()
        engine.run(until=20)
        assert not result.triggered


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
