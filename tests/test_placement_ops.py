"""Placement as board ops: one path onto a board on every backend.

``load`` / ``teardown`` / ``forget`` / ``prefetch`` are board ops
(DESIGN.md, "Board ops"), so the autoscaler and chain repair run on the
windowed backend too.  Between runs an op runs at once; one issued
inside a host window runs at the barrier that ends it.  These tests pin
that rule, and on ``sequential`` the exact outcome of a scale-up and
back, a chain repair after a board kill and a warm scale-up.
"""

import hashlib
import json

import pytest

from repro.apps import echo_handler_factory
from repro.cluster import CacheConfig, Cluster, ClusterConfig
from repro.cluster.backend import FABRIC_LATENCY
from repro.cluster.service import ClusterPortedService
from repro.kernel import NocConfig, SystemConfig
from repro.policy import RetryPolicy
from repro.replic import KvMachine
from repro.sched.autoscaler import INTERVAL

from tests.conftest import submitted

#: outlives the queueing of a burst on one replica
PATIENT = RetryPolicy(deadline=3_000_000, attempt_timeout=3_000_000,
                      backoff_base=200, backoff_cap=2_000)


def _drive(cluster, done, step=50_000, limit=12_000_000):
    """Run in fixed chunks until ``done()`` (a chunk-quantized stop is
    the same cycle on every backend)."""
    deadline = cluster.now + limit
    while not done():
        assert cluster.now < deadline, "never settled"
        cluster.run(until=cluster.now + step)


def _load_step(backend, cache=CacheConfig(), n_fpgas=2, warm_on=(),
               until="down_done"):
    """One stateless replica, a burst of requests after two quiet
    autoscaler ticks, the autoscaler's way up (and back down) until its
    log shows ``until``.  ``warm_on``: boards the service's design is
    prefetched onto after ``seal()``, before the burst (a board op each:
    the plane's own prefetch warms every board)."""
    cluster = Cluster(ClusterConfig(n_fpgas=n_fpgas, backend=backend,
                                    cache=cache))
    cluster.boot()
    started = cluster.deploy_stateless("kv", echo_handler_factory(3_000),
                                       instances=1)
    cluster.run_until(started, limit=50_000_000)
    fe = cluster.start_frontend(max_pending=1_024, retry=PATIENT)
    cluster.seal()
    if warm_on:
        design = ClusterPortedService.family_bitstream()
        issued = [cluster.bitplane.boards.op(i, "prefetch", design)
                  for i in warm_on]
        cluster.run_until(issued, limit=50_000_000)
    scaler = cluster.start_autoscaler("kv", max_replicas=2)
    cluster.run(until=cluster.now + 2 * INTERVAL)
    replies = [submitted(fe, "kv", body={"x": i}) for i in range(40)]
    _drive(cluster, lambda: any(e[1] == until for e in scaler.events))
    cache_report = cluster.bitplane.telemetry() if cache.enabled else None
    assert all(r.triggered and not r.failed for r in replies)
    return cluster, scaler, cache_report


def _log(scaler):
    return json.dumps([list(e) for e in scaler.events])


class TestWhenAnOpRuns:
    def test_an_op_inside_a_window_runs_at_its_barrier(self):
        """Between runs a load answers its tile at once; issued from a
        host callback it is answered at the barrier ending that window,
        with the board's clock at that barrier."""
        cluster = Cluster(ClusterConfig(n_fpgas=2, backend="sequential"))
        cluster.boot()
        started = cluster.deploy_stateless("kv", echo_handler_factory(100),
                                           instances=1)
        inst = cluster.directory.spec("kv").instances[0]
        assert inst.node >= 0  # between runs: at once
        cluster.run_until(started)
        seen = {}

        def tick():
            yield 120  # off the window grid
            new, _loading = cluster.directory.add_instance("kv")
            seen["issued"] = (cluster.now, new.node)
            seen["new"] = new

        cluster.engine.process(tick())
        window = FABRIC_LATENCY
        barrier = cluster.now + window
        cluster.run(until=barrier)
        new = seen["new"]
        assert seen["issued"] == (barrier - window + 120, -1)
        assert new.node >= 0
        assert cluster.systems[new.fpga].tiles[new.node].deployed_endpoint \
            == new.endpoint

    @pytest.mark.parametrize("backend", ["shared", "sequential"])
    def test_a_full_board_answers_a_failed_load(self, backend):
        """A load whose board has no free tile (a view gone stale inside a
        window) completes failed and names no tile; its teardown fails
        too, and nothing raises."""
        cluster = Cluster(ClusterConfig(n_fpgas=1, backend=backend))
        cluster.boot()
        boards = cluster._backend
        boards.register("full", echo_handler_factory(100), False)
        for i in range(boards.placement(0)[0]):
            boards.op(0, "load", "full", None, f"f{i}", 7000 + i, f"app.f{i}")
        tiles = []
        loading = boards.op(0, "load", "full", None, "g", 7100, "app.g",
                            placed=tiles.append)
        unloading = boards.op(0, "teardown", -1)
        cluster.run(until=cluster.now + 1_000)
        assert tiles == [-1]
        assert loading.failed and "no free tile" in str(loading.value)
        assert unloading.failed


#: the autoscaler's log of the load step on ``sequential``, and the sha256
#: of the chain repair's outcome: captured on the tree where the forked
#: board workers reproduced both byte for byte.  The sha was re-pinned when
#: the requests began entering by ``FrontEnd.submit`` rather than over the
#: fabric: the kill and both repair events land 1 000 cycles earlier (the
#: two 500-cycle client hops), their latencies and the chains unchanged
_LOAD_STEP_LOG = [
    [1480260, "scale_up", "kv#1", 2, "queue=36.0 predicted@ready=1493"],
    [2290260, "up_ready", "kv#1", 2, ""],
    [2300260, "scale_down", "kv#1", 1, ""],
    [2391760, "down_done", "kv#1", 1, ""],
]
_CHAIN_REPAIR_SHA256 = \
    "8be16c26093ce7d8c0a3b90fefbee682e2a6ceb9bc6370add3646d154c3c467b"


class TestControlPlanesOnWindowedBackends:
    """Pinned outcomes on ``sequential``."""

    def test_autoscaler_load_step_is_identical(self):
        _cluster, scaler, _ = _load_step("sequential")
        assert json.loads(_log(scaler)) == _LOAD_STEP_LOG

    def test_warm_scale_up_lands_on_a_warm_board(self):
        """The cursor points at cold board 1; warm placement picks board
        2, which the prefetch warmed, and the replica reconfigures from
        its cache with no synthesis of its own.  The rising queue also
        prefetches onto board 1 in the same tick: both ops run at the
        barrier, after the window that issued them."""
        cache = CacheConfig(enabled=True, prefetch=True, warm_placement=True)
        _cluster, scaler, report = _load_step(
            "sequential", cache, n_fpgas=3, warm_on=[2], until="up_ready")
        (up,) = [e for e in scaler.events if e[1] == "scale_up"]
        (ready,) = [e for e in scaler.events if e[1] == "up_ready"]
        assert ready[0] - up[0] < 2 * scaler.reconfig_cycles
        # the one load board 2 took was a cache hit; board 1 took none
        assert (report["fpga2"]["hits"], report["fpga2"]["misses"]) == (1, 0)
        assert (report["fpga1"]["hits"], report["fpga1"]["misses"],
                report["fpga1"]["prefetches_issued"]) == (0, 0, 1)
        assert [e[2] for e in scaler.events if e[1] == "prefetch"] \
            == ["fpga1"]

    def test_chain_repair_after_a_head_board_kill_is_identical(self):
        outcome = _chain_repair("sequential")
        assert json.loads(outcome)["repair"]["splices"] >= 1
        assert hashlib.sha256(outcome.encode()).hexdigest() \
            == _CHAIN_REPAIR_SHA256


def _chain_repair(backend):
    cluster = Cluster(ClusterConfig(
        n_fpgas=3, backend=backend,
        system=SystemConfig(seed=1, noc=NocConfig(width=3, height=3)),
        recovery=True, replication=True))
    cluster.boot()
    started, configured = cluster.deploy_chain(
        "kv", KvMachine, n_shards=2, replication=2)
    cluster.run_until(started, limit=50_000_000)
    fe = cluster.start_frontend()
    cluster.run_until([configured], limit=50_000_000)
    cluster.seal()
    spec = cluster.directory.services["kv"]
    keys = [f"key{i}" for i in range(6)]
    writes = [submitted(fe, "kv", body={"op": "put", "key": k, "value": i},
                        key=k, write=True)
              for i, k in enumerate(keys)]
    cluster.run_until(writes)
    acked = [k for k, w in zip(keys, writes) if w.value["ok"]]
    assert acked == keys
    head = spec.instance(spec.chains[0][0])
    cluster.kill_fpga(head.fpga)
    _drive(cluster, lambda: cluster.replication.splices >= 1
           and all(len(chain) == spec.replication
                   for chain in spec.chains.values()),
           step=100_000)
    reads = [submitted(fe, "kv", body={"op": "get", "key": k}, key=k)
             for k in acked]
    cluster.run_until(reads)
    values = [r.value["body"].get("value") for r in reads]
    summary = cluster.replication.repair_summary()
    assert values == list(range(len(acked)))
    assert all(len(chain) == spec.replication
               for chain in spec.chains.values())
    assert head.iid not in spec.chains[0]
    return json.dumps({"repair": summary, "chains": spec.chains},
                      sort_keys=True)

