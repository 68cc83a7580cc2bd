"""How soon the front-end learns that a board or a tile is gone, and how
soon it routes to a healed board again — detection latency as properties.

Two boards, ``kv`` sharded 2x2: shard 0 on boards (0, 1) as ``kv/s0r0`` /
``kv/s0r1``, shard 1 on boards (1, 0) as ``kv/s1r0`` / ``kv/s1r1``.  The
fault feed (``FrontEnd.on_board_fault``) must mark a killed board's and a
fail-stopped tile's instances unhealthy in the cycle it fires; a board
cut off with no traffic must be marked down by its missed heartbeats; a
healed board must be routable again within one host retransmission
timeout plus one liveness interval.
"""

import pytest

from repro.apps import kv_handler_factory
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.frontend import DEAD_AFTER, PROBE_INTERVAL
from repro.net.transport import HOST_TIMEOUT
from repro.policy import RetryPolicy

#: the cycle the front-end starts on; every offset below counts from here
T0 = 1_500_000
BOARD1 = ("kv/s0r1", "kv/s1r0")
BOARD0 = ("kv/s0r0", "kv/s1r1")


def rig(**frontend):
    cluster = Cluster(ClusterConfig(n_fpgas=2))
    cluster.boot()
    started = cluster.deploy_sharded("kv", kv_handler_factory(1_000),
                                     n_shards=2, replication=2)
    cluster.run_until(started, limit=50_000_000)
    cluster.run(until=T0)
    return cluster, cluster.start_frontend(**frontend)


def healthy(fe, iids):
    return {iid: fe.health[iid].healthy for iid in iids}


def test_a_killed_board_is_unhealthy_in_the_cycle_the_fault_feed_fires():
    cluster, fe = rig()
    cluster.run(until=T0 + 4_321)
    assert healthy(fe, BOARD1 + BOARD0) == dict.fromkeys(BOARD1 + BOARD0,
                                                         True)
    cluster.kill_fpga(1)
    assert cluster.engine.now == T0 + 4_321
    assert healthy(fe, BOARD1) == dict.fromkeys(BOARD1, False)
    assert healthy(fe, BOARD0) == dict.fromkeys(BOARD0, True)
    cluster.run(until=T0 + 100_000)
    assert healthy(fe, BOARD1) == dict.fromkeys(BOARD1, False)
    assert healthy(fe, BOARD0) == dict.fromkeys(BOARD0, True)


def test_a_fail_stopped_tile_is_unhealthy_in_the_cycle_the_fault_feed_fires():
    cluster, fe = rig()
    inst = cluster.directory.spec("kv").instance("kv/s1r0")
    cluster.run(until=T0 + 4_321)
    assert cluster.systems[inst.fpga].tiles[inst.node].inject_crash()
    assert cluster.engine.now == T0 + 4_321
    assert healthy(fe, BOARD1 + BOARD0) == {
        "kv/s0r1": True, "kv/s1r0": False, "kv/s0r0": True, "kv/s1r1": True}
    cluster.run(until=T0 + 100_000)
    assert healthy(fe, BOARD1 + BOARD0) == {
        "kv/s0r1": True, "kv/s1r0": False, "kv/s0r0": True, "kv/s1r1": True}


@pytest.mark.parametrize("heal_at", [120_000, 137_000, 163_500])
def test_a_healed_board_is_routable_within_a_retransmission_and_an_interval(
        heal_at):
    """Board 1 is cut off and key 0's primary is made to miss: its reads
    time out until it is marked down.  Whatever the phase of the heal
    against the retransmission timer, every instance is healthy again
    within ``HOST_TIMEOUT + PROBE_INTERVAL`` of it."""
    cluster, fe = rig(retry=RetryPolicy(deadline=60_000, attempt_timeout=4_000,
                                        backoff_base=200, backoff_cap=2_000))
    cluster.run(until=T0 + 500)
    cluster.partition_fpga(1)
    for k in range(4):
        cluster.run(until=T0 + 1_000 + 8_000 * k)
        fe.submit("kv", body={"op": "get", "key": 0}, key=0)
    cluster.run(until=T0 + heal_at)
    assert not fe.health["kv/s1r0"].healthy
    cluster.heal_fpga(1)
    bound = T0 + heal_at + HOST_TIMEOUT + PROBE_INTERVAL
    while not all(backend.healthy for backend in fe.health.values()):
        assert cluster.engine.now < bound, fe.health_table()
        cluster.run(until=cluster.engine.now + 100)


def test_a_partitioned_idle_board_is_marked_down_by_its_missed_beats():
    """No request at all, so only the heartbeat can tell: cut off at
    offset 500, board 1 misses its beats of offsets 10 000 and 20 000, the
    one of 30 000 cannot go out (two are unacked) and is missed all the
    same — down at 40 000, and it stays down until it is healed."""
    cluster, fe = rig()
    cluster.run(until=T0 + 500)
    cluster.partition_fpga(1)
    bound = T0 + 500 + (DEAD_AFTER + 1) * PROBE_INTERVAL
    while any(healthy(fe, BOARD1).values()):
        assert cluster.engine.now < bound, fe.health_table()
        cluster.run(until=cluster.engine.now + 100)
    assert cluster.engine.now == T0 + 40_000
    assert healthy(fe, BOARD0) == dict.fromkeys(BOARD0, True)
    cluster.run(until=T0 + 400_000)
    assert healthy(fe, BOARD1) == dict.fromkeys(BOARD1, False)
    cluster.heal_fpga(1)
    bound = T0 + 400_000 + HOST_TIMEOUT + PROBE_INTERVAL
    while not all(backend.healthy for backend in fe.health.values()):
        assert cluster.engine.now < bound, fe.health_table()
        cluster.run(until=cluster.engine.now + 100)
