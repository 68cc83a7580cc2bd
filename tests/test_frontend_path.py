"""The front-end's request path, pinned request by request.

Sections a-e were captured on the event-and-process implementation that
preceded ISSUE 24 (an inner waiter wrapped in an outer event, a second
retry process, a ``timeout`` event per attempt, a reply process per
answer) and hold unchanged on the one-record-per-backend /
one-record-per-attempt front-end that replaced it: a request is submitted,
routed, failed over, answered, rejected or dropped on the same cycles with
the same counters.  They are the contract of that rewrite; a literal there
changes only with a deliberate change of simulated behaviour.  One such
change re-pinned them: liveness became one heartbeat per board plus pings
for instances marked down, so ``health_table()`` rows lost
``probe_misses``, ``outstanding`` counts client attempts only and
``probes_sent`` counts pings; every request's ``(submit, done, outcome)``
row, every span and every ``telemetry()`` counter held.  Section f
pins what the rewrite *did* change — the engine-event budget of a request —
and that ``perf.trace`` still books the path to ``FrontEnd._serve`` and
``FrontEnd._prober``.  Section g pins the engine hops themselves — ring
and bucket schedules of five paths and of a retried ``Shell.call`` — beside
each request's answer cycle, which a rewrite of the request path's
mechanics must keep.

To re-check a-e against another tree, run this file from a checkout of
*that* tree (``tests/conftest.py`` imports ``perf``, which puts the
checkout's own ``src/`` first on ``sys.path`` — a ``PYTHONPATH`` pointing
elsewhere loses): ``cp tests/test_frontend_path.py <tree>/tests/ && cd
<tree> && PYTHONPATH=src python -m pytest tests/test_frontend_path.py -k
"not budget and not book"``.
"""

from repro.apps import echo_handler_factory, kv_handler_factory
from repro.cluster import BackendHealth, Cluster, ClusterConfig, ObsConfig
from repro.kernel.shell import Shell
from repro.policy import RetryPolicy
from repro.sim import Engine
from repro.workloads import ClusterClient

from tests.conftest import CountingEngine, TaggingEngine

#: the cycle the front-end starts on; every offset below counts from here
T0 = 1_500_000

#: short attempts, so a timeout and its failover fit between two probes
QUICK = dict(deadline=60_000, attempt_timeout=4_000, backoff_base=200,
             backoff_cap=2_000)


HEALTH_FIELDS = ("healthy", "misses", "outstanding", "served", "probes_sent")


class ArmLog(Engine):
    """An engine that logs, per instance, the cycles at which a callback
    taking that instance's ``BackendHealth`` as its argument was scheduled
    — the flusher's every wake-up, window and pacing hop."""

    __slots__ = ("armed",)

    def __init__(self):
        super().__init__()
        self.armed = {}

    def schedule(self, delay, callback, arg=None):
        if isinstance(arg, BackendHealth):
            self.armed.setdefault(arg.inst.iid, []).append(self.now)
        super().schedule(delay, callback, arg)


class Rig:
    """Two boards; ``kv`` is sharded 2x2 (key 2 -> shard 0: primary
    ``kv/s0r0`` on board 0, replica ``kv/s0r1`` on board 1; key 0 -> shard
    1: primary ``kv/s1r0`` on board 1, replica ``kv/s1r1`` on board 0) and
    ``echo`` is stateless, one instance per board.  ``extra`` (name ->
    handler factory) deploys more single-instance stateless services: the
    first lands on board 0, the second on board 1.  Every request is logged
    as ``name -> (submit offset, done offset, outcome)``.
    """

    def __init__(self, engine=None, tracing=False, extra=(), **frontend):
        self.cluster = cluster = Cluster(
            ClusterConfig(n_fpgas=2, obs=ObsConfig(tracing=tracing)),
            engine=engine)
        cluster.boot()
        started = cluster.deploy_sharded(
            "kv", kv_handler_factory(1_000), n_shards=2, replication=2)
        started += cluster.deploy_stateless(
            "echo", echo_handler_factory(500), instances=2)
        for name, factory in dict(extra).items():
            started += cluster.deploy_stateless(name, factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.run(until=T0)
        self.engine = cluster.engine
        self.fe = cluster.start_frontend(**frontend)
        self.rows = {}

    def at(self, offset):
        """Run every event up to and including ``T0 + offset``; the caller
        then acts from outside the engine, after that cycle's callbacks."""
        self.cluster.run(until=T0 + offset)
        assert self.engine.now == T0 + offset
        return self

    def _done(self, name, reply):
        if reply.get("rejected"):
            outcome = "rejected"
        elif reply.get("ok"):
            outcome = ("ok", reply["body"])
        else:
            outcome = ("failed", reply["error"])
        self.rows[name][1:] = [self.engine.now - T0, outcome]

    def submit(self, name, service, **request):
        self.rows[name] = [self.engine.now - T0, None, None]
        accepted = self.fe.submit(
            service, on_done=lambda reply: self._done(name, reply), **request)
        if not accepted:
            self.rows[name][2] = "dropped"
        return accepted

    def read(self, name, key):
        return self.submit(name, "kv", body={"op": "get", "key": key},
                           key=key)

    def write(self, name, key, value):
        return self.submit(name, "kv", key=key, write=True,
                           body={"op": "put", "key": key, "value": value})

    def call(self, name, host, service, **request):
        """The fabric path: one ``ClusterClient.call_service``."""
        self.rows[name] = [self.engine.now - T0, None, None]
        host.call_service(service, request.pop("body", {"x": name}),
                          **request).add_callback(
            lambda ev: self._done(name, ev.value))

    def table(self):
        return {name: tuple(row) for name, row in self.rows.items()}

    def health(self, *iids):
        """``health_table()`` rows as ``(healthy, misses, outstanding,
        served, probes_sent, probe_misses)``."""
        table = self.fe.health_table()
        return {iid: tuple(table[iid][field] for field in HEALTH_FIELDS)
                for iid in iids or table}

    def counters(self):
        """``telemetry()`` without the health table (pinned separately) and
        with the registry's counters as plain ints."""
        out = self.fe.telemetry()
        del out["health"]
        out["counters"] = {name: int(value)
                           for name, value in sorted(out["counters"].items())}
        assert out["counters"] == {
            name: int(value) for name, value in
            self.fe.stats.snapshot()["counters"].items()}
        return out


def quiet(**changes):
    """``telemetry()`` of a front-end nothing has happened to yet."""
    base = {"requests_admitted": 0, "requests_rejected": 0,
            "requests_failed": 0, "requests_dropped": 0, "backlog_depth": 0,
            "responses_sent": 0, "batches_sent": 0, "failovers": 0,
            "inflight": 0, "chain_nacks": 0, "writes_unreplicated": 0,
            "counters": {}}
    assert not set(changes) - set(base)
    return {**base, **changes}


def nacker(times):
    """A stateless handler whose first ``times`` answers are chain refusals
    (``{"_chain_nack": why}``: the member is alive, the routing is stale)."""
    def make():
        calls = []

        def handler(body):
            calls.append(body)
            if len(calls) <= times:
                return 300, {"_chain_nack":
                             f"not the tail (call {len(calls)})"}, 32
            return 300, {"echo": body.get("x")}, 64
        return handler
    return make


MISS = ("ok", {"ok": False, "value": None, "shard": 0})
MISS1 = ("ok", {"ok": False, "value": None, "shard": 1})
STORED = ("ok", {"ok": True, "shard": 0})

# -- (a) served requests --------------------------------------------------------


def test_a_read_cycle_by_cycle():
    rig = Rig()
    rig.at(1_000).read("r", 2)
    # one ring hop later the request is admitted and its attempt queued
    assert rig.counters() == quiet(backlog_depth=1)
    rig.at(1_000)
    assert rig.counters() == quiet(requests_admitted=1, inflight=1)
    assert rig.health("kv/s0r0", "kv/s0r1") == {
        "kv/s0r0": (True, 0, 1, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    rig.at(9_000)
    assert rig.table() == {"r": (1_000, 3_225, MISS)}
    assert rig.counters() == quiet(requests_admitted=1, batches_sent=1)
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (True, 0, 0, 0, 0),
        "kv/s1r0": (True, 0, 0, 0, 0), "kv/s1r1": (True, 0, 0, 0, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (True, 0, 0, 0, 0)}


def test_a_write_fans_out_and_the_peers_ack_lands():
    """The client's answer is the primary's alone; the copy to the peer
    replica is awaited too, but it is no client attempt (``outstanding``
    counts the primary's only), and its ack is counted as served.  The
    read that follows finds the value."""
    rig = Rig()
    rig.at(9_000).write("w", 2, "v")
    rig.at(9_100)
    pair = ("kv/s0r0", "kv/s0r1")
    assert rig.health(*pair) == {
        "kv/s0r0": (True, 0, 1, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    rig.at(11_000)
    assert rig.health(*pair) == {
        "kv/s0r0": (True, 0, 1, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    rig.at(12_000)
    assert rig.table() == {"w": (9_000, 11_224, STORED)}
    assert rig.health(*pair) == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (True, 0, 0, 1, 0)}
    rig.at(20_000).read("r", 2)
    rig.at(29_000)
    assert rig.table() == {
        "w": (9_000, 11_224, STORED),
        "r": (20_000, 22_225, ("ok", {"ok": True, "value": "v", "shard": 0}))}
    assert rig.counters() == quiet(requests_admitted=2, batches_sent=3)
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 2, 0), "kv/s0r1": (True, 0, 0, 1, 0),
        "kv/s1r0": (True, 0, 0, 0, 0), "kv/s1r1": (True, 0, 0, 0, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (True, 0, 0, 0, 0)}


# -- (b) attempts that do not come back -------------------------------------------


def test_a_replica_write_nobody_acks_is_counted_after_one_attempt_timeout():
    """The peer's board is cut off before the write: the primary answers,
    the copy is never acked.  One ``attempt_timeout`` after it was queued it
    is written off as unreplicated — and charges the peer no health miss."""
    rig = Rig(retry=RetryPolicy(**QUICK))
    rig.at(500).cluster.partition_fpga(1)
    rig.at(1_000).write("w", 2, "v")
    rig.at(4_999)
    assert rig.table() == {"w": (1_000, 3_224, STORED)}
    assert rig.health("kv/s0r0", "kv/s0r1") == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    assert rig.counters() == quiet(requests_admitted=1, batches_sent=2)
    rig.at(5_000)
    assert rig.health("kv/s0r0", "kv/s0r1") == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    assert rig.counters() == quiet(
        requests_admitted=1, batches_sent=2, writes_unreplicated=1,
        counters={"frontend.writes_unreplicated": 1})


def test_a_replica_write_in_flight_when_its_board_dies_is_counted_at_once():
    rig = Rig(retry=RetryPolicy(**QUICK))
    rig.at(1_000).write("w", 2, "v")
    rig.at(1_400).cluster.kill_fpga(1)
    assert rig.counters()["counters"] == {"frontend.writes_unreplicated": 1}
    assert rig.health("kv/s0r0", "kv/s0r1") == {
        "kv/s0r0": (True, 0, 1, 0, 0), "kv/s0r1": (False, 3, 0, 0, 0)}
    rig.at(9_000)
    assert rig.table() == {"w": (1_000, 3_224, STORED)}
    assert rig.counters() == quiet(
        requests_admitted=1, batches_sent=2, writes_unreplicated=1,
        counters={"frontend.writes_unreplicated": 1})
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (False, 3, 0, 0, 0),
        "kv/s1r0": (False, 3, 0, 0, 0), "kv/s1r1": (True, 0, 0, 0, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (False, 3, 0, 0, 0)}


def test_an_attempt_timeout_fails_over_and_the_next_answer_heals_the_miss():
    """Key 0's primary sits on a partitioned board: the attempt times out
    (one miss), the retry lands on the replica 200 cycles later.  After the
    heal the transport to that board is still wedged behind its unacked
    frames, so the second read fails over too (a second miss) and the
    board misses the beats of offsets 10 000 to 30 000 — down at 40 000,
    every instance on it with it.  The retransmission at 51 200 unwedges
    it: the ACK of the first retransmitted beat brings the board back at
    52 204, and the next data answer resets the primary's own misses."""
    rig = Rig(retry=RetryPolicy(**QUICK))
    pair = ("kv/s1r0", "kv/s1r1")
    rig.at(500).cluster.partition_fpga(1)
    rig.at(1_000).read("r1", 0)
    rig.at(4_999)
    assert rig.health(*pair) == {
        "kv/s1r0": (True, 0, 1, 0, 0), "kv/s1r1": (True, 0, 0, 0, 0)}
    rig.at(5_000)
    assert rig.counters()["failovers"] == 1
    assert rig.health(*pair) == {
        "kv/s1r0": (True, 1, 0, 0, 0), "kv/s1r1": (True, 0, 0, 0, 0)}
    rig.at(5_199)
    assert rig.health(*pair)["kv/s1r1"] == (True, 0, 0, 0, 0)
    rig.at(5_200)
    assert rig.health(*pair)["kv/s1r1"] == (True, 0, 1, 0, 0)
    rig.at(9_000)
    assert rig.table() == {"r1": (1_000, 7_429, MISS1)}
    rig.cluster.heal_fpga(1)
    rig.read("r2", 0)
    rig.at(15_000)
    assert rig.counters()["failovers"] == 2
    assert rig.health(*pair) == {
        "kv/s1r0": (True, 2, 0, 0, 0), "kv/s1r1": (True, 0, 1, 1, 0)}
    rig.at(39_999)
    assert all(row[0] for row in rig.health().values())
    rig.at(40_000)
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 0, 0), "kv/s0r1": (False, 0, 0, 0, 0),
        "kv/s1r0": (False, 2, 0, 0, 0), "kv/s1r1": (True, 0, 0, 2, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (False, 0, 0, 0, 0)}
    # re-pinned 52 208 -> 52 204 when a beat's answer became its transport
    # ACK: the board's response to the beat used to leave behind the ACKs
    # of the retransmitted window; now the beat's own ACK is the answer
    rig.at(52_203)
    assert not rig.health(*pair)["kv/s1r0"][0]
    rig.at(52_204)
    assert all(row[0] for row in rig.health().values())
    rig.at(100_000).read("r3", 0)
    rig.at(110_000)
    assert rig.table() == {"r1": (1_000, 7_429, MISS1),
                           "r2": (9_000, 15_429, MISS1),
                           "r3": (100_000, 102_229, MISS1)}
    assert rig.counters() == quiet(requests_admitted=3, batches_sent=4,
                                   failovers=2)
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0),
        "kv/s1r0": (True, 0, 0, 1, 0), "kv/s1r1": (True, 0, 0, 2, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (True, 0, 0, 0, 0)}


def test_a_busy_sequential_instance_stays_healthy_behind_a_long_request():
    """One 65 000-cycle request keeps the (sequential) instance busy for
    six liveness rounds.  Its board answers every heartbeat and a healthy
    instance is never pinged, so nothing queues behind the request: the
    instance stays healthy throughout (a loaded-but-alive backend is never
    declared dead), and the answer counts as served."""
    rig = Rig(extra={"slow": echo_handler_factory(65_000)},
              retry=RetryPolicy(deadline=200_000, attempt_timeout=100_000))
    rig.at(1_000).submit("s", "slow", body={"x": 1})
    seen = {}
    for offset in (10_100, 30_000, 60_000, 67_000, 68_000, 80_100):
        seen[offset] = rig.at(offset).health("slow#0")["slow#0"]
    assert seen == {
        10_100: (True, 0, 1, 0, 0), 30_000: (True, 0, 1, 0, 0),
        60_000: (True, 0, 1, 0, 0), 67_000: (True, 0, 1, 0, 0),
        68_000: (True, 0, 0, 1, 0), 80_100: (True, 0, 0, 1, 0)}
    assert rig.table() == {"s": (1_000, 67_229, ("ok", {"echo": 1}))}
    assert rig.counters() == quiet(requests_admitted=1, batches_sent=1)


# -- (c) instances that go away ---------------------------------------------------


def test_a_drained_tile_fails_its_queued_and_awaited_requests_in_that_cycle():
    """One request is on the wire, one still in the 200-cycle batch window
    when the kernel reports the tile drained (a killed context — action
    ``"killed"`` — leaves the instance serving): both attempts fail in that
    cycle, both retry on the replica after the same backoff and ride one
    batch.  The tile was in fact alive: the instance is marked down, so the
    next liveness round (offset 10 000) pings it, and the pong revives it."""
    rig = Rig(retry=RetryPolicy(**QUICK))
    pair = ("kv/s0r0", "kv/s0r1")
    inst = rig.cluster.directory.spec("kv").instance("kv/s0r0")
    rig.at(1_000).read("awaited", 2)
    rig.at(1_400).read("queued", 2)
    rig.at(1_450)
    assert rig.counters()["batches_sent"] == 1
    rig.fe.on_board_fault(inst.fpga, inst.node, "killed", "kv/s0r0")
    assert rig.health(*pair) == {
        "kv/s0r0": (True, 0, 2, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    rig.fe.on_board_fault(inst.fpga, inst.node, "drained", "kv/s0r0")
    assert rig.health(*pair) == {
        "kv/s0r0": (False, 3, 0, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    # re-pinned 0 -> 2 when a request began taking its attempt's failure in
    # the call that fails it rather than a ring hop later: both retries are
    # booked inside the fault report itself
    assert rig.counters()["failovers"] == 2
    rig.at(1_450)  # the rest of this cycle
    assert rig.counters()["failovers"] == 2
    rig.at(1_649)
    assert rig.health(*pair)["kv/s0r1"] == (True, 0, 0, 0, 0)
    rig.at(1_650)
    assert rig.health(*pair)["kv/s0r1"] == (True, 0, 2, 0, 0)
    rig.at(9_000)
    assert rig.table() == {"awaited": (1_000, 4_882, MISS),
                           "queued": (1_400, 4_882, MISS)}
    assert rig.health(*pair) == {
        "kv/s0r0": (False, 3, 0, 0, 0), "kv/s0r1": (True, 0, 0, 2, 0)}
    rig.at(10_000)
    assert rig.health(*pair)["kv/s0r0"] == (False, 3, 0, 0, 1)
    rig.at(13_000)
    assert rig.health(*pair) == {
        "kv/s0r0": (True, 0, 0, 1, 1), "kv/s0r1": (True, 0, 0, 2, 0)}
    assert rig.counters() == quiet(requests_admitted=2, batches_sent=2,
                                   failovers=2)


def test_retire_mid_flight_reroutes_and_never_tracks_the_instance_again():
    """A retired instance's flusher ends — it is neither parked for work
    nor pacing a batch, and nothing is ever armed for it again, through a
    re-track and a read of its shard — and it is never pinged although it
    reads as down."""
    rig = Rig(engine=ArmLog(), retry=RetryPolicy(**QUICK))
    pair = ("kv/s0r0", "kv/s0r1")
    backend = rig.fe.health["kv/s0r0"]
    rig.at(1_000).read("awaited", 2)
    rig.at(1_400).read("queued", 2)
    rig.at(1_450).fe.retire("kv/s0r0")
    assert rig.health(*pair) == {
        "kv/s0r0": (False, 3, 0, 0, 0), "kv/s0r1": (True, 0, 0, 0, 0)}
    rig.at(1_450)
    assert rig.counters()["failovers"] == 2
    rig.fe.track_all()
    rig.at(5_000)
    assert (backend.kick, backend.pace, backend.queue) == (False, None, [])
    armed = len(rig.engine.armed["kv/s0r0"])
    assert rig.table() == {"awaited": (1_000, 4_882, MISS),
                           "queued": (1_400, 4_882, MISS)}
    rig.at(20_000)
    assert rig.health(*pair) == {
        "kv/s0r0": (False, 3, 0, 0, 0), "kv/s0r1": (True, 0, 0, 2, 0)}
    rig.at(25_000)
    rig.fe.retire("kv/s0r0")  # a second retire is a no-op
    rig.fe.track_all()
    rig.read("after", 2)
    rig.at(30_000)
    assert rig.table()["after"] == (25_000, 27_225, MISS)
    assert rig.health(*pair) == {
        "kv/s0r0": (False, 3, 0, 0, 0), "kv/s0r1": (True, 0, 0, 3, 0)}
    assert len(rig.engine.armed["kv/s0r0"]) == armed
    assert (backend.kick, backend.pace, backend.queue) == (False, None, [])
    assert rig.counters() == quiet(requests_admitted=3, batches_sent=3,
                                   failovers=2)


def test_retiring_an_idle_instance_schedules_nothing_for_it():
    """A parked flusher is left parked: nothing enqueues on a retired
    instance (routing and the fan-out skip it as unhealthy, the prober as
    retired), so no ``_fill`` hop or ``_send_batch`` window is armed for
    it — then or later."""
    rig = Rig(engine=ArmLog())
    backend = rig.fe.health["kv/s0r0"]
    rig.at(1_000)
    assert (backend.kick, backend.pace, backend.queue) == (True, None, [])
    armed = list(rig.engine.armed.get("kv/s0r0", ()))
    rig.fe.retire("kv/s0r0")
    rig.read("r", 2)
    rig.at(20_000)
    assert rig.table()["r"][2][0] == "ok"  # served by the replica
    assert rig.engine.armed.get("kv/s0r0", []) == armed


def test_a_chain_nack_fails_the_attempt_but_not_the_member():
    rig = Rig(extra={"picky": nacker(2)}, retry=RetryPolicy(**QUICK))
    rig.at(1_000).submit("p", "picky", body={"x": 7})
    seen = {}
    for offset in (2_000, 3_000, 5_000, 9_000):
        rig.at(offset)
        seen[offset] = (rig.health("picky#0")["picky#0"],
                        rig.counters()["failovers"],
                        rig.counters()["chain_nacks"])
    assert seen == {2_000: ((True, 0, 1, 0, 0), 0, 0),
                    3_000: ((True, 0, 1, 1, 0), 1, 1),
                    5_000: ((True, 0, 1, 2, 0), 2, 2),
                    9_000: ((True, 0, 0, 3, 0), 2, 2)}
    assert rig.table() == {"p": (1_000, 6_185, ("ok", {"echo": 7}))}
    assert rig.counters() == quiet(
        requests_admitted=1, batches_sent=3, failovers=2, chain_nacks=2,
        counters={"frontend.chain_nacks": 2})


def test_a_request_nacked_until_its_deadline_fails_with_the_loop_s_arithmetic():
    """Three nacked attempts, the fourth clamped to the 16 cycles the
    deadline had left and timed out (one miss), then the last backoff
    clamped to 1 cycle: 6 001 cycles after it was admitted."""
    rig = Rig(extra={"picky": nacker(99)},
              retry=RetryPolicy(deadline=6_000, attempt_timeout=4_000,
                                backoff_base=200, backoff_cap=2_000))
    rig.at(1_000).submit("p", "picky", body={"x": 7})
    rig.at(9_000)
    assert rig.table() == {"p": (1_000, 7_001, (
        "failed", "route 'picky' gave up after 4 attempt(s) in 6001 cycles "
                  "(last error: picky#0 did not answer in 16)"))}
    assert rig.health("picky#0") == {"picky#0": (True, 1, 0, 3, 0)}
    assert rig.counters() == quiet(
        requests_admitted=1, requests_failed=1, batches_sent=3, failovers=4,
        chain_nacks=3, counters={"frontend.chain_nacks": 3})


# -- (d) admission ------------------------------------------------------------------


def test_a_same_cycle_burst_meets_the_backlog_bound_then_the_queue_deadline():
    """Seven submissions in one cycle, two slots, a backlog of three: the
    burst is measured against the *backlog* bound (admission is one ring hop
    after ``submit``), so four are dropped — ``on_done`` never runs — two are
    admitted that cycle, and the one left queued gets its slot 1 725 cycles
    later, past the 1 500-cycle deadline: rejected, not dropped."""
    rig = Rig(max_pending=2, max_backlog=3, queue_deadline=1_500,
              retry=RetryPolicy(**QUICK))
    rig.at(1_000)
    accepted = [rig.submit(f"e{i}", "echo", body={"x": i}) for i in range(7)]
    assert accepted == [True] * 3 + [False] * 4
    assert rig.counters() == quiet(
        requests_dropped=4, backlog_depth=3,
        counters={"frontend.requests_dropped": 4})
    rig.at(1_000)
    assert rig.counters() == quiet(
        requests_admitted=2, inflight=2, requests_dropped=4, backlog_depth=1,
        counters={"frontend.requests_dropped": 4})
    assert (rig.fe.backlog_depth("echo"), rig.fe.backlog_depth("kv")) == (1, 0)
    rig.at(9_000)
    assert rig.table() == {
        "e0": (1_000, 2_725, ("ok", {"echo": 0})),
        "e1": (1_000, 2_725, ("ok", {"echo": 1})),
        "e2": (1_000, 2_725, "rejected"),
        "e3": (1_000, None, "dropped"), "e4": (1_000, None, "dropped"),
        "e5": (1_000, None, "dropped"), "e6": (1_000, None, "dropped")}
    assert rig.counters() == quiet(
        requests_admitted=2, requests_rejected=1, requests_dropped=4,
        batches_sent=2,
        counters={"frontend.queue_deadline_rejects": 1,
                  "frontend.requests_dropped": 4})
    assert rig.health("echo#0", "echo#1") == {
        "echo#0": (True, 0, 0, 1, 0), "echo#1": (True, 0, 0, 1, 0)}


def test_the_fabric_path_rejects_at_max_pending_and_answers_everything_else():
    """``ClusterClient.call_service`` over the fabric (500 cycles each way):
    at ``max_pending`` the refusal is sent the cycle the request arrives; an
    unknown service, a write with a tenant, a body that is not a dict and a
    request that is not a request are all answered."""
    rig = Rig(max_pending=2, retry=RetryPolicy(**QUICK))
    h0, h1 = (ClusterClient(rig.engine, rig.cluster.fabric, f"h{i}")
              for i in range(2))
    rig.at(1_000)
    rig.call("a", h0, "echo")
    rig.call("b", h0, "echo")
    rig.call("c", h1, "echo")
    rig.call("d", h1, "nope")
    rig.at(1_600)
    assert rig.counters() == quiet(requests_admitted=2, requests_rejected=2,
                                   inflight=2, responses_sent=2)
    rig.at(9_000)
    rig.call("e", h1, "nope")
    rig.call("f", h0, "kv", body={"op": "put", "key": 2, "value": 1}, key=2,
             write=True, tenant="t")
    rig.call("g", h0, "echo", body="not a dict")
    rig.at(20_000)
    rig.rows["h"] = [20_000, None, None]
    h0.request("frontend", 7000, "garbage").add_callback(
        lambda ev: rig._done("h", ev.value))
    rig.at(25_000)
    assert rig.table() == {
        "a": (1_000, 3_725, ("ok", {"echo": "a"})),
        "b": (1_000, 2_000, "rejected"),
        "c": (1_000, 3_725, ("ok", {"echo": "c"})),
        "d": (1_000, 2_000, "rejected"),
        "e": (9_000, 10_000, ("failed", "unknown service 'nope'")),
        "f": (9_000, 12_224, STORED),
        "g": (9_000, 11_730, ("ok", {"echo": None})),
        "h": (20_000, 21_000, ("failed", "malformed request"))}
    assert rig.counters() == quiet(
        requests_admitted=5, requests_rejected=2, requests_failed=1,
        responses_sent=8, batches_sent=5)
    assert (h0.requests_sent, h0.responses_received) == (5, 5)
    assert (h1.requests_sent, h1.responses_received) == (3, 3)


# -- (e) the span tree --------------------------------------------------------------


def span_forest(recorder):
    """The ``cluster`` spans as nested ``(name, source, start, end, detail,
    children)`` rows, one tree per request in the order the requests were
    admitted, children in the order they were opened.  Ids are labels — the
    only thing read from them is who is whose parent and which trace a
    span belongs to."""
    rows = {}
    roots = []
    for rec in recorder:
        if rec.category != "cluster":
            continue
        row = (rec.name, rec.source, rec.start - T0, rec.end - T0,
               dict(rec.detail), [])
        rows[rec.span_id] = (rec.trace_id, row)
        if rec.parent_id:
            trace_id, parent = rows[rec.parent_id]
            assert trace_id == rec.trace_id
            parent[5].append(row)
        else:
            roots.append((rec.trace_id, row))
    return [row for _trace_id, row in sorted(roots, key=lambda r: r[0])]



def test_a_traced_run_s_frontend_and_forward_spans():
    """Board 1 is cut off.  ``r`` times out on its primary and is served by
    the replica; ``p`` is refused twice, then served; ``w`` is served by its
    primary (the copy to the cut-off peer is nobody's span); ``f`` lives on
    the cut-off board and dies at its deadline; ``n`` names no service and
    opens no span."""
    rig = Rig(tracing=True, extra={"picky": nacker(2), "fenced": nacker(99)},
              retry=RetryPolicy(deadline=9_000, attempt_timeout=4_000,
                                backoff_base=200, backoff_cap=2_000))
    rig.at(500).cluster.partition_fpga(1)
    rig.at(1_000).read("r", 0)
    rig.submit("p", "picky", body={"x": 7})
    rig.write("w", 2, "v")
    rig.submit("n", "nope")
    rig.submit("f", "fenced", body={"x": 8})
    rig.at(30_000)
    assert rig.table() == {
        "r": (1_000, 7_429, MISS1),
        "p": (1_000, 6_185, ("ok", {"echo": 7})),
        "w": (1_000, 3_229, STORED),
        "n": (1_000, 1_000, ("failed", "unknown service 'nope'")),
        "f": (1_000, 10_001, (
            "failed", "route 'fenced' gave up after 3 attempt(s) in 9001 "
                      "cycles (last error: fenced#0 did not answer in 400)"))}
    ok, failed, timed_out = {"failed": False}, {"failed": True}, \
        {"timed_out": True}

    def fe(service, key, end, flags, *attempts):
        return (f"frontend:{service}", "frontend", 1_000, end,
                {"service": service, "key": key, **flags}, list(attempts))

    def fwd(iid, fpga, node, start, end, flags, *served):
        return (f"forward:{iid}", "frontend", start, end,
                {"fpga": fpga, "node": node, **flags}, list(served))

    def backend(iid, node, port, start, end):
        return (f"backend:{iid}", f"tile{node}", start, end, {"port": port},
                [])

    assert span_forest(rig.cluster.spans) == [
        fe("kv", 0, 7_429, ok,
           fwd("kv/s1r0", 1, 3, 1_000, 5_000, timed_out),
           fwd("kv/s1r1", 0, 3, 5_200, 7_429, ok,
               backend("kv/s1r1", 3, 7103, 5_911, 6_911))),
        fe("picky", None, 6_185, ok,
           fwd("picky#0", 0, 5, 1_000, 2_528, failed,
               backend("picky#0", 5, 7106, 1_711, 2_011)),
           fwd("picky#0", 0, 5, 2_728, 4_256, failed,
               backend("picky#0", 5, 7106, 3_439, 3_739)),
           fwd("picky#0", 0, 5, 4_656, 6_185, ok,
               backend("picky#0", 5, 7106, 5_367, 5_667))),
        fe("kv", 2, 3_229, ok,
           fwd("kv/s0r0", 0, 2, 1_000, 3_229, ok,
               backend("kv/s0r0", 2, 7100, 1_714, 2_714))),
        fe("fenced", None, 10_001, failed,
           fwd("fenced#0", 1, 5, 1_000, 5_000, timed_out),
           fwd("fenced#0", 1, 5, 5_200, 9_200, timed_out),
           fwd("fenced#0", 1, 5, 9_600, 10_000, timed_out)),
    ]
    assert rig.counters() == quiet(
        requests_admitted=5, requests_failed=2, batches_sent=8, failovers=6,
        chain_nacks=2, writes_unreplicated=1,
        counters={"frontend.chain_nacks": 2,
                  "frontend.writes_unreplicated": 1})
    assert rig.health() == {
        "kv/s0r0": (True, 0, 0, 1, 0), "kv/s0r1": (True, 0, 0, 0, 0),
        "kv/s1r0": (True, 1, 0, 0, 0), "kv/s1r1": (True, 0, 0, 1, 0),
        "echo#0": (True, 0, 0, 0, 0), "echo#1": (True, 0, 0, 0, 0),
        "picky#0": (True, 0, 0, 3, 0), "fenced#0": (False, 3, 0, 0, 1)}


# -- (f) event budgets and tagger coverage ------------------------------------------
#
# ``schedule()`` calls are the engine events a request costs, start to finish:
# submitted at offset 1 000 on a quiet cluster (no liveness round before
# 10 000; an idle 8 000 cycles cost 0), counted until 9 000 — the answer, the
# transport ACKs and the attempt's own 4 000-cycle time box all fall inside.


def request_cost(act):
    rig = Rig(engine=CountingEngine(), retry=RetryPolicy(**QUICK))
    rig.at(1_000)
    before = rig.engine.schedules
    act(rig)
    rig.at(9_000)
    assert all(row[2] is not None and row[2][0] == "ok"
               for row in rig.table().values())
    return rig.engine.schedules - before


def test_event_budget_of_one_served_echo_read():
    assert request_cost(lambda rig: None) == 0
    assert request_cost(lambda rig: rig.submit("e", "echo", body={"x": 1})) \
        == ECHO_READ_SCHEDULES


def test_event_budget_of_one_kv_write_with_one_fan_out_copy():
    assert request_cost(lambda rig: rig.write("w", 2, "v")) \
        == KV_WRITE_ONE_COPY_SCHEDULES


#: ISSUE 24 re-pinned these once, on purpose: a read 59 -> 54 (no second
#: retry process, no inner/outer settle hop, no loop-to-serve hop, no
#: dispatcher wake with an empty backlog, no callback when the attempt's
#: time box outlives its answer), a write with one copy 111 -> 105 (the
#: same five, and the copy's time box is a bare heap entry too).  Again
#: when the network service began answering in its delivery callback and
#: a backend's reply lost its process: a read 54 -> 49 (per ``net.send``
#: through ``svc.net``, no inbox wake and no per-request process; per
#: reply, no reply process), a write 105 -> 95 (the same, twice).  Again
#: when a backend's reply became a ``net.post``: a read 49 -> 39 (no
#: ``"sent"`` answer crosses the board's NoC back to the backend), a write
#: 95 -> 75 (the same, twice).  Again when a message came to cross the
#: monitor and the network interface by plain calls and the backend became
#: a callback service: a read 39 -> 31 (3 per NoC message — the injection's
#: completion event and the delivery channel's get and put — on the
#: ``net.rx`` in and the ``net.post`` out, and 2 per served request — the
#: inbox wake and the timer's second hop), a write 75 -> 59 (the same,
#: twice).  Again when the front-end's replayed generator hops went: a read
#: 31 -> 28 (the settle hop, the window-closed hop and the hop after the
#: batch's ACK), a write 59 -> 54 (the same, and the copy's batch pays a
#: window-closed and an ACK hop of its own).
ECHO_READ_SCHEDULES = 28
KV_WRITE_ONE_COPY_SCHEDULES = 54


def test_event_budget_of_two_liveness_rounds_and_no_noc_packet():
    """A quiet two-board cluster over the rounds of offsets 10 000 and
    20 000: one beat per board each, answered by the transport ACK of the
    board's network tile — two fabric frames per board, not one NoC packet
    on either board.  The first round also arms each connection's
    retransmission timer."""
    rig = Rig(engine=CountingEngine(), retry=RetryPolicy(**QUICK))
    fabric = rig.cluster.fabric

    def packets():
        return [system.network.stats.counter("noc.packets_delivered").value
                for system in rig.cluster.systems]

    rig.at(5_000)
    before, delivered = rig.engine.schedules, packets()
    frames = fabric.frames_delivered
    # re-pinned 23 -> 13 and 19 -> 11 when the transport ACK became a
    # beat's answer: the network tile's response datagram (its MAC
    # transmit, fabric arrival and hand-off) and the front-end's ACK of it
    # are gone, and so are two of the four frames per board
    rig.at(15_000)
    assert rig.engine.schedules - before == 13
    assert fabric.frames_delivered - frames == 2 * 2
    rig.at(25_000)
    assert rig.engine.schedules - before == 13 + 11
    assert fabric.frames_delivered - frames == 2 * 2 * 2
    assert packets() == delivered
    assert all(board.misses == 0 for board in rig.fe.boards.values())


def test_requests_and_probes_book_to_serve_and_prober():
    """``perf.trace``'s tagger over two liveness rounds and a few requests: the
    two hot kinds ``perf/trace.py`` keys on still own engine events, and a
    served request's events are the front-end's own — nothing of it books
    to ``repro/policy.py``, where the retry loop's code lives."""
    engine = TaggingEngine()
    rig = Rig(engine=engine, retry=RetryPolicy(**QUICK))
    engine.layers.clear()  # boot, deploy and the front-end's start-up
    engine.kinds.clear()
    rig.at(1_000).read("r", 2)
    rig.write("w", 0, "v")
    rig.submit("e", "echo", body={"x": 1})
    rig.at(25_000)
    assert {row[2][0] for row in rig.table().values()} == {"ok"}
    assert engine.kinds["cluster.frontend_serve"] > 0, engine.kinds
    assert engine.kinds["cluster.frontend_prober"] > 0, engine.kinds
    assert engine.layers["cluster"] > 0
    assert engine.layers["policy"] == 0, engine.layers


# -- (g) engine hops of the request path and the batch flusher ----------------------
#
# Every engine schedule a path makes, split into same-cycle ring entries and
# bucket entries, with each request's answer cycle.  Captured on the
# process-per-request front-end (a generator per request and per flusher, a
# waiter event per attempt, a kick event and an ``any_of`` per batch).  The
# answer cycles and bucket counts hold literal for literal on the callback
# front-end; the ring counts were re-pinned once, when the hops that only
# replayed the generators' resume order went (a request's settle hop, the
# window-closed hop, the hop after a won or lost pacing race, the hop after
# a backoff and ``RetryPolicy.drive``'s start hop), each commented below.


def hops(act, until, start=1_000, **frontend):
    """``act(rig)`` at offset ``start``, run to ``until``: the request rows,
    the ``(ring, bucket)`` schedules in between and ``batches_sent``."""
    rig = Rig(engine=CountingEngine(),
              **(frontend or {"retry": RetryPolicy(**QUICK)}))
    rig.at(start)
    ring, total = rig.engine.ring, rig.engine.schedules
    act(rig)
    rig.at(until)
    ring = rig.engine.ring - ring
    return (rig.table(), (ring, rig.engine.schedules - total - ring),
            rig.counters()["batches_sent"])


def test_hops_of_a_lone_read():
    assert hops(lambda rig: rig.read("r", 2), 9_000) == (
        {"r": (1_000, 3_225, MISS)}, (8, 20), 1)
    # ring 11 -> 8: the settle hop, the window-closed hop and the hop after
    # the batch's ACK


def test_hops_of_a_batch_of_four_attempts():
    """Four reads admitted in one cycle fill a batch: the flusher takes it
    the cycle it wakes, with no accumulation window."""
    assert hops(lambda rig: [rig.read(f"r{i}", 2) for i in range(4)], 9_000,
                max_pending=64) == (
        {f"r{i}": (1_000, 6_045, MISS) for i in range(4)}, (11, 25), 1)
    # ring 16 -> 11: four settle hops and the hop after the batch's ACK


def test_hops_of_an_attempt_whose_time_box_runs_out_and_fails_over():
    def act(rig):
        rig.at(500).cluster.partition_fpga(1)
        rig.at(1_000).read("r", 0)
    assert hops(act, 9_000, start=400) == (
        {"r": (1_000, 7_429, MISS1)}, (9, 25), 2)
    # ring 15 -> 9: two settle hops, two window-closed hops, the hop after
    # the backoff and the hop after the ACK of the batch that got one


def test_hops_of_a_retire_with_attempts_queued_and_on_the_wire():
    def act(rig):
        rig.read("awaited", 2)
        rig.at(1_400).read("queued", 2)
        rig.at(1_450).fe.retire("kv/s0r0")
    assert hops(act, 9_000) == (
        {"awaited": (1_000, 4_882, MISS), "queued": (1_400, 4_882, MISS)},
        (16, 45), 2)
    # ring 26 -> 16: four settle hops, two after a backoff, two
    # window-closed hops and two after a batch's ACK


def test_hops_of_a_batch_whose_pacing_times_out_on_a_cut_off_board():
    """Key 0's primary sits on a board cut off the fabric: the batch that
    leaves at offset 1 200 is never ACKed, so the flusher's pacing gives up
    on it ``HOST_TIMEOUT`` later, at 51 200 — long after the request failed
    over to the replica.  (A board killed on the shared backend does not
    reach this branch: the batch already on the wire still lands there and
    is ACKed.)"""
    def act(rig):
        rig.at(500).cluster.partition_fpga(1)
        rig.at(1_000).read("r", 0)
    assert hops(act, 60_000, start=400) == (
        {"r": (1_000, 7_429, MISS1)}, (19, 49), 2)
    # ring 27 -> 19: the six hops of the time-box test above, and the two
    # the lost pacing race paid (one to decide, one to go on)


class Answering:
    """A monitor stand-in: admits each call 5 cycles after its submission
    and answers it 100 cycles later — an ERROR the first ``errors`` times,
    then the payload back."""

    def __init__(self, engine, errors):
        self.engine, self.errors, self.tile_name = engine, errors, "tileX"
        self.deliver = None
        self.submitted = []

    def submit(self, msg, on_done):
        self.submitted.append(self.engine.now)
        self.engine.schedule(5, on_done, None)
        self.engine.schedule(105, self._answer, msg)

    def _answer(self, msg):
        error = len(self.submitted) <= self.errors
        self.deliver(msg.make_response(
            payload="no" if error else msg.payload, error=error))


def test_hops_of_a_shell_call_retried_twice():
    """``Shell.call(retry=...)``, the retry loop's other caller: two ERROR
    answers, each retried after its backoff (200, then 400), then served."""
    engine = CountingEngine()
    monitor = Answering(engine, errors=2)
    shell = Shell(engine, monitor)
    engine.run(until=1_000)
    result = shell.call("svc", "op", payload="q", retry=RetryPolicy(**QUICK))
    settled = []
    result.add_callback(
        lambda ev: settled.append((engine.now, ev.value.payload)))
    engine.run(until=10_000)
    assert settled == [(1_915, "q")]
    assert monitor.submitted == [1_000, 1_305, 1_810]
    # ring 13 -> 10: ``drive``'s start hop and the hop after each backoff;
    # 10 -> 7: an admitted attempt's no-op admission callback
    assert (engine.ring, engine.schedules - engine.ring) == (7, 11)
    assert (shell.calls_made, shell.calls_failed, shell.calls_retried) == \
        (3, 2, 2)
