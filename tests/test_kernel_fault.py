"""Fault handling (Section 4.4): fail-stop drain, NACKs, preemption,
teardown/restart, and DRC screening at load time."""

import pytest

from repro.accel import (
    Accelerator,
    CrashingAccel,
    EchoAccel,
    PreemptibleVideoEncoder,
    VideoEncoder,
)
from repro.errors import BitstreamRejected, ServiceError, TileFault
from repro.hw import DesignRuleChecker, ResourceVector
from repro.hw.bitstream import Bitstream
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    FaultPolicy,
    NocConfig,
    SystemConfig,
)
from repro.policy import RetryPolicy


def booted(policy=FaultPolicy.FAIL_STOP, width=3, **runtime):
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=width, height=2),
                     fault=FaultConfig(policy=policy)),
        **runtime)
    system.boot()
    return system


def start(system, node, accel, endpoint=None):
    started = system.start_app(node, accel, endpoint=endpoint)
    system.run_until(started)
    return accel


class ScriptedClient(Accelerator):
    """Calls a victim repeatedly, recording outcomes."""

    def __init__(self, name, victim, op="ping", count=30, gap=500,
                 payload=None, timeout=100_000):
        super().__init__(name)
        self.victim = victim
        self.op = op
        self.count = count
        self.gap = gap
        self.payload_factory = payload or (lambda i: i)
        self.timeout = timeout
        self.ok = 0
        self.failures = []

    def main(self, shell):
        for i in range(self.count):
            try:
                yield shell.call(self.victim, self.op,
                                 payload=self.payload_factory(i),
                                 timeout=self.timeout)
                self.ok += 1
            except Exception as err:
                self.failures.append(type(err).__name__)
            yield self.gap


class TestFailStop:
    def test_crash_drains_tile_and_peers_get_errors(self):
        system = booted()
        victim = CrashingAccel("victim", crash_after=5)
        start(system, 2, victim, endpoint="app.victim")
        client = ScriptedClient("client", "app.victim", count=20)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        system.run(until=system.engine.now + 2_000_000)
        assert victim.served == 5
        assert client.ok >= 5
        assert client.failures, "post-crash calls must fail, not hang"
        assert system.tiles[2].failed
        assert system.fault_manager.records
        assert system.fault_manager.records[0].action == "drained"

    def test_unrelated_app_unaffected_by_crash(self):
        """The isolation headline: fault blast radius is one tile."""
        system = booted()
        victim = CrashingAccel("victim", crash_after=3)
        healthy = EchoAccel("healthy", cost=10)
        start(system, 2, victim, endpoint="app.victim")
        start(system, 4, healthy, endpoint="app.healthy")
        crasher_client = ScriptedClient("c1", "app.victim", count=10)
        healthy_client = ScriptedClient("c2", "app.healthy", count=10)
        s1 = system.start_app(3, crasher_client)
        s2 = system.start_app(5, healthy_client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.mgmt.grant_send("tile5", "app.healthy")
        system.run_until(s1)
        system.run_until(s2)
        system.run(until=system.engine.now + 2_000_000)
        assert system.tiles[2].failed
        assert healthy_client.ok == 10
        assert not healthy_client.failures

    def test_nack_from_drained_tile(self):
        system = booted()
        victim = EchoAccel("victim")
        start(system, 2, victim, endpoint="app.victim")
        client = ScriptedClient("client", "app.victim", count=5, gap=1000)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        system.run(until=system.engine.now + 3000)
        system.mgmt.fail_stop(2)  # operator kill mid-run
        system.run(until=system.engine.now + 2_000_000)
        assert client.failures
        assert system.tiles[2].monitor.nacks_sent >= 1

    def test_an_operator_kill_is_reported_once_like_any_fault(self):
        system = booted(policy=FaultPolicy.PREEMPT)
        start(system, 2, EchoAccel("victim"), endpoint="app.victim")
        heard = []
        system.fault_manager.on_fault.append(
            lambda tile, record: heard.append(
                (tile.node, record.context, record.error, record.action)))
        system.mgmt.fail_stop(2)
        system.mgmt.fail_stop(2)  # already contained: nothing to report
        assert heard == [(2, "main", "TileFault: operator fail-stop",
                          "drained")]
        assert system.tiles[2].failed
        assert system.stats.counters["mgmt.fail_stops"].value == 1

    def test_finished_children_are_forgotten_and_live_ones_interrupted(self):
        """A tile that spawns one child per request does not keep a dead
        ``Process`` per message served, and still fail-stops every live
        child."""

        class Spawner(Accelerator):
            def __init__(self):
                super().__init__("spawner")
                self.interrupted = 0

            def main(self, shell):
                for i in range(3):
                    shell.spawn(f"bg{i}", self._background(shell))
                while True:
                    msg = yield shell.recv()
                    shell.spawn(f"req{msg.mid}", self._serve(shell, msg))

            def _background(self, shell):
                try:
                    yield shell.engine.event("never")
                except Exception:
                    self.interrupted += 1

            def _serve(self, shell, msg):
                yield 10
                yield shell.reply(msg, payload=msg.payload)

        system = booted()
        spawner = start(system, 2, Spawner(), endpoint="app.spawner")
        client = ScriptedClient("client", "app.spawner", count=1_000, gap=50)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.spawner")
        system.run_until(started)
        system.run(until=system.engine.now + 2_000_000)
        assert client.ok == 1_000
        shell = system.tiles[2].shell
        live = [child for child in shell.children if child.alive]
        assert len(live) == 3
        assert len(shell._children) <= len(live) + 16
        system.mgmt.fail_stop(2)
        system.run(until=system.engine.now + 100)
        assert spawner.interrupted == 3
        assert not any(child.alive for child in live)

    def test_drained_tile_cannot_send(self):
        system = booted()

        class Chatty(Accelerator):
            def __init__(self):
                super().__init__("chatty")
                self.errors = []

            def main(self, shell):
                yield 1000
                try:
                    yield shell.alloc(1024)
                except TileFault as err:
                    self.errors.append("blocked")

        chatty = Chatty()
        started = system.start_app(3, chatty)
        system.run_until(started)
        system.tiles[3].monitor.drain()
        system.run(until=system.engine.now + 100_000)
        assert chatty.errors == ["blocked"]

    def test_fault_containment_counts_in_stats(self):
        system = booted()
        victim = CrashingAccel("victim", crash_after=0)
        start(system, 2, victim, endpoint="app.victim")
        client = ScriptedClient("client", "app.victim", count=3)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        system.run(until=system.engine.now + 1_000_000)
        assert system.stats.counters["fault.tiles_drained"].value == 1


class TestPreemption:
    def make_encoder_system(self, policy):
        system = booted(policy=policy)
        encoder = PreemptibleVideoEncoder("enc")
        start(system, 2, encoder, endpoint="app.enc")
        return system, encoder

    def encode_client(self, system, stream, count, node):
        """Begin loading a per-stream client; do NOT advance the clock, so
        multiple clients' reconfigurations overlap and their request
        streams genuinely interleave at the encoder."""

        def payload(i):
            return {"stream": stream, "seq": i, "frames": 1, "bytes": 10_000}

        client = ScriptedClient(f"client-s{stream}", "app.enc", op="encode",
                                count=count, gap=8000, payload=payload,
                                timeout=2_000_000)
        system.start_app(node, client)
        system.mgmt.grant_send(f"tile{node}", "app.enc")
        return client

    def run_until_served(self, system, encoder, chunks, cap=20_000_000):
        """Advance until the encoder has served ``chunks`` items."""
        deadline = system.engine.now + cap
        while encoder.chunks_encoded < chunks:
            assert system.engine.now < deadline, "encoder never warmed up"
            system.run(until=system.engine.now + 50_000)

    def test_context_fault_kills_only_one_stream(self):
        system, encoder = self.make_encoder_system(FaultPolicy.PREEMPT)
        c0 = self.encode_client(system, "s0", 10, 3)
        c1 = self.encode_client(system, "s1", 10, 4)
        # crash one stream's context after a few chunks (the injection
        # counter is global, so either stream may be the victim)
        self.run_until_served(system, encoder, 4)
        encoder.inject_fault_after = 0
        system.run(until=system.engine.now + 8_000_000)
        assert not system.tiles[2].failed, "tile must keep running"
        records = system.fault_manager.records
        assert records and records[0].action == "context-killed"
        # exactly one request was lost (the one in flight at the fault);
        # the victim context respawned and both streams finished
        assert c0.ok + c1.ok == 19
        assert min(c0.ok, c1.ok) >= 9

    def test_fail_stop_policy_drains_whole_tile_instead(self):
        system, encoder = self.make_encoder_system(FaultPolicy.FAIL_STOP)
        c0 = self.encode_client(system, "s0", 10, 3)
        c1 = self.encode_client(system, "s1", 10, 4)
        self.run_until_served(system, encoder, 4)
        encoder.inject_fault_after = 0
        system.run(until=system.engine.now + 8_000_000)
        assert system.tiles[2].failed
        assert c0.ok < 10 and c1.ok < 10, "both streams lose service"

    def test_preempt_policy_on_nonpreemptible_accel_falls_back(self):
        system = booted(policy=FaultPolicy.PREEMPT)
        victim = CrashingAccel("victim", crash_after=2)  # not preemptible
        start(system, 2, victim, endpoint="app.victim")
        client = ScriptedClient("client", "app.victim", count=10)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        system.run(until=system.engine.now + 2_000_000)
        assert system.tiles[2].failed
        assert system.fault_manager.records[0].action == "drained"

    def test_context_recovers_from_externalized_state(self):
        """The preemption payoff: the killed context respawns with its
        externalized per-stream state restored, so the stream continues
        where it left off instead of resetting."""
        system, encoder = self.make_encoder_system(FaultPolicy.PREEMPT)
        c0 = self.encode_client(system, "s0", 10, 3)
        system.run(until=system.engine.now + 30_000)
        encoder.inject_fault_after = 1
        system.run(until=system.engine.now + 6_000_000)
        assert system.fault_manager.records, "a context fault must occur"
        assert not system.tiles[2].failed
        # state continuity across the kill/respawn: every chunk the client
        # got acknowledged is reflected in the restored stream context
        assert encoder.streams["s0"]["chunks"] >= c0.ok - 1
        assert c0.ok >= 8, "the faulted stream must recover and continue"


class TestLifecycle:
    def test_teardown_revokes_and_frees_slot(self):
        system = booted()
        echo = EchoAccel("echo")
        start(system, 2, echo, endpoint="app.echo")
        assert system.tiles[2].occupied
        done = system.mgmt.teardown(2)
        system.run_until(done)
        assert not system.tiles[2].occupied
        assert system.caps.holder_count("tile2") == 0
        assert "app.echo" not in system.namespace

    def test_restart_recovers_service(self):
        system = booted()
        victim = CrashingAccel("victim", crash_after=2)
        start(system, 2, victim, endpoint="app.victim")
        client = ScriptedClient("client", "app.victim", count=30, gap=2000)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        system.run(until=system.engine.now + 50_000)
        assert system.tiles[2].failed
        # operator reloads a fresh instance under the same endpoint
        fresh = EchoAccel("victim-v2")
        restart = system.engine.process(
            system.mgmt.restart(2, fresh, endpoint="app.victim")
        )
        system.run_until(restart.done)
        before = client.ok
        system.run(until=system.engine.now + 2_000_000)
        assert client.ok > before, "service must work again after restart"

    def test_drc_rejects_malicious_bitstream_at_load(self):
        system = booted(drc=DesignRuleChecker())

        class Virus(Accelerator):
            PRIMITIVES = {"ring_oscillator": 100}
            COST = ResourceVector(logic_cells=1000)

        started = system.start_app(3, Virus("virus"))
        with pytest.raises(BitstreamRejected):
            system.run_until(started)
        assert not system.tiles[3].occupied

    def test_oversized_accelerator_rejected(self):
        system = booted()

        class Huge(Accelerator):
            COST = ResourceVector(logic_cells=10**9)

        started = system.start_app(3, Huge("huge"))
        with pytest.raises(Exception):
            system.run_until(started)

    def test_reconfiguration_is_independent_per_tile(self):
        """Loading one tile does not disturb a running neighbour."""
        system = booted()
        echo = EchoAccel("echo", cost=5)
        start(system, 2, echo, endpoint="app.echo")
        client = ScriptedClient("client", "app.echo", count=20, gap=2000)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.echo")
        system.run_until(started)
        # reconfigure tile 4 while traffic flows between 2 and 3
        big = VideoEncoder("enc")
        load = system.start_app(4, big)
        system.run_until(load)
        system.run(until=system.engine.now + 2_000_000)
        assert client.ok == 20
        assert not client.failures


class TestFaultIndex:
    """The per-tile fault index and containment-time telemetry."""

    def crash(self, system, node, endpoint):
        victim = CrashingAccel(f"victim{node}", crash_after=1)
        start(system, node, victim, endpoint=endpoint)
        client = ScriptedClient(f"client{node}", endpoint, count=3)
        client_node = node + 1
        started = system.start_app(client_node, client)
        system.mgmt.grant_send(f"tile{client_node}", endpoint)
        system.run_until(started)

    def test_faults_on_indexes_per_tile(self):
        system = booted(width=4)
        self.crash(system, 2, "app.a")
        self.crash(system, 4, "app.b")
        system.run(until=system.engine.now + 2_000_000)
        assert len(system.fault_manager.records) == 2
        assert [r.tile for r in system.fault_manager.faults_on("tile2")] \
            == ["tile2"]
        assert [r.tile for r in system.fault_manager.faults_on("tile4")] \
            == ["tile4"]
        assert system.fault_manager.faults_on("tile6") == []

    def test_faults_on_matches_linear_scan(self):
        system = booted()
        self.crash(system, 2, "app.a")
        system.run(until=system.engine.now + 2_000_000)
        scan = [r for r in system.fault_manager.records if r.tile == "tile2"]
        assert system.fault_manager.faults_on("tile2") == scan

    def test_mean_time_to_containment_gauge(self):
        system = booted()
        self.crash(system, 2, "app.a")
        system.run(until=system.engine.now + 2_000_000)
        gauge = system.stats.gauges["fault.mean_time_to_containment"]
        assert gauge.value >= 0.0


class TestPreemptRoundTrip:
    """Satellite for FaultPolicy.PREEMPT: externalized state round-trips
    and a resumed context produces output identical to an uninterrupted
    run (the client retries the one request lost in flight)."""

    class RetryEncodeClient(Accelerator):
        def __init__(self, count=10):
            super().__init__("rclient")
            self.count = count
            self.replies = []

        def main(self, shell):
            for i in range(self.count):
                # bytes/frames chosen so complexity == the initial
                # rate_state: output bytes don't depend on how many times
                # the retried chunk was (re)processed
                msg = yield shell.call(
                    "app.enc", "encode",
                    payload={"stream": "s0", "seq": i, "frames": 1,
                             "bytes": 50_000},
                    retry=RetryPolicy(deadline=4_000_000,
                                      attempt_timeout=200_000))
                self.replies.append(msg.payload)
                yield 2_000

    def run_stream(self, inject):
        system = booted(policy=FaultPolicy.PREEMPT)
        encoder = PreemptibleVideoEncoder("enc")
        start(system, 2, encoder, endpoint="app.enc")
        client = self.RetryEncodeClient()
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.enc")
        system.run_until(started)
        if inject:
            system.run(until=system.engine.now + 40_000)
            encoder.inject_fault_after = 0
        system.run(until=system.engine.now + 12_000_000)
        return system, encoder, client

    def test_resumed_context_output_matches_uninterrupted_run(self):
        _, enc_clean, client_clean = self.run_stream(inject=False)
        system, enc_fault, client_fault = self.run_stream(inject=True)
        records = system.fault_manager.records
        assert records and records[0].action == "context-killed"
        assert not system.tiles[2].failed
        assert client_fault.replies == client_clean.replies
        assert enc_fault.streams["s0"]["last_seq"] \
            == enc_clean.streams["s0"]["last_seq"] == 9

    def test_externalize_restore_round_trip(self):
        encoder = PreemptibleVideoEncoder("enc")
        encoder.streams["s0"] = {"last_seq": 4, "rate_state": 0.7,
                                 "chunks": 5}
        snapshot = encoder.externalize_state()
        fresh = PreemptibleVideoEncoder("enc2")
        fresh.restore_state(snapshot)
        assert fresh.streams == encoder.streams
        # the saved copy is deep enough that later mutation doesn't leak
        encoder.streams["s0"]["chunks"] = 99
        assert fresh.streams["s0"]["chunks"] == 5
