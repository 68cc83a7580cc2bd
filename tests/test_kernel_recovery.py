"""The recovery subsystem: fault-feed detection, restart in place, failover
to spares, capability re-minting, state resumption, and client-visible
behaviour (DeadlineExceeded + retry) during recovery windows."""

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.errors import ConfigError, DeadlineExceeded, ServiceUnavailable
from repro.kernel import ApiarySystem, FaultPolicy, SystemConfig
from repro.policy import RetryPolicy


def booted():
    system = ApiarySystem(SystemConfig.figure1())
    system.boot()
    return system


def deploy_echo(system, node=2, endpoint="app.svc", **recovery_kwargs):
    manager = system.enable_recovery(**recovery_kwargs)
    started = manager.deploy(node, lambda: EchoAccel("svc", cost=20),
                             endpoint=endpoint)
    system.run_until(started)
    return manager


class RetryClient(Accelerator):
    """Calls via the retrying shell API, recording outcomes."""

    def __init__(self, name, victim, count=10, gap=5_000,
                 deadline=600_000, attempt_timeout=20_000):
        super().__init__(name)
        self.victim = victim
        self.count = count
        self.gap = gap
        self.deadline = deadline
        self.attempt_timeout = attempt_timeout
        self.ok = 0
        self.failures = []

    def main(self, shell):
        for i in range(self.count):
            try:
                yield shell.call(
                    self.victim, "ping", payload=i,
                    retry=RetryPolicy(deadline=self.deadline,
                                      attempt_timeout=self.attempt_timeout))
                self.ok += 1
            except Exception as err:
                self.failures.append(type(err).__name__)
            yield self.gap


class TestDetectionAndRestart:
    def test_crash_triggers_restart_in_place(self):
        system = booted()
        manager = deploy_echo(system)
        assert system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert manager.recoveries, "the crash must be recovered"
        event = manager.recoveries[0]
        assert event.kind == "restart"
        assert event.from_node == 2 and event.to_node == 2
        assert event.mttr > 0
        assert system.tiles[2].occupied and not system.tiles[2].failed
        assert system.namespace.lookup("app.svc") == 2
        assert system.stats.counters["recovery.fault_detections"].value >= 1

    def test_service_keeps_serving_after_recovery(self):
        system = booted()
        deploy_echo(system)
        client = RetryClient("client", "app.svc", count=8)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.svc")
        system.run_until(started)
        system.run(until=system.engine.now + 20_000)
        assert system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 8_000_000)
        assert client.ok == 8, f"retries must ride out recovery: {client.failures}"

    def test_mttr_histogram_recorded(self):
        system = booted()
        deploy_echo(system)
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        sketch = system.stats.sketches["recovery.mttr"]
        assert sketch.count == 1 and sketch.mean() > 0


class TestFailover:
    def test_prefer_spare_fails_over_and_rebinds_name(self):
        system = booted()
        manager = deploy_echo(system, spares=[4], prefer_spare=True)
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        event = manager.recoveries[0]
        assert event.kind == "failover"
        assert event.to_node == 4
        assert system.namespace.lookup("app.svc") == 4
        assert system.tiles[4].occupied
        # the vacated home slot becomes the new spare
        assert manager.spares == [2]

    def test_failover_remints_dead_tiles_grants(self):
        system = booted()
        manager = deploy_echo(system, spares=[4], prefer_spare=True)
        peer = EchoAccel("peer", cost=10)
        started = system.start_app(3, peer, endpoint="app.peer")
        system.run_until(started)
        system.mgmt.grant_send("tile2", "app.peer")
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert manager.recoveries[0].kind == "failover"
        assert "app.peer" in system.mgmt.grants_of("tile4")

    def test_peer_caps_to_logical_name_survive_failover(self):
        """Clients hold SEND caps to the *name*; after failover they reach
        the new tile without any re-grant."""
        system = booted()
        deploy_echo(system, spares=[4], prefer_spare=True)
        client = RetryClient("client", "app.svc", count=6)
        started = system.start_app(3, client)
        system.mgmt.grant_send("tile3", "app.svc")
        system.run_until(started)
        system.run(until=system.engine.now + 20_000)
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 8_000_000)
        assert system.namespace.lookup("app.svc") == 4
        assert client.ok == 6

    def test_busy_spare_skipped(self):
        system = booted()
        manager = deploy_echo(system, spares=[4], prefer_spare=True)
        squatter = EchoAccel("squatter")
        started = system.start_app(4, squatter)
        system.run_until(started)
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        # spare occupied: recovery falls back to restart in place
        assert manager.recoveries[0].kind == "restart"
        assert system.namespace.lookup("app.svc") == 2


class TestStateResumption:
    def test_saved_contexts_restore_into_replacement(self):
        class Counter(Accelerator):
            preemptible = True

            def __init__(self):
                super().__init__("counter")
                self.count = 0

            def externalize_state(self):
                return {"count": self.count}

            def restore_state(self, state):
                self.count = state.get("count", 0)

            def main(self, shell):
                while True:
                    msg = yield shell.recv()
                    self.count += 1
                    yield shell.reply(msg, payload=self.count)

        system = booted()
        manager = system.enable_recovery()
        instances = []

        def factory():
            accel = Counter()
            instances.append(accel)
            return accel

        started = manager.deploy(2, factory, "app.counter")
        system.run_until(started)
        # park some context state the way the fault manager would
        system.tiles[2].saved_contexts["main"] = {"count": 41}
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert manager.recoveries
        assert len(instances) == 2
        assert instances[1].count == 41

    def test_foreign_saved_contexts_do_not_ride_along(self):
        """Owner-keyed contexts: another deployment's parked state on the
        same tile must not merge into this deployment's replacement (and
        must stay parked for its own recovery)."""
        restored = []

        class Probe(Accelerator):
            preemptible = True

            def externalize_state(self):
                return {}

            def restore_state(self, state):
                restored.append(dict(state))

            def main(self, shell):
                while True:
                    msg = yield shell.recv()
                    yield shell.reply(msg, payload="ok")

        system = booted()
        manager = system.enable_recovery()
        started = manager.deploy(2, lambda: Probe("probe"), "app.probe")
        system.run_until(started)
        tile = system.tiles[2]
        # my own parked context, plus a co-resident tenant's
        tile.saved_contexts["mine"] = {"count": 7}
        tile.saved_context_owners["mine"] = "app.probe"
        tile.saved_contexts["theirs"] = {"count": 99, "secret": True}
        tile.saved_context_owners["theirs"] = "app.other"
        tile.inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert manager.recoveries
        assert restored and restored[-1] == {"count": 7}
        # the foreign context is still parked, awaiting its own recovery
        assert tile.saved_contexts.get("theirs") == {"count": 99,
                                                     "secret": True}
        assert tile.saved_context_owners.get("theirs") == "app.other"


class TestGivingUp:
    def test_abandons_after_max_restarts(self):
        system = booted()
        manager = deploy_echo(system, max_restarts=1)
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert len(manager.recoveries) == 1
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert len(manager.recoveries) == 1, "second crash must not recover"
        assert "app.svc" not in manager.deployments
        assert system.stats.counters["recovery.abandoned"].value == 1

    def test_stop_disables_detection(self):
        system = booted()
        manager = deploy_echo(system)
        manager.stop()
        system.tiles[2].inject_crash()
        system.run(until=system.engine.now + 2_000_000)
        assert manager.recoveries == []
        assert system.tiles[2].failed

    def test_duplicate_deployment_rejected(self):
        system = booted()
        manager = deploy_echo(system)
        with pytest.raises(ConfigError):
            manager.deploy(3, lambda: EchoAccel("dup"), "app.svc")

    def test_enable_recovery_twice_rejected(self):
        system = booted()
        system.enable_recovery()
        with pytest.raises(ConfigError):
            system.enable_recovery()


class TestClientVisibleFailures:
    def test_call_times_out_with_deadline_exceeded_not_hang(self):
        """A request accepted and then orphaned by a mid-service drain
        raises DeadlineExceeded (a ServiceUnavailable) instead of hanging."""
        system = booted()
        victim = EchoAccel("victim", cost=100_000)  # slow: request in flight
        started = system.start_app(2, victim, endpoint="app.victim")
        system.run_until(started)

        outcomes = []

        class Caller(Accelerator):
            def main(self, shell):
                try:
                    yield shell.call("app.victim", "ping", payload="x",
                                     timeout=150_000)
                    outcomes.append("ok")
                except DeadlineExceeded as err:
                    outcomes.append(("deadline", isinstance(
                        err, ServiceUnavailable)))

        started = system.start_app(3, Caller("caller"))
        system.mgmt.grant_send("tile3", "app.victim")
        system.run_until(started)
        # let the request reach the victim and start cooking, then drain
        system.run(until=system.engine.now + 30_000)
        system.tiles[2].fail_stop()
        system.run(until=system.engine.now + 500_000)
        assert outcomes == [("deadline", True)]

    def test_retry_gives_up_with_deadline_exceeded(self):
        system = booted()
        errors = []

        class Caller(Accelerator):
            def main(self, shell):
                try:
                    yield shell.call(
                        "app.ghost", "ping",
                        retry=RetryPolicy(deadline=50_000,
                                          attempt_timeout=10_000))
                except DeadlineExceeded as err:
                    errors.append(str(err))

        started = system.start_app(3, Caller("caller"))
        system.run_until(started)
        system.run(until=system.engine.now + 500_000)
        assert errors and "gave up" in errors[0]

    def test_retry_counts_attempts(self):
        system = booted()

        class Caller(Accelerator):
            def main(self, shell):
                try:
                    yield shell.call(
                        "app.ghost", "ping",
                        retry=RetryPolicy(deadline=50_000,
                                          attempt_timeout=10_000))
                except DeadlineExceeded:
                    pass

        started = system.start_app(3, Caller("caller"))
        system.run_until(started)
        system.run(until=system.engine.now + 500_000)
        assert system.tiles[3].shell.calls_retried >= 1
