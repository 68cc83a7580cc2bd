"""Scheduler & autoscaling tests (repro.sched).

Covers the control-plane stack end to end: typed admission rejections,
first-fit placement (capacity and DRC feasibility),
the event-driven dispatch loop, priority preemption (checkpoint-migrate
and kill-and-requeue), fault-driven rescheduling, determinism of the
decision log, and the reconfiguration-cost-aware autoscaler.
"""

import json
from dataclasses import replace

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.cluster import Cluster, ClusterConfig
from repro.errors import (
    AdmissionRejected,
    ConfigError,
    PlacementFailed,
    QuotaExceeded,
    SchedulerError,
    TileFault,
)
from repro.hw.bitstream import Bitstream
from repro.hw.resources import ResourceVector
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    FaultPolicy,
    NocConfig,
    SystemConfig,
)
from repro.loadgen import ScenarioRunner, get_scenario
from repro.sched import (
    AdmissionController,
    JobSpec,
    JobState,
    Placer,
    TenantQuota,
)
from repro.sched.autoscaler import INTERVAL
from repro.sched.scheduler import MAX_FAULTS


def booted(policy=FaultPolicy.PREEMPT, **runtime):
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     fault=FaultConfig(policy=policy)),
        **runtime)
    system.boot()
    return system


class CounterAccel(Accelerator):
    """Tiny preemptible accelerator with one word of checkpointable state."""

    COST = ResourceVector(logic_cells=6_000, bram_kb=16, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 5_000}
    preemptible = True

    def __init__(self, name="counter", start=0):
        super().__init__(name)
        self.count = start

    def main(self, shell):
        while True:
            yield 1_000
            self.count += 1

    def externalize_state(self):
        return {"count": self.count}

    def restore_state(self, state):
        self.count = state.get("count", self.count)


class BigAccel(Accelerator):
    """Large enough that a deliberately shrunken slot cannot host it."""

    COST = ResourceVector(logic_cells=40_000, bram_kb=128, dsp_slices=8)
    PRIMITIVES = {"lut_logic": 30_000}

    def main(self, shell):
        while True:
            yield 10_000


def spec(name, tenant="t", factory=None, **kwargs):
    return JobSpec(name=name, tenant=tenant,
                   factory=factory or (lambda: EchoAccel(name)), **kwargs)


# -- admission ------------------------------------------------------------


class TestAdmission:
    def test_empty_name_and_tenant_rejected(self):
        ctrl = AdmissionController()
        with pytest.raises(AdmissionRejected):
            ctrl.admit(spec(""), running=0)
        with pytest.raises(AdmissionRejected):
            ctrl.admit(spec("j", tenant=""), running=0)

    def test_priority_above_tenant_cap_rejected(self):
        ctrl = AdmissionController({"t": TenantQuota(max_priority=2)})
        ctrl.admit(spec("ok", priority=2), running=0)
        with pytest.raises(AdmissionRejected):
            ctrl.admit(spec("greedy", priority=3), running=0)

    def test_running_quota(self):
        ctrl = AdmissionController({"t": TenantQuota(max_running=2)})
        ctrl.admit(spec("a"), running=1)
        with pytest.raises(QuotaExceeded):
            ctrl.admit(spec("b"), running=2)

    def test_rejections_are_typed(self):
        # callers can distinguish quota pressure from malformed submits,
        # and catch the whole family as SchedulerError
        assert issubclass(QuotaExceeded, AdmissionRejected)
        assert issubclass(AdmissionRejected, SchedulerError)

    def test_unknown_tenant_gets_default_quota(self):
        ctrl = AdmissionController(default=TenantQuota(max_running=1))
        with pytest.raises(QuotaExceeded):
            ctrl.admit(spec("x", tenant="anyone"), running=1)


# -- placement ------------------------------------------------------------


class TestPlacer:
    def placer(self, system, **kwargs):
        return Placer(system.tiles, drc=system.drc, **kwargs)

    def test_first_fit_picks_lowest_free_tile(self):
        system = booted()
        bs = EchoAccel("e").bitstream()
        assert self.placer(system).place(bs) == 1  # 0 is the mem service

    def test_occupied_and_reserved_tiles_are_infeasible(self):
        system = booted()
        system.run_until(system.start_app(1, EchoAccel("e1")))
        bs = EchoAccel("e").bitstream()
        assert self.placer(system).place(bs) == 2
        placer = self.placer(system, reserved=(2, 3))
        assert placer.place(bs) == 4
        assert placer.reject_reason(2, bs) == "reserved"

    def test_capacity_overflow_reports_reasons(self):
        system = booted()
        huge = Bitstream.build("huge", ResourceVector(
            logic_cells=10**9, bram_kb=1, dsp_slices=0))
        with pytest.raises(PlacementFailed) as exc:
            self.placer(system).place(huge)
        reasons = exc.value.reasons
        assert set(reasons) == {0, 1, 2, 3, 4, 5}
        assert "needs" in reasons[2]

    def test_drc_violation_reports_reasons(self):
        from repro.hw.bitstream import DesignRuleChecker
        system = booted(drc=DesignRuleChecker(power_budget_toggle=0.6))
        virus = Bitstream.build("virus", EchoAccel("e").COST,
                                max_toggle_rate=0.95)
        with pytest.raises(PlacementFailed) as exc:
            self.placer(system).place(virus)
        assert any(r.startswith("DRC: power-budget")
                   for r in exc.value.reasons.values())


# -- scheduler dispatch ---------------------------------------------------


class TestScheduler:
    def test_submit_place_start_finish(self):
        system = booted()
        sched = system.enable_scheduler()
        job = sched.submit(spec("echo"))
        system.run(until=system.engine.now + 200_000)
        assert job.state is JobState.RUNNING
        assert job.node == 1
        assert sched.queue_depth() == 0
        kinds = [e.kind for e in sched.events]
        assert kinds[:3] == ["submit", "place", "start"]
        done = sched.finish(job)
        system.run_until(done)
        assert job.state is JobState.COMPLETED
        assert not system.tiles[1].occupied

    def test_scheduler_is_exclusive_per_system(self):
        system = booted()
        system.enable_scheduler()
        with pytest.raises(ConfigError):
            system.enable_scheduler()

    def test_tenant_quota_holds_job_in_queue(self):
        system = booted()
        sched = system.enable_scheduler(
            quotas={"t": TenantQuota(max_running=1)})
        first = sched.submit(spec("one"))
        second = sched.submit(spec("two"))
        system.run(until=system.engine.now + 300_000)
        assert first.state is JobState.RUNNING
        assert second.state is JobState.QUEUED  # quota, not capacity
        system.run_until(sched.finish(first))
        system.run(until=system.engine.now + 200_000)
        assert second.state is JobState.RUNNING

    def test_rejected_submit_raises_and_logs(self):
        system = booted()
        sched = system.enable_scheduler(
            quotas={"t": TenantQuota(max_priority=0)})
        sched.submit(spec("one"))
        with pytest.raises(AdmissionRejected):
            sched.submit(spec("two", priority=1))
        assert system.stats.counter("sched.rejected").value == 1
        assert sched.events[-1].kind == "reject"

    def test_queue_drains_as_capacity_frees(self):
        system = booted()
        sched = system.enable_scheduler()
        jobs = [sched.submit(spec(f"j{i}")) for i in range(6)]
        system.run(until=system.engine.now + 400_000)
        running = [j for j in jobs if j.state is JobState.RUNNING]
        queued = [j for j in jobs if j.state is JobState.QUEUED]
        assert len(running) == 5 and len(queued) == 1  # 5 free tiles
        system.run_until(sched.finish(running[0]))
        system.run(until=system.engine.now + 200_000)
        assert queued[0].state is JobState.RUNNING

    def test_same_cycle_jobs_never_share_a_tile_under_a_bitstream_cache(self):
        """A cache-path load holds its tile *reserved* while the bitstream
        is in synthesis (the region is still idle); the placer must treat
        that slot as taken, or two jobs land on one tile in one cycle."""
        system = booted()
        system.enable_bitstream_cache()
        sched = system.enable_scheduler()
        first, second = sched.submit(spec("a")), sched.submit(spec("b"))
        placed_at = system.engine.now + 1
        system.run(until=placed_at)
        assert (first.node, second.node) == (1, 2)
        assert system.tiles[1].reserved and system.tiles[2].reserved
        system.run(until=placed_at + 3_000_000)
        assert first.state is second.state is JobState.RUNNING
        kinds = [e.kind for e in sched.events]
        assert "load_failed" not in kinds and kinds.count("place") == 2

    def test_migrate_onto_a_reserved_tile_is_refused_before_teardown(self):
        system = booted()
        system.enable_bitstream_cache()
        counter = CounterAccel()
        system.run_until(system.start_app(1, counter, endpoint="app.cnt"))
        system.start_app(2, EchoAccel("cold"))  # in synthesis: reserved
        assert system.tiles[2].reserved
        assert not system.tiles[2].region.reconfiguring
        with pytest.raises(ConfigError, match="not free"):
            next(system.mgmt.migrate(1, 2, CounterAccel))
        assert system.tiles[1].accelerator is counter  # source untouched


# -- preemption -----------------------------------------------------------


class TestPreemption:
    def fill(self, sched, n, prio=0):
        return [sched.submit(spec(f"low{i}", priority=prio))
                for i in range(n)]

    def test_high_priority_kills_youngest_victim(self):
        system = booted()
        sched = system.enable_scheduler()
        low = self.fill(sched, 5)
        system.run(until=system.engine.now + 300_000)
        assert all(j.state is JobState.RUNNING for j in low)
        high = sched.submit(spec("high", priority=5))
        system.run(until=system.engine.now + 300_000)
        assert high.state is JobState.RUNNING
        victim = low[-1]  # youngest within the lowest priority
        assert victim.state is JobState.QUEUED
        assert victim.preemptions == 1
        preempts = [e for e in sched.events if e.kind == "preempt"]
        assert len(preempts) == 1
        assert "mode=kill" in preempts[0].info
        assert preempts[0].job == "low4"

    def test_equal_priority_never_preempts(self):
        system = booted()
        sched = system.enable_scheduler()
        low = self.fill(sched, 5, prio=1)
        system.run(until=system.engine.now + 300_000)
        peer = sched.submit(spec("peer", priority=1))
        system.run(until=system.engine.now + 300_000)
        assert peer.state is JobState.QUEUED
        assert all(j.state is JobState.RUNNING for j in low)

    def test_preemptible_victim_is_checkpointed(self):
        system = booted()
        sched = system.enable_scheduler()
        self.fill(sched, 4)
        stateful = sched.submit(
            spec("stateful", factory=lambda: CounterAccel("ctr")))
        system.run(until=system.engine.now + 500_000)
        assert stateful.state is JobState.RUNNING
        high = sched.submit(spec("high", priority=5))
        system.run(until=system.engine.now + 300_000)
        assert high.state is JobState.RUNNING
        assert stateful.state is JobState.QUEUED
        assert stateful.saved_state.get("count", 0) > 0
        preempted = [e for e in sched.events if e.kind == "preempt"][0]
        assert "mode=checkpoint" in preempted.info
        # when capacity frees, the checkpoint rides into the fresh load
        system.run_until(sched.finish(high))
        system.run(until=system.engine.now + 300_000)
        assert stateful.state is JobState.RUNNING
        restored = system.tiles[stateful.node].accelerator
        assert restored.count >= stateful.saved_state["count"]

    def test_preemptible_victim_migrates_to_smaller_slot(self):
        system = booted()
        # one slot only a CounterAccel-sized design fits
        small = CounterAccel.COST
        system.tiles[5].region.capacity = ResourceVector(
            logic_cells=small.logic_cells + 2_000,
            bram_kb=small.bram_kb + 16, dsp_slices=1)
        sched = system.enable_scheduler()
        self.fill(sched, 3)
        stateful = sched.submit(
            spec("stateful", factory=lambda: CounterAccel("ctr")))
        system.run(until=system.engine.now + 500_000)
        assert stateful.node == 4  # tiles 1,2,3 hold the low jobs
        big = sched.submit(
            spec("big", priority=5, factory=lambda: BigAccel("big")))
        system.run(until=system.engine.now + 2_000_000)
        # the stateful victim retreated to the shrunken slot it alone
        # fits, and the big job took the vacated full-size slot
        assert stateful.state is JobState.RUNNING
        assert stateful.node == 5
        assert big.state is JobState.RUNNING
        assert big.node == 4
        kinds = [e.kind for e in sched.events]
        assert "migrate" in kinds and "migrated" in kinds
        assert system.tiles[5].accelerator.count > 0


# -- fault rescheduling ---------------------------------------------------


def inject_fault(system, node, context="main"):
    tile = system.tiles[node]
    err = TileFault(f"injected on tile{node}")
    err.occurred_at = system.engine.now
    system.fault_manager.report(tile, context, err)


class TestFaultRescheduling:
    def test_fault_requeues_and_replaces(self):
        system = booted(policy=FaultPolicy.FAIL_STOP)
        sched = system.enable_scheduler()
        job = sched.submit(spec("worker"))
        system.run(until=system.engine.now + 200_000)
        assert job.state is JobState.RUNNING and job.node == 1
        fault_at = system.engine.now
        inject_fault(system, 1)
        system.run(until=fault_at + 300_000)
        # bounded recovery: one teardown + one reconfiguration
        assert job.state is JobState.RUNNING
        assert job.node != 1 or not system.tiles[1].failed
        assert job.faults == 1
        assert job.placements == 2
        kinds = [e.kind for e in sched.events]
        assert "fault_requeue" in kinds
        assert system.stats.counter("sched.fault_requeues").value == 1

    def test_job_abandoned_after_max_faults(self):
        system = booted(policy=FaultPolicy.FAIL_STOP)
        sched = system.enable_scheduler()
        job = sched.submit(spec("fragile"))
        system.run(until=system.engine.now + 200_000)
        for _ in range(MAX_FAULTS + 1):
            inject_fault(system, job.node)
            system.run(until=system.engine.now + 300_000)
        assert job.state is JobState.FAILED
        assert "abandon" in [e.kind for e in sched.events]


# -- determinism ----------------------------------------------------------


def _scripted_run():
    system = booted(policy=FaultPolicy.FAIL_STOP)
    sched = system.enable_scheduler()
    for i in range(5):
        sched.submit(spec(f"j{i}", priority=i % 2))
    system.run(until=system.engine.now + 250_000)
    inject_fault(system, 3)
    system.run(until=system.engine.now + 400_000)
    sched.submit(spec("late", priority=3))
    system.run(until=system.engine.now + 400_000)
    return sched.event_log()


class TestDeterminism:
    def test_event_log_is_byte_identical_across_runs(self):
        first = json.dumps(_scripted_run())
        second = json.dumps(_scripted_run())
        assert first == second


# -- scheduler observability ----------------------------------------------


class TestSchedulerObservability:
    def test_place_span_parents_the_mgmt_load(self):
        system = booted()
        system.enable_tracing()
        sched = system.enable_scheduler()
        job = sched.submit(spec("traced"))
        system.run(until=system.engine.now + 200_000)
        assert job.state is JobState.RUNNING
        index = system.span_index()
        roots = {t: index.root(t).name for t in index.trace_ids()}
        place = [t for t, name in roots.items()
                 if name == "sched.place:traced"]
        assert len(place) == 1
        tree = index.tree(place[0])
        children = [c.record.name for c in tree.children]
        assert any(name.startswith("mgmt.load:") for name in children)

    def test_queue_gauges_and_wait_histogram(self):
        system = booted()
        sched = system.enable_scheduler()
        jobs = [sched.submit(spec(f"j{i}")) for i in range(6)]
        system.run(until=system.engine.now + 400_000)
        assert system.stats.gauge("sched.queue_depth").value == 1
        waits = system.stats.sketch("sched.queue_wait")
        assert waits.count == 5  # one sample per started job
        system.run_until(sched.finish(jobs[0]))
        system.run(until=system.engine.now + 200_000)
        assert system.stats.gauge("sched.queue_depth").value == 0


# -- region gauges (satellite: reconfiguration observability) -------------


class TestRegionGauges:
    def test_load_teardown_populate_busy_and_reconfig_stats(self):
        system = booted()
        system.run_until(system.start_app(2, EchoAccel("e")))
        system.run_until(system.mgmt.teardown(2))
        region = system.tiles[2].region
        assert region.reconfig_count == 2  # load + unload
        assert region.busy_cycles_total > 0
        assert system.stats.counter("region.slot2.reconfigs").value == 2
        assert system.stats.gauge("region.slot2.busy_cycles").value == \
            float(region.busy_cycles_total)

    def test_region_stats_visible_in_telemetry(self):
        system = booted()
        system.run_until(system.start_app(2, EchoAccel("e")))
        snap = system.mgmt.telemetry()[2]
        assert snap["region_occupied"] == 1.0
        assert snap["region_reconfigs"] == 1.0
        assert snap["region_busy_cycles"] > 0.0


# -- autoscaler -----------------------------------------------------------


def small_cluster():
    cluster = Cluster(ClusterConfig(swallow_orphan_errors=True))
    cluster.boot()
    started = cluster.deploy_stateless(
        "kv", lambda: (lambda body: (1_000, {"ok": True}, 32)), instances=1)
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=50_000_000)
    cluster.start_frontend()
    return cluster


class TestAutoscalerConfig:
    def test_bad_replica_bounds_rejected(self):
        cluster = small_cluster()
        with pytest.raises(ConfigError):
            cluster.start_autoscaler("kv", min_replicas=0)
        with pytest.raises(ConfigError):
            cluster.start_autoscaler("kv", min_replicas=3, max_replicas=2)

    def test_sharded_service_refused(self):
        cluster = small_cluster()
        started = cluster.deploy_sharded(
            "counters", lambda shard: (lambda body: (500, {"n": 0}, 16)),
            n_shards=2, replication=1)
        cluster.engine.run_until_done(cluster.engine.all_of(started),
                                      limit=50_000_000)
        with pytest.raises(ConfigError):
            cluster.start_autoscaler("counters")

    def test_unknown_service_refused(self):
        cluster = small_cluster()
        with pytest.raises(Exception):
            cluster.start_autoscaler("nope")


def _window_opens(scenario, tenant):
    """Absolute cycle a one-window tenant's traffic starts."""
    return (scenario.start_at
            + scenario.tenant(tenant).arrival.envelopes[0].start)


class TestAutoscalerRuns:
    """The S2 library scenarios (the benchmark's tables live in
    benchmarks/test_bench_autoscale.py)."""

    def test_load_step_scales_up_then_back_down(self):
        scenario = get_scenario("autoscale_step")
        report = ScenarioRunner(scenario).run()
        scaler = report.data["autoscale"]["services"]["echo"]
        events = scaler["events"]
        assert report.data["totals"]["failed"] == 0
        assert max(e[3] for e in events) > 1     # reacted to the step
        assert scaler["final_replicas"] == 1     # retreated after it
        # converged: the scale-up serves before the converged window
        # opens, and that window's tail is within 2x of the pre-step one
        assert max(e[0] for e in events if e[1] == "up_ready") \
            < _window_opens(scenario, "converged")
        pre, converged = (report.tenants[t] for t in ("pre", "converged"))
        assert converged["served"] > 0
        assert converged["latency_p99"] <= 2 * pre["latency_p99"]
        actions = [e[1] for e in events]
        assert "scale_up" in actions and "down_done" in actions

    def test_reduced_run_is_deterministic(self):
        """The step cut short while its replicas still load."""
        scenario = replace(get_scenario("autoscale_step", seed=4),
                           duration=600_000, drain=200_000)
        first, second = (ScenarioRunner(scenario).run() for _ in range(2))
        assert first.to_json() == second.to_json()
        assert "scale_up" in [e[1] for e in
                              first.data["autoscale"]["services"]["echo"]
                              ["events"]]

    def test_chaos_kill_is_repaired_without_an_operator(self):
        scenario = get_scenario("autoscale_chaos")
        report = ScenarioRunner(scenario).run()
        scaler = report.data["autoscale"]["services"]["echo"]
        assert scaler["replacements"] == 1
        assert scaler["final_replicas"] == 2
        # the replacement landed on the surviving board and served before
        # the post-recovery window opened; every request in it succeeded
        (ready,) = [e for e in scaler["events"] if e[1] == "up_ready"]
        assert scaler["placement"][ready[2]] == 1
        assert ready[0] < _window_opens(scenario, "recovered")
        recovered = report.tenants["recovered"]
        assert recovered["offered"] > 0
        assert recovered["served"] == recovered["offered"]

    def test_a_fault_on_a_replica_still_loading_is_not_replaced(self):
        """The floor buys a second replica; its tile drains mid-load.  The
        load's completion brings the tile back, so the replica serves and
        nothing is replaced — replacing a replacement would loop."""
        cluster = small_cluster()
        scaler = cluster.start_autoscaler("kv", min_replicas=2)
        cluster.run(until=cluster.engine.now + INTERVAL + 1)
        loading = scaler.spec.instance("kv#1")
        assert loading is not None and not loading.ready
        system = cluster.systems[loading.fpga]
        system.fault_manager.report(system.tiles[loading.node], "main",
                                    TileFault("drained mid-load"))
        while not loading.ready:
            cluster.run(until=cluster.engine.now + INTERVAL)
        cluster.run(until=cluster.engine.now + 3 * INTERVAL)
        assert scaler.ready_instances() == scaler.spec.instances
        assert scaler.replacements == 0
        assert [e[1] for e in scaler.events] == ["scale_up", "up_ready"]

    def test_slo_burn_forces_scale_up_without_queue_signal(self):
        """Admission rejects burn error budget but never enter a queue —
        only the SLO fast-burn signal can see them.  A firing engine must
        buy a replica even though the queue signal is idle."""
        from repro.obs.slo import SLOEngine, SLOTarget

        cluster = small_cluster()
        slo = SLOEngine()
        slo.add_target(SLOTarget("avail", "kv", objective=0.99))
        scaler = cluster.start_autoscaler("kv", max_replicas=3, slo=slo)
        # fabricate a burning fast window ending at the scaler's next tick
        now = cluster.engine.now
        for _ in range(20):
            slo.observe("kv", None, False, now + INTERVAL - 1)
        assert slo.firing("kv", now + INTERVAL)
        cluster.run(until=now + 2 * INTERVAL)
        ups = [e for e in scaler.events if e[1] == "scale_up"]
        assert ups and ups[0][4] == "slo_burn"

    def test_no_slo_keeps_decision_log_unchanged(self):
        """slo=None (the default) must not perturb the S2 decision path."""
        cluster = small_cluster()
        scaler = cluster.start_autoscaler("kv")
        assert scaler.slo is None
        cluster.run(until=cluster.engine.now + 3 * INTERVAL)
        assert [e[1] for e in scaler.events
                if e[1] == "scale_up"] == []  # idle queue: no decisions
