"""Tests for the open-loop traffic & scenario engine.

Covers the arrival synthesis (envelope shapes, thinning, determinism),
the frozen Scenario spec (validation + dict round-trip), the FrontEnd's
non-blocking submit path (served / rejected / dropped are distinct
outcomes), multi-tenant SLO isolation, report byte-identity across
execution backends through a mid-run board kill, and the open-loop
acceptance probe (offered load exceeding served goodput).
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import echo_handler_factory
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.errors import ConfigError, SimulationError
from repro.loadgen import (
    SCENARIOS,
    ArrivalSpec,
    ChaosAction,
    EnvelopeSpec,
    Scenario,
    ScenarioReport,
    ScenarioRunner,
    ServiceDecl,
    TenantSpec,
    arrival_times,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.loadgen.library import scale_out
from repro.obs.slo import SLOEngine, SLOTarget
from repro.sim import RngPool


# ---------------------------------------------------------------------------
# arrivals


class TestEnvelopes:
    def test_diurnal_swings_low_to_high(self):
        env = EnvelopeSpec("diurnal", low=0.2, high=1.8, period=1000)
        assert env.factor_at(0, 10_000) == pytest.approx(0.2)
        assert env.factor_at(500, 10_000) == pytest.approx(1.8)
        assert env.factor_at(1000, 10_000) == pytest.approx(0.2)

    def test_ramp_holds_ends(self):
        env = EnvelopeSpec("ramp", low=0.5, high=1.5, start=100, end=300)
        assert env.factor_at(50, 1000) == 0.5
        assert env.factor_at(200, 1000) == pytest.approx(1.0)
        assert env.factor_at(900, 1000) == 1.5

    def test_spike_window(self):
        env = EnvelopeSpec("spike", low=1.0, high=4.0, start=100, end=200)
        assert env.factor_at(99, 1000) == 1.0
        assert env.factor_at(100, 1000) == 4.0
        assert env.factor_at(199, 1000) == 4.0
        assert env.factor_at(200, 1000) == 1.0

    def test_square_alternates(self):
        env = EnvelopeSpec("square", low=0.5, high=2.0, period=200)
        assert env.factor_at(0, 1000) == 0.5
        assert env.factor_at(100, 1000) == 2.0
        assert env.factor_at(250, 1000) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            EnvelopeSpec("sawtooth")
        with pytest.raises(ConfigError):
            EnvelopeSpec("spike", low=2.0, high=1.0)
        with pytest.raises(ConfigError):
            EnvelopeSpec("ramp", start=500, end=100)

    def test_peak_factor_multiplies(self):
        spec = ArrivalSpec("poisson", rate_per_kcycle=1.0, envelopes=(
            EnvelopeSpec("spike", low=1.0, high=3.0, start=0, end=10),
            EnvelopeSpec("square", low=0.5, high=2.0, period=100),
        ))
        assert spec.peak_factor() == pytest.approx(6.0)


class TestArrivalTimes:
    def test_deterministic_and_sorted(self):
        spec = ArrivalSpec("poisson", rate_per_kcycle=1.0)
        a = arrival_times(spec, 100_000, RngPool(seed=3))
        b = arrival_times(spec, 100_000, RngPool(seed=3))
        assert a == b
        assert a == sorted(a)
        assert a[0] >= 1 and a[-1] <= 100_000

    def test_empirical_rate(self):
        spec = ArrivalSpec("poisson", rate_per_kcycle=2.0)
        times = arrival_times(spec, 500_000, RngPool(seed=3))
        assert len(times) == pytest.approx(1000, rel=0.15)

    def test_trivial_envelope_is_identity(self):
        # a factor-1.0 envelope thins nothing: same times as unshaped
        base = ArrivalSpec("poisson", rate_per_kcycle=1.0)
        shaped = ArrivalSpec("poisson", rate_per_kcycle=1.0, envelopes=(
            EnvelopeSpec("spike", low=1.0, high=1.0, start=0, end=10),))
        assert arrival_times(base, 200_000, RngPool(seed=3)) == \
            arrival_times(shaped, 200_000, RngPool(seed=3))

    def test_spike_density(self):
        spec = ArrivalSpec("poisson", rate_per_kcycle=1.0, envelopes=(
            EnvelopeSpec("spike", low=1.0, high=5.0,
                         start=100_000, end=200_000),))
        times = arrival_times(spec, 400_000, RngPool(seed=3))
        inside = sum(1 for t in times if 100_000 <= t < 200_000)
        outside = len(times) - inside
        # 100k cycles at 5/kcycle vs 300k cycles at 1/kcycle
        assert inside / max(1, outside) == pytest.approx(5 / 3, rel=0.3)

    def test_heavy_tails_available(self):
        for process in ("lognormal", "pareto", "constant"):
            spec = ArrivalSpec(process, rate_per_kcycle=1.0)
            times = arrival_times(spec, 200_000, RngPool(seed=3))
            assert times, process


# ---------------------------------------------------------------------------
# scenario spec


def _tiny_scenario(**overrides):
    base = dict(
        name="tiny", seed=1, duration=100_000, n_fpgas=2,
        services=(ServiceDecl("kv", kind="kv", shards=2, replicas=2,
                              work_cycles=1_000),),
        tenants=(TenantSpec("a", "kv",
                            ArrivalSpec("poisson", rate_per_kcycle=0.5)),),
        slos=(SLOTarget("kv-avail", "kv", objective=0.9,
                        latency_cycles=80_000),),
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioSpec:
    def test_round_trip(self):
        scn = get_scenario("flash_crowd", seed=9)
        again = Scenario.from_dict(scn.to_dict())
        assert again == scn
        # and through actual JSON, as CI artifacts travel
        assert Scenario.from_dict(
            json.loads(json.dumps(scn.to_dict()))) == scn

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_library_scenario_builds_and_round_trips(self, name):
        scn = SCENARIOS[name]()
        assert Scenario.from_dict(scn.to_dict()) == scn

    def test_round_trip_preserves_envelopes(self):
        scn = get_scenario("diurnal_day")
        again = Scenario.from_dict(scn.to_dict())
        env = again.tenant("daily").arrival.envelopes[0]
        assert isinstance(env, EnvelopeSpec) and env.shape == "diurnal"

    def test_unknown_field_rejected(self):
        data = _tiny_scenario().to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            Scenario.from_dict(data)

    def test_requires_slos(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(slos=())

    def test_tenant_service_must_exist(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(tenants=(TenantSpec("a", "ghost"),))

    def test_slo_service_must_exist(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(slos=(SLOTarget("x", "ghost"),))

    def test_chaos_inside_window(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(chaos=(
                ChaosAction(at=100_000, action="kill", board=0),))

    def test_chaos_board_in_range(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(chaos=(
                ChaosAction(at=1_000, action="kill", board=7),))

    def test_heal_needs_partition(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(chaos=(
                ChaosAction(at=1_000, action="heal", board=0),))

    def test_replicas_fit_boards(self):
        with pytest.raises(ConfigError):
            _tiny_scenario(services=(
                ServiceDecl("kv", kind="kv", shards=2, replicas=3),))

    def test_library_names(self):
        assert scenario_names() == sorted(
            ["steady_state", "diurnal_day", "flash_crowd", "tenant_storm",
             "chaos_soak", "overload_probe", "scale_out", "board_kill"])
        with pytest.raises(ConfigError):
            get_scenario("nope")


# ---------------------------------------------------------------------------
# FrontEnd submit path


def _echo_cluster(work_cycles=1_000, instances=1, **fe_kwargs):
    cluster = Cluster(ClusterConfig(n_fpgas=1))
    cluster.boot()
    started = cluster.deploy_stateless(
        "echo", echo_handler_factory(work_cycles), instances=instances)
    cluster.run_until(started, limit=50_000_000)
    frontend = cluster.start_frontend(**fe_kwargs)
    return cluster, frontend


class TestSubmit:
    def test_submit_serves_with_callback(self):
        cluster, fe = _echo_cluster()
        done = []

        def burst():
            for i in range(5):
                fe.submit("echo", body={"x": i},
                          on_done=lambda r: done.append(r))
                yield 2_000

        cluster.engine.process(burst())
        cluster.run(until=cluster.now + 100_000)
        assert len(done) == 5
        assert all(r["ok"] for r in done)
        assert fe.requests_admitted == 5
        assert fe.requests_dropped == 0

    def test_backlog_overflow_drops(self):
        cluster, fe = _echo_cluster(max_pending=2, max_backlog=4)
        outcomes = {"accepted": 0, "dropped": 0}
        done = []

        def flood():
            for i in range(10):  # all in one cycle: no yields
                ok = fe.submit("echo", body={"x": i},
                               on_done=lambda r: done.append(r))
                outcomes["accepted" if ok else "dropped"] += 1
            yield 0

        cluster.engine.process(flood())
        cluster.run(until=cluster.now + 200_000)
        # backlog holds 4; the rest bounce without invoking on_done
        assert outcomes == {"accepted": 4, "dropped": 6}
        assert fe.requests_dropped == 6
        assert len(done) == 4 and all(r["ok"] for r in done)
        assert int(fe.stats.snapshot()["counters"]
                   ["frontend.requests_dropped"]) == 6

    def test_queue_deadline_rejects_are_not_drops(self):
        cluster, fe = _echo_cluster(work_cycles=10_000, max_pending=1,
                                    max_backlog=16, queue_deadline=0)
        done = []

        def flood():
            for i in range(3):
                fe.submit("echo", body={"x": i},
                          on_done=lambda r: done.append(r))
            yield 0

        cluster.engine.process(flood())
        cluster.run(until=cluster.now + 300_000)
        # first admitted with zero wait; the two queued behind it can
        # only be popped after a completion — past the 0-cycle deadline
        assert len(done) == 3
        served = [r for r in done if r.get("ok")]
        rejected = [r for r in done if r.get("rejected")]
        assert len(served) == 1 and len(rejected) == 2
        assert fe.requests_rejected == 2
        assert fe.requests_dropped == 0

    def test_telemetry_reports_backlog(self):
        cluster, fe = _echo_cluster()
        tel = fe.telemetry()
        assert tel["requests_dropped"] == 0
        assert tel["backlog_depth"] == 0
        assert fe.backlog_depth("echo") == 0


# ---------------------------------------------------------------------------
# SLO multi-tenant isolation


class TestSLOTenantIsolation:
    def test_concurrent_tenants_do_not_bleed(self):
        eng = SLOEngine()
        eng.add_target(SLOTarget("a-lat", "svc", objective=0.9,
                                 latency_cycles=100, tenant="a"))
        eng.add_target(SLOTarget("b-lat", "svc", objective=0.9,
                                 latency_cycles=100, tenant="b"))
        eng.add_target(SLOTarget("all", "svc", objective=0.9,
                                 latency_cycles=100))
        # interleaved at identical cycles: tenant a always misses the
        # bound, tenant b always makes it
        for i in range(200):
            now = i * 1_000
            eng.observe("svc", 500, True, now, tenant="a")
            eng.observe("svc", 50, True, now, tenant="b")
        rows = {r["name"]: r for r in eng.report(200_000)["targets"]}
        assert rows["a-lat"]["verdict"] == "fail"
        assert rows["a-lat"]["total"] == 200  # a's window: a's events only
        assert rows["a-lat"]["bad"] == 200
        assert rows["b-lat"]["verdict"] == "pass"
        assert rows["b-lat"]["total"] == 200
        assert rows["b-lat"]["bad"] == 0
        # the service-wide target sees both tenants
        assert rows["all"]["total"] == 400 and rows["all"]["bad"] == 200
        # latency sketches are per-target too
        assert rows["b-lat"]["latency_p99"] < 100 < \
            rows["a-lat"]["latency_p99"]

    def test_burn_alerts_name_the_tenant(self):
        eng = SLOEngine()
        eng.add_target(SLOTarget("a-lat", "svc", objective=0.99,
                                 latency_cycles=100, tenant="a"))
        eng.add_target(SLOTarget("b-lat", "svc", objective=0.99,
                                 latency_cycles=100, tenant="b"))
        for i in range(200):
            eng.observe("svc", 500, True, i * 1_000, tenant="a")
            eng.observe("svc", 50, True, i * 1_000, tenant="b")
        alerts = eng.alerts(200_000)
        assert alerts and all(al["target"][1] == "a" for al in alerts)


# ---------------------------------------------------------------------------
# runner: identity, open loop, reports


def _mini_chaos(seed=3):
    return Scenario(
        name="mini_chaos", seed=seed, duration=200_000, n_fpgas=2,
        services=(ServiceDecl("kv", kind="kv", shards=2, replicas=2,
                              work_cycles=1_000),),
        tenants=(
            TenantSpec("a", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.4)),
            TenantSpec("b", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.3),
                       read_fraction=0.5),
        ),
        # board 1 dies mid-run; replication leaves every shard a live
        # replica on board 0, so this is failover, not an outage
        chaos=(ChaosAction(at=80_000, action="kill", board=1),),
        slos=(SLOTarget("kv-avail", "kv", objective=0.9,
                        latency_cycles=80_000),),
    )


class TestScenarioRunner:
    def test_report_byte_identity_through_board_kill(self):
        scn = _mini_chaos()
        blobs = {}
        for backend in ("shared", "sequential", "parallel"):
            blobs[backend] = ScenarioRunner(
                scn, backend=backend).run().to_json()
        assert blobs["shared"] == blobs["sequential"] == blobs["parallel"]

    def test_chaos_timeline_recorded(self):
        rep = ScenarioRunner(_mini_chaos()).run()
        assert rep.chaos_timeline == [
            {"at": 80_000, "action": "kill", "board": 1}]
        assert rep.data["totals"]["unresolved"] == 0

    def test_open_loop_overload(self):
        # ~8x overload of a single echo instance: open-loop arrivals
        # keep firing, so offered must dwarf served, the bounded backlog
        # must drop, and the SLO must fail
        scn = Scenario(
            name="mini_overload", seed=2, duration=100_000, n_fpgas=1,
            services=(ServiceDecl("echo", kind="echo", instances=1,
                                  work_cycles=4_000),),
            tenants=(TenantSpec("firehose", "echo",
                                ArrivalSpec("poisson",
                                            rate_per_kcycle=2.0)),),
            slos=(SLOTarget("echo-avail", "echo", objective=0.99,
                            latency_cycles=40_000),),
            max_pending=8, max_backlog=16, queue_deadline=30_000,
            attempt_timeout=20_000, retry_deadline=60_000,
        )
        rep = ScenarioRunner(scn).run()
        row = rep.tenants["firehose"]
        assert row["offered"] > 2 * row["served"]
        assert row["dropped"] > 0
        assert row["rejected"] > 0
        assert not rep.passed
        # every submission resolved one way or another
        assert rep.data["totals"]["unresolved"] == 0

    def test_run_scenario_accepts_dict(self):
        rep = run_scenario(_mini_chaos().to_dict())
        assert isinstance(rep, ScenarioReport)
        assert rep.scenario_name == "mini_chaos"

    def test_report_round_trip_and_text(self):
        rep = ScenarioRunner(_mini_chaos()).run()
        again = ScenarioReport.from_json(rep.to_json())
        assert again == rep
        text = rep.text()
        assert "mini_chaos" in text
        assert ("PASS" in text) or ("FAIL" in text)
        assert rep.matches_expectation()  # no expectation declared

    def test_config_template_and_diagnostics(self):
        # the scenario owns shape, seed and backend whatever the
        # template says; the template contributes the features
        template = ClusterConfig(n_fpgas=5, backend="parallel",
                                 obs=ObsConfig(flight_recorders=True))
        runner = ScenarioRunner(_mini_chaos(), config=template)
        report = runner.run()
        built = runner.cluster.config
        assert (built.n_fpgas, built.backend) == (2, "shared")
        assert built.system.seed == 3 and built.swallow_orphan_errors
        assert built.obs.slo_targets == _mini_chaos().slos
        diag = runner.diagnostics
        assert sorted(diag) == ["flight", "slo", "spans", "stats"]
        assert len(diag["spans"]) == 0  # tracing was not asked for
        assert any(d["reason"].startswith("board-kill:")
                   for d in diag["flight"]["fpga1"]["dumps"])
        assert diag["slo"]["targets"] == report.slo_rows
        # beside the report, never inside it
        plain = ScenarioRunner(_mini_chaos())
        assert plain.run().to_json() == report.to_json()
        assert plain.diagnostics is None

    def test_failed_run_reaps_its_workers(self, monkeypatch):
        workers = []

        def boom(self, index):
            workers.extend(b._worker for b in self._backend.boards)
            raise SimulationError(f"board {index} would not die")

        monkeypatch.setattr(Cluster, "kill_fpga", boom)
        with pytest.raises(SimulationError, match="would not die"):
            ScenarioRunner(_mini_chaos(), backend="parallel").run()
        assert [w.name for w in workers] == ["pdes-board0", "pdes-board1"]
        assert not any(w.is_alive() for w in workers)

    def test_attempt_timeout_rule_is_executable(self):
        """Saturation with an attempt timeout below the worst-case wait
        in front of a backend reads as death: with the ``Scenario``
        default front-end fields one saturated board storms; with the
        library's (``max_pending`` sized to the instances) it does not."""
        library = scale_out(n_fpgas=1)
        defaults = replace(library, max_pending=64, max_backlog=256)
        assert 2 * 4_000 * defaults.max_pending / 2 > defaults.attempt_timeout
        assert 2 * 4_000 * library.max_pending / 2 <= library.attempt_timeout
        stormy = ScenarioRunner(defaults).run().data
        assert stormy["totals"]["failed"] > 0
        assert stormy["frontend"]["failovers"] > 1_000
        calm = ScenarioRunner(library).run().data
        assert calm["totals"]["failed"] == 0
        assert calm["frontend"]["failovers"] == 0
        assert calm["totals"]["unresolved"] == 0

    def test_start_at_must_clear_deploy(self):
        with pytest.raises(ConfigError):
            ScenarioRunner(_mini_chaos(seed=3).from_dict(
                {**_mini_chaos().to_dict(), "start_at": 10_000})).run()
