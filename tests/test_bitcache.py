"""Bitstream compile-and-cache pipeline tests (repro.hw.compile +
repro.cluster.bitcache).

Covers the whole artifact lifecycle: content addressing (replicas of one
design family share a digest), the deterministic synthesis worker
(FIFO, in-flight coalescing, DRC once per artifact), the per-board LRU
store (hit/miss/eviction/overlay reuse/prefetch accuracy), the
artifact-aware management-plane load path (tile reservation, artifact
handles, legacy byte-path), cluster warm placement, the autoscaler's
predictive prefetch hook, the board-kill-mid-synthesis chaos run, and
the cache arm of the PDES sequential ≡ parallel identity contract.
"""

import json
from dataclasses import replace

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.cluster.bitcache import (
    DEFAULT_CACHE_CELLS,
    BitstreamPlane,
    BoardBitstreamStore,
)
from repro.cluster.config import CacheConfig, ClusterConfig, ObsConfig
from repro.errors import BitstreamRejected, ConfigError
from repro.hw.bitstream import Bitstream, DesignRuleChecker
from repro.hw.compile import (
    SYNTH_CYCLES_PER_BRAM_KB,
    SYNTH_CYCLES_PER_CELL,
    SYNTH_CYCLES_PER_DSP,
    BitstreamArtifact,
    CompileService,
    artifact_digest,
    synthesis_duration,
)
from repro.hw.region import reconfig_duration
from repro.hw.resources import ResourceVector
from repro.kernel import ApiarySystem, MemConfig, NocConfig, SystemConfig
from repro.loadgen import ScenarioRunner
from repro.sched.autoscaler import INTERVAL
from repro.sim import Engine


def design(name="a", family=None, cells=10_000, bram=16, dsp=2,
           signed_by=None):
    return Bitstream.build(
        name, ResourceVector(cells, bram, dsp),
        primitives={"lut_logic": 8_000}, signed_by=signed_by,
        family=family)


def _kv_factory():
    return lambda body: (1_000, {"ok": True}, 32)


# -- content addressing ----------------------------------------------------


class TestArtifactDigest:
    def test_replicas_of_one_family_share_a_digest(self):
        a = design("kv#0", family="kv-shell")
        b = design("kv#1", family="kv-shell")
        assert a.name != b.name
        assert artifact_digest(a) == artifact_digest(b)

    def test_family_defaults_to_instance_name(self):
        assert artifact_digest(design("x")) != artifact_digest(design("y"))

    def test_design_visible_properties_change_the_digest(self):
        base = design(family="f")
        assert artifact_digest(design(family="f", cells=20_000)) != \
            artifact_digest(base)
        assert artifact_digest(design(family="f", signed_by="vendor")) != \
            artifact_digest(base)

    def test_accelerator_family_bitstream_matches_instances(self):
        # what the prefetch plane compiles is exactly what any replica's
        # own packaged bitstream will hit in the cache
        inst = EchoAccel("echo#7").bitstream()
        family = EchoAccel.family_bitstream()
        assert artifact_digest(inst) == artifact_digest(family)


class TestSynthesisDuration:
    def test_exact_cost_model(self):
        cost = ResourceVector(60_000, 512, 8)
        assert synthesis_duration(cost) == (
            60_000 * SYNTH_CYCLES_PER_CELL
            + 512 * SYNTH_CYCLES_PER_BRAM_KB
            + 8 * SYNTH_CYCLES_PER_DSP)

    def test_cycles_per_cell_rescales_proportionally(self):
        cost = ResourceVector(60_000, 512, 8)
        base = synthesis_duration(cost)
        assert synthesis_duration(cost, cycles_per_cell=128) == 2 * base
        assert synthesis_duration(cost, cycles_per_cell=8) == base // 8

    def test_synthesis_dwarfs_reconfiguration(self):
        # the gap the cache exists to close: one compile is several times
        # one partial-reconfiguration write
        cost = ResourceVector(60_000, 512, 8)
        assert synthesis_duration(cost) > 4 * reconfig_duration(cost)


# -- the synthesis worker --------------------------------------------------


class TestCompileService:
    def service(self, **kwargs):
        eng = Engine()
        return eng, CompileService(eng, drc=DesignRuleChecker(), **kwargs)

    def test_compile_produces_a_clean_artifact_at_cost(self):
        eng, svc = self.service()
        bs = design()
        start = eng.now
        done = svc.compile(bs)
        eng.run_until_done(done)
        art = done.value
        assert isinstance(art, BitstreamArtifact)
        assert art.digest == artifact_digest(bs)
        assert art.drc_clean
        assert art.synth_cycles == synthesis_duration(bs.cost)
        assert eng.now - start == synthesis_duration(bs.cost)

    def test_same_digest_coalesces_onto_one_build(self):
        eng, svc = self.service()
        first = svc.compile(design("kv#0", family="kv"))
        second = svc.compile(design("kv#1", family="kv"))
        assert second is first
        eng.run_until_done(first)
        assert svc.compiles_started == 1
        assert svc.compiles_coalesced == 1
        assert svc.compiles_completed == 1

    def test_fifo_queue_serializes_distinct_designs(self):
        eng, svc = self.service()
        finished = {}
        for name in ("a", "b"):
            svc.compile(design(name)).add_callback(
                lambda ev, n=name: finished.setdefault(n, eng.now))
        assert svc.backlog == 2
        eng.run()
        assert svc.backlog == 0
        da = synthesis_duration(design("a").cost)
        assert finished["a"] == da
        assert finished["b"] == da + synthesis_duration(design("b").cost)

    def test_drc_screens_once_at_submission(self):
        eng, svc = self.service()
        evil = Bitstream.build("virus", ResourceVector(1_000),
                               primitives={"ring_oscillator": 4})
        done = svc.compile(evil)
        assert done.failed
        assert isinstance(done.value, BitstreamRejected)
        assert svc.compiles_rejected == 1
        assert svc.compiles_started == 0  # never entered the queue

    def test_bad_cost_knob_rejected(self):
        with pytest.raises(ConfigError):
            CompileService(Engine(), cycles_per_cell=0)


# -- the per-board store ---------------------------------------------------


class TestBoardBitstreamStore:
    def store(self, capacity_cells=DEFAULT_CACHE_CELLS):
        eng = Engine()
        return eng, BoardBitstreamStore(
            eng, drc=DesignRuleChecker(), capacity_cells=capacity_cells)

    def test_miss_pays_synthesis_then_hit_is_free(self):
        eng, store = self.store()
        cold = store.acquire(design("kv#0", family="kv"))
        eng.run_until_done(cold)
        assert eng.now == synthesis_duration(design().cost)
        before = eng.now
        warm = store.acquire(design("kv#1", family="kv"))  # overlay reuse
        eng.run()
        assert warm.value is cold.value  # literally the same artifact
        assert eng.now == before  # a hit costs zero cycles
        assert (store.hits, store.misses) == (1, 1)
        assert store.compiler.compiles_started == 1
        assert store.hit_rate() == 0.5

    def test_lru_eviction_bounded_in_cells(self):
        eng, store = self.store(capacity_cells=25_000)
        for fam in ("a", "b"):
            eng.run_until_done(store.acquire(design(fam, family=fam)))
        assert store.cached_cells() == 20_000
        eng.run_until_done(store.acquire(design("c", family="c")))
        assert store.evictions == 1
        assert not store.warm(design(family="a"))  # oldest fell out
        assert store.warm(design(family="b"))
        assert store.warm(design(family="c"))
        # re-acquiring the victim is a fresh synthesis run
        before = eng.now
        eng.run_until_done(store.acquire(design(family="a")))
        assert eng.now - before == synthesis_duration(design().cost)

    def test_hits_refresh_lru_order(self):
        eng, store = self.store(capacity_cells=25_000)
        for fam in ("a", "b"):
            eng.run_until_done(store.acquire(design(fam, family=fam)))
        eng.run_until_done(store.acquire(design(family="a")))  # touch a
        eng.run_until_done(store.acquire(design("c", family="c")))
        assert store.warm(design(family="a"))
        assert not store.warm(design(family="b"))  # b became the LRU

    def test_eviction_never_empties_the_cache(self):
        eng, store = self.store(capacity_cells=5_000)
        eng.run_until_done(store.acquire(design(cells=10_000)))
        assert len(store._entries) == 1  # oversize resident stays usable

    def test_prefetch_then_use_scores_accuracy(self):
        eng, store = self.store()
        done = store.prefetch(design(family="kv"))
        eng.run_until_done(done)
        assert store.prefetches_issued == 1
        assert store.prefetches_completed == 1
        assert store.prefetch_accuracy() == 0.0  # warmed, not yet used
        eng.run_until_done(store.acquire(design("kv#0", family="kv")))
        assert store.hits == 1
        assert store.prefetches_used == 1
        assert store.prefetch_accuracy() == 1.0

    def test_unused_prefetch_drags_accuracy_down(self):
        eng, store = self.store()
        eng.run_until_done(store.prefetch(design(family="used")))
        eng.run_until_done(store.prefetch(design(family="wasted")))
        eng.run_until_done(store.acquire(design(family="used")))
        assert store.prefetch_accuracy() == 0.5

    def test_redundant_prefetch_of_warm_design_is_free(self):
        eng, store = self.store()
        eng.run_until_done(store.acquire(design(family="kv")))
        done = store.prefetch(design(family="kv"))
        eng.run()
        assert done.value is None
        assert store.prefetches_issued == 0

    def test_acquire_coalesces_with_inflight_prefetch(self):
        eng, store = self.store()
        store.prefetch(design(family="kv"))
        got = store.acquire(design("kv#0", family="kv"))
        eng.run_until_done(got)
        assert store.compiler.compiles_started == 1
        assert store.compiler.compiles_coalesced == 1
        # the load raced the prefetch and won the insert: the entry was
        # never "prefetched and waiting", so accuracy does not credit it
        assert store.prefetches_used == 0

    def test_telemetry_carries_the_three_gauges(self):
        eng, store = self.store()
        eng.run_until_done(store.acquire(design(family="kv")))
        snap = store.telemetry()
        for key in ("hit_rate", "prefetch_accuracy", "synth_backlog"):
            assert key in snap
        assert snap["synth_backlog"] == 0.0
        assert snap["cached_artifacts"] == 1.0

    def test_counters_mirrored_into_stats_registry(self):
        from repro.sim import StatsRegistry
        eng = Engine()
        stats = StatsRegistry()
        store = BoardBitstreamStore(eng, drc=DesignRuleChecker(),
                                    stats=stats, board="fpga3")
        eng.run_until_done(store.acquire(design(family="kv")))
        eng.run_until_done(store.acquire(design(family="kv")))
        assert stats.counter("bitcache.misses").value == 1
        assert stats.counter("bitcache.hits").value == 1
        assert stats.counter("synth.fpga3.completed").value == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            BoardBitstreamStore(Engine(), capacity_cells=0)


# -- the management-plane load path ----------------------------------------


class TestMgmtArtifactPath:
    def system(self, cache=True):
        system = ApiarySystem(
            SystemConfig(noc=NocConfig(width=3, height=2),
                         mem=MemConfig(enabled=False)),
            drc=DesignRuleChecker())
        if cache:
            system.enable_bitstream_cache()
        return system

    def elapsed(self, system, done):
        start = system.engine.now
        system.engine.run_until_done(done)
        return system.engine.now - start

    def test_cold_load_pays_synthesis_plus_reconfig(self):
        system = self.system()
        took = self.elapsed(system, system.mgmt.load(1, EchoAccel("e1")))
        assert took == (synthesis_duration(EchoAccel.COST)
                        + reconfig_duration(EchoAccel.COST))
        assert system.tiles[1].occupied

    def test_warm_load_pays_reconfiguration_only(self):
        system = self.system()
        system.engine.run_until_done(system.mgmt.load(1, EchoAccel("e1")))
        took = self.elapsed(system, system.mgmt.load(2, EchoAccel("e2")))
        assert took == reconfig_duration(EchoAccel.COST)
        assert system.bitstore.hits == 1

    def test_tile_reserved_while_bitstream_is_in_synthesis(self):
        system = self.system()
        started = system.mgmt.load(1, EchoAccel("e1"))
        system.engine.run(until=system.engine.now + 10_000)  # mid-compile
        assert system.tiles[1].reserved
        assert 1 not in system.mgmt.free_tiles()
        system.engine.run_until_done(started)
        assert not system.tiles[1].reserved

    def test_artifact_handle_bypasses_the_store(self):
        system = self.system()
        system.engine.run_until_done(system.mgmt.load(1, EchoAccel("e1")))
        art = system.bitstore.acquire(EchoAccel.family_bitstream()).value
        hits_before = system.bitstore.hits
        took = self.elapsed(
            system, system.mgmt.load(2, EchoAccel("e2"), artifact=art))
        assert took == reconfig_duration(EchoAccel.COST)
        assert system.bitstore.hits == hits_before  # handle, not lookup

    def test_artifact_with_signed_by_is_rejected(self):
        system = self.system()
        art = system.bitstore.acquire(EchoAccel.family_bitstream())
        system.engine.run_until_done(art)
        with pytest.raises(ConfigError, match="carries its own signer"):
            system.mgmt.load(2, EchoAccel("e2"), signed_by="vendor",
                             artifact=art.value)
        assert 2 in system.mgmt.free_tiles()  # refused before any wiring

    def test_legacy_path_without_store_is_unchanged(self):
        system = self.system(cache=False)
        assert system.bitstore is None
        took = self.elapsed(system, system.mgmt.load(1, EchoAccel("e1")))
        assert took == reconfig_duration(EchoAccel.COST)
        assert "bitcache_hit_rate" not in system.mgmt.telemetry()[1]

    def test_telemetry_gains_cache_gauges_with_a_store(self):
        system = self.system()
        system.engine.run_until_done(system.mgmt.load(1, EchoAccel("e1")))
        snap = system.mgmt.telemetry()[1]
        assert snap["bitcache_hit_rate"] == 0.0  # one miss so far
        assert snap["bitcache_prefetch_accuracy"] == 0.0
        assert snap["bitcache_synth_backlog"] == 0.0

    def test_drc_rejection_frees_the_reserved_tile(self):
        class Virus(Accelerator):
            COST = ResourceVector(1_000, 1, 0)
            PRIMITIVES = {"ring_oscillator": 4}

        system = self.system()
        started = system.mgmt.load(1, Virus("v"))
        with pytest.raises(BitstreamRejected):
            system.engine.run_until_done(started)
        assert not system.tiles[1].reserved
        assert 1 in system.mgmt.free_tiles()

    def test_cache_cannot_be_enabled_twice(self):
        system = self.system()
        with pytest.raises(ConfigError):
            system.enable_bitstream_cache()


# -- cluster plane: warm placement + prefetch ------------------------------


class TestClusterWarmPlacement:
    def deployed(self, cache=True, **cache_kwargs):
        cluster = _cluster(cache=cache, **cache_kwargs)
        started = cluster.deploy_stateless("kv", _kv_factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        return cluster

    def test_add_instance_prefers_the_warm_board(self):
        cluster = self.deployed()
        inst, started = cluster.directory.add_instance("kv")
        assert inst.fpga == 0  # round-robin said 1; warm placement said 0
        cluster.run_until([started], limit=50_000_000)

    def test_round_robin_without_a_cache(self):
        cluster = self.deployed(cache=False)
        inst, _started = cluster.directory.add_instance("kv")
        assert inst.fpga == 1

    def test_warm_placement_can_be_disabled(self):
        cluster = self.deployed(warm_placement=False)
        inst, _started = cluster.directory.add_instance("kv")
        assert inst.fpga == 1

    def test_plane_prefetch_and_warm_queries(self):
        cluster = self.deployed()
        plane = cluster.bitplane
        assert isinstance(plane, BitstreamPlane)
        family = EchoAccel.family_bitstream()
        issued = plane.prefetch(family)
        assert sorted(issued) == [0, 1]
        cluster.run_until(list(issued.values()), limit=50_000_000)
        assert plane.warm_boards(family) == [0, 1]
        assert plane.prefetch(family) == {}  # everyone warm: no-op

    def test_prefetch_skips_killed_boards(self):
        cluster = self.deployed()
        cluster.kill_fpga(1)
        issued = cluster.bitplane.prefetch(EchoAccel.family_bitstream())
        assert sorted(issued) == [0]

    def test_prefetch_service_warms_every_cold_board(self):
        cluster = self.deployed()
        issued = cluster.bitplane.prefetch_service("kv")
        assert sorted(issued) == [1]  # fpga0 went warm at deploy
        cluster.run_until(list(issued.values()), limit=50_000_000)
        assert cluster.bitplane.warm_boards(_ported_family()) == [0, 1]

    def test_plane_telemetry_keyed_by_board(self):
        cluster = self.deployed()
        snap = cluster.bitplane.telemetry()
        assert sorted(snap) == ["fpga0", "fpga1"]
        assert snap["fpga0"]["misses"] >= 1.0


def _ported_family():
    from repro.cluster.service import ClusterPortedService
    return ClusterPortedService.family_bitstream()


def _cluster(cache=True, **cache_kwargs):
    from repro.cluster import CacheConfig, Cluster, ClusterConfig
    cluster = Cluster(ClusterConfig(
        swallow_orphan_errors=True,
        cache=CacheConfig(enabled=cache, **cache_kwargs)))
    cluster.boot()
    return cluster


# -- the autoscaler's predictive prefetch hook -----------------------------


class TestAutoscalerPrefetch:
    def test_slo_burn_warms_cold_boards_before_the_scale_up(self):
        from repro.obs.slo import SLOEngine, SLOTarget

        cluster = _cluster()
        started = cluster.deploy_stateless("kv", _kv_factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        slo = SLOEngine()
        slo.add_target(SLOTarget("avail", "kv", objective=0.99))
        scaler = cluster.start_autoscaler("kv", max_replicas=3, slo=slo)
        assert scaler.prefetch  # cache present: hook on by default
        now = cluster.engine.now
        for _ in range(20):
            slo.observe("kv", None, False, now + INTERVAL - 1)
        cluster.run(until=now + 2 * INTERVAL)
        actions = [e[1] for e in scaler.events]
        assert "prefetch" in actions
        # the prefetch fires in the same decision pass, before the buy
        assert actions.index("prefetch") < actions.index("scale_up")
        assert scaler.prefetches == 1
        assert cluster.bitplane.store(1).prefetches_issued == 1

    def test_prefetch_disabled_without_a_cache(self):
        cluster = _cluster(cache=False)
        started = cluster.deploy_stateless("kv", _kv_factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        scaler = cluster.start_autoscaler("kv")
        assert not scaler.prefetch  # no plane to drive


# -- chaos: board death mid-synthesis --------------------------------------


def _midsynth_chaos():
    """Kill a board while its replica's bitstream is still in synthesis."""
    cluster = _cluster()
    started = cluster.deploy_stateless("kv", _kv_factory, instances=2)
    # both boards are now compiling the kv design (megacycles); strike
    # long before either build completes
    cluster.run(until=cluster.engine.now + 100_000)
    assert cluster.bitplane.store(1).compiling(_ported_family())
    cluster.kill_fpga(1)
    # run far past every outstanding synthesis completion
    cluster.run(until=cluster.engine.now + 12_000_000)
    spec = cluster.directory.spec("kv")
    out = {
        "now": cluster.engine.now,
        "instances": sorted((i.iid, i.fpga, bool(i.ready))
                            for i in spec.instances),
        "cache": cluster.bitplane.telemetry(),
        "survivor_started": [e.triggered for e in started],
    }
    cluster.shutdown()
    return out


class TestMidSynthesisChaos:
    def test_kill_during_synthesis_does_not_wedge(self):
        out = _midsynth_chaos()
        ready = {fpga: ready for _iid, fpga, ready in out["instances"]}
        assert ready[0] is True  # the survivor finished compile + load
        assert ready.get(1, False) is False  # the dead board's never did
        assert out["cache"]["fpga0"]["synth_backlog"] == 0.0

    def test_chaos_run_is_byte_identical_on_rerun(self):
        first = json.dumps(_midsynth_chaos(), sort_keys=True)
        second = json.dumps(_midsynth_chaos(), sort_keys=True)
        assert first == second


# -- the PDES identity contract, cache arm ---------------------------------


CACHED = ClusterConfig(cache=CacheConfig(enabled=True),
                       obs=ObsConfig(tracing=True))


class TestPdesCacheIdentity:
    """Sequential ≡ parallel, byte for byte, with every load routed
    through the per-board compile pipeline and a mid-run board kill."""

    @pytest.fixture(scope="class")
    def run(self, kill_small):
        # traffic opens past the ~5.53M-cycle cold synthesis every first
        # load of a design family pays
        scenario = replace(kill_small, start_at=5_600_000)

        def run(backend):
            runner = ScenarioRunner(scenario, backend=backend, config=CACHED)
            report = runner.run()
            diag = runner.diagnostics
            return {"report": report.to_json(),
                    "spans": diag["spans"].dump(),
                    "stats": json.dumps(diag["stats"], sort_keys=True)}

        return run

    @pytest.fixture(scope="class")
    def sequential(self, run):
        return run("sequential")

    def test_cache_chaos_identical_across_backends(self, run, sequential):
        assert run("parallel") == sequential
        # the kill landed and the cache really was in the path
        report = json.loads(sequential["report"])
        assert report["chaos"] == [
            {"at": 50_000, "action": "kill", "board": 1}]
        assert report["totals"]["offered"] == report["totals"]["served"] > 0
        fpga0 = json.loads(sequential["stats"])["fpga0"]
        assert fpga0["counters"].get("bitcache.misses", 0) >= 1

    def test_cache_run_rerun_is_deterministic(self, run, sequential):
        assert run("sequential") == sequential
