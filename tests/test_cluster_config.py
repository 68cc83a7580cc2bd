"""ClusterConfig tests: the one way to build a cluster.

``Cluster(ClusterConfig(...), *, engine, fabric)`` is the only
constructor; everything that must exist before ``seal()`` is declared in
the config and armed at one of two fixed points — the bitstream cache in
the constructor, everything else when ``boot()`` returns.  The contracts
under test: validation raises typed
:class:`~repro.errors.ConfigError`, the constructor signature is pinned
and a stray flat keyword is a ``TypeError``, each declared feature is
armed exactly where documented, ``Cluster`` has no post-construction
toggles, and ``start_autoscaler`` takes its parameters where it is
called.
"""

import dataclasses
import inspect
import re

import pytest

from repro.accel import EchoAccel
from repro.cluster import CacheConfig, Cluster, ClusterConfig, ObsConfig
from repro.errors import ConfigError
from repro.obs.slo import SLOTarget
from repro.replic import ReplicationManager


def _factory():
    return lambda body: (1_000, {"ok": True}, 32)


def _booted(config):
    cluster = Cluster(config)
    cluster.boot()
    return cluster


# -- validation ------------------------------------------------------------


class TestValidation:
    def test_cluster_bounds(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_fpgas=0)

    def test_configs_are_frozen(self):
        cfg = ClusterConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_fpgas = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cache.enabled = True


# -- the one constructor ---------------------------------------------------


class TestOneConstructor:
    def test_signature_is_config_plus_runtime_objects(self):
        params = inspect.signature(Cluster.__init__).parameters
        assert list(params) == ["self", "config", "engine", "fabric"]
        assert params["config"].default == ClusterConfig()
        for name in ("engine", "fabric"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    def test_defaults_match_a_bare_config(self):
        cluster = Cluster()
        assert cluster.config == ClusterConfig()
        assert cluster.n_fpgas == 2
        assert cluster.bitplane is None  # cache off by default

    @pytest.mark.parametrize("flat", [
        {"n_fpgas": 2}, {"backend": "sequential"}, {"fabric_latency": 250},
        {"recovery": True},
    ])
    def test_stray_flat_kwarg_is_a_type_error(self, flat):
        with pytest.raises(TypeError):
            Cluster(**flat)

    def test_config_fields_shape_the_cluster(self):
        cluster = Cluster(ClusterConfig(n_fpgas=3, backend="sequential"))
        assert cluster.n_fpgas == 3
        assert cluster.config.backend == "sequential"

    def test_no_post_construction_toggles(self):
        toggles = [name for name in dir(Cluster)
                   if re.fullmatch(r"enable_.*|start_replication", name)]
        assert toggles == []


# -- lifecycle: each feature is armed at its documented point --------------


def _cache_armed(cluster):
    return (cluster.bitplane is not None
            and all(s.bitstore is not None for s in cluster.systems))


def _recovery_armed(cluster):
    return all(s.recovery is not None for s in cluster.systems)


def _flight_armed(cluster):
    return all(s.flight is not None for s in cluster.systems)


def _slo_armed(cluster):
    return (cluster.slo is not None
            and [t.name for t in cluster.slo.targets_for("kv")] == ["avail"])


def _replication_armed(cluster):
    return isinstance(cluster.replication, ReplicationManager)


#: (sub-config, "is it armed?" probe, armed already by the constructor?)
LIFECYCLE = [
    (dict(cache=CacheConfig(enabled=True)), _cache_armed, True),
    (dict(recovery=True), _recovery_armed, False),
    (dict(obs=ObsConfig(tracing=True)),
     lambda c: c.spans.enabled and all(s.spans.enabled for s in c.systems),
     False),
    (dict(obs=ObsConfig(flight_recorders=True)), _flight_armed, False),
    (dict(obs=ObsConfig(slo_targets=(
        SLOTarget("avail", "kv", objective=0.99),))), _slo_armed, False),
    (dict(obs=ObsConfig(flight_recorders=True, flight_dump_dir="dumps")),
     lambda c: all(s.flight is not None and s.flight.dump_dir == "dumps"
                   for s in c.systems), False),
    (dict(replication=True), _replication_armed, False),
]


class TestLifecycle:
    @pytest.mark.parametrize("section,armed,at_construction", LIFECYCLE)
    def test_feature_is_armed_at_its_documented_point(
            self, section, armed, at_construction):
        cluster = Cluster(ClusterConfig(**section))
        assert armed(cluster) == at_construction
        cluster.boot()
        assert armed(cluster)

    @pytest.mark.parametrize("section,armed,at_construction", LIFECYCLE)
    def test_default_config_arms_nothing(self, section, armed,
                                         at_construction):
        assert not armed(_booted(ClusterConfig()))

    def test_cache_is_in_place_at_cycle_zero(self):
        cluster = Cluster(ClusterConfig(cache=CacheConfig(enabled=True)))
        assert cluster.now == 0 and _cache_armed(cluster)
        cluster.boot()
        # the OS services are loaded by the board constructors, directly;
        # every load issued after Cluster() returns goes through the store
        assert cluster.systems[0].bitstore.misses == 0
        started = cluster.deploy_stateless("kv", _factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        assert cluster.systems[0].bitstore.misses == 1

    def test_recovery_is_armed_exactly_when_boot_returns(self):
        """Arming subscribes each board's manager to its fault feed and
        adds nothing to the clock or the queue; an operator kill right
        after is heard there, and the idle board's engine then drains."""
        plain = _booted(ClusterConfig(n_fpgas=1))
        cluster = Cluster(ClusterConfig(n_fpgas=1, recovery=True))
        system = cluster.systems[0]
        assert system.recovery is None
        cluster.boot()
        manager = system.recovery
        assert manager._on_fault in system.fault_manager.on_fault
        engines = (plain.engine, cluster.engine)
        assert len({(e.now, e.process_count, e.pending_events())
                    for e in engines}) == 1
        cluster.run_until([manager.deploy(
            2, lambda: EchoAccel("svc", cost=20), endpoint="app.svc")])
        system.mgmt.fail_stop(2)
        cluster.engine.run()
        assert [(e.kind, e.to_node) for e in manager.recoveries] == [
            ("restart", 2)]
        assert cluster.engine.peek_next() is None

    def test_tracing_starts_when_boot_returns(self):
        cluster = _booted(ClusterConfig(obs=ObsConfig(tracing=True)))
        assert len(list(cluster.merged_spans())) == 0  # boot is untraced

    def test_cache_flags_reach_directory_and_autoscaler(self):
        cluster = Cluster(ClusterConfig(
            cache=CacheConfig(enabled=True, prefetch=False,
                              warm_placement=False)))
        assert not cluster.config.cache.warm_placement

    @pytest.mark.parametrize("backend", ["shared", "sequential"])
    def test_replication_is_armed_on_every_backend(self, backend):
        cluster = _booted(ClusterConfig(backend=backend, replication=True))
        assert cluster.replication is not None


class TestAutoscalerTakesItsParametersWhereStarted:
    def scaler(self, cache=CacheConfig(), **kwargs):
        cluster = _booted(ClusterConfig(cache=cache))
        started = cluster.deploy_stateless("kv", _factory, instances=1)
        cluster.run_until(started, limit=50_000_000)
        cluster.start_frontend()
        return cluster.start_autoscaler("kv", **kwargs)

    def test_sched_bounds(self):
        for bad in (dict(min_replicas=0),
                    dict(min_replicas=3, max_replicas=2)):
            with pytest.raises(ConfigError):
                self.scaler(**bad)

    def test_sched_config_supplies_the_defaults(self):
        scaler = self.scaler(max_replicas=3)
        assert scaler.max_replicas == 3

    def test_prefetch_off_without_a_cache(self):
        assert not self.scaler().prefetch

    def test_cache_config_turns_prefetch_on(self):
        assert self.scaler(cache=CacheConfig(enabled=True)).prefetch

    def test_cache_config_can_turn_prefetch_off(self):
        assert not self.scaler(
            cache=CacheConfig(enabled=True, prefetch=False)).prefetch
