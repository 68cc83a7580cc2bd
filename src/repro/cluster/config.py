"""Typed configuration for a whole cluster (the scale-out analogue of
:class:`~repro.kernel.config.SystemConfig`).

One frozen, validated object declares everything a cluster is *built*
with — board count and per-board base config, execution backend, and the
build-time features (bitstream cache, recovery watchdogs, observability
plane, replication control plane)::

    cluster = Cluster(ClusterConfig(
        n_fpgas=4,
        recovery=RecoveryConfig(enabled=True),
        cache=CacheConfig(enabled=True),
        obs=ObsConfig(tracing=True),
    ))

The rule for where a parameter lives: what must exist before ``seal()``
is declared here and nowhere else; what attaches to a *running* cluster
(front-end, autoscaler, deploys) takes its parameters where it is
started.  :class:`~repro.cluster.cluster.Cluster` arms the declared
features at two fixed points — the bitstream cache at construction (every
load issued after ``Cluster(...)`` returns routes through it), everything
else when ``boot()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.errors import ConfigError
from repro.kernel.config import SystemConfig

__all__ = [
    "RecoveryConfig",
    "ObsConfig",
    "ReplicationConfig",
    "CacheConfig",
    "ClusterConfig",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Per-board intra-FPGA recovery watchdogs."""

    enabled: bool = False
    #: tile indices reserved as spares on every board
    spares: Tuple[int, ...] = ()
    heartbeat_interval: int = 5_000
    prefer_spare: bool = False
    max_restarts: int = 8

    def __post_init__(self):
        if self.heartbeat_interval < 1:
            raise ConfigError("heartbeat_interval must be >= 1")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")


@dataclass(frozen=True)
class ObsConfig:
    """Observability plane toggles (tracing / flight recorders / SLO)."""

    tracing: bool = False
    flight_recorders: bool = False
    flight_capacity: int = 256
    flight_dump_dir: Optional[str] = None
    slo: bool = False
    slo_bucket_cycles: int = 10_000
    #: SLOTarget objects registered at build (slo implied when non-empty)
    slo_targets: Tuple[Any, ...] = ()

    def __post_init__(self):
        if self.flight_capacity < 1:
            raise ConfigError("flight_capacity must be >= 1")
        if self.slo_bucket_cycles < 1:
            raise ConfigError("slo_bucket_cycles must be >= 1")

    @property
    def slo_enabled(self) -> bool:
        return self.slo or bool(self.slo_targets)


@dataclass(frozen=True)
class ReplicationConfig:
    """Chain-replication control plane (shared backend only)."""

    enabled: bool = False
    mac: str = "replic"
    rpc_timeout: int = 25_000
    snapshot_timeout: int = 120_000
    probe_interval: int = 20_000
    miss_limit: int = 3
    repair_settle: int = 2_000
    reconfig_timeout: int = 1_200_000

    def __post_init__(self):
        if self.probe_interval < 1:
            raise ConfigError("probe_interval must be >= 1")
        if self.miss_limit < 1:
            raise ConfigError("miss_limit must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """Per-board bitstream compile-and-cache pipeline."""

    enabled: bool = False
    #: LRU budget per board, in logic cells of cached artifacts
    capacity_cells: int = 256_000
    #: synthesis cost knob (scales the whole cost vector proportionally)
    synth_cycles_per_cell: int = 64
    #: let the autoscaler compile-ahead on scale-up early warning
    prefetch: bool = True
    #: let the directory prefer boards whose cache is already warm
    warm_placement: bool = True

    def __post_init__(self):
        if self.capacity_cells < 1:
            raise ConfigError("capacity_cells must be >= 1")
        if self.synth_cycles_per_cell < 1:
            raise ConfigError("synth_cycles_per_cell must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that shapes one cluster, in one validated object."""

    n_fpgas: int = 2
    #: per-board base config; each board derives its variant (unique MAC,
    #: shifted seed) from it
    system: SystemConfig = field(default_factory=SystemConfig.figure1)
    fabric_latency: int = 500
    backend: str = "shared"
    swallow_orphan_errors: bool = False
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    replication: ReplicationConfig = field(
        default_factory=ReplicationConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self):
        if self.n_fpgas < 1:
            raise ConfigError(f"need >= 1 FPGA, got {self.n_fpgas}")
        if self.fabric_latency < 0:
            raise ConfigError("fabric_latency must be >= 0")
