"""Typed configuration for a whole cluster (the scale-out analogue of
:class:`~repro.kernel.config.SystemConfig`).

One frozen, validated object declares everything a cluster is *built*
with — board count and per-board base config, execution backend, and the
build-time features (bitstream cache, recovery watchdogs, observability
plane, replication control plane)::

    cluster = Cluster(ClusterConfig(
        n_fpgas=4,
        recovery=True,
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

__all__ = ["ObsConfig", "CacheConfig", "ClusterConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability plane toggles (tracing / flight recorders / SLO)."""

    tracing: bool = False
    flight_recorders: bool = False
    flight_dump_dir: Optional[str] = None
    #: SLOTarget objects registered at build; the SLO engine runs when
    #: there is at least one
    slo_targets: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class CacheConfig:
    """Per-board bitstream compile-and-cache pipeline."""

    enabled: bool = False
    #: let the autoscaler compile-ahead on scale-up early warning
    prefetch: bool = True
    #: let the directory prefer boards whose cache is already warm
    warm_placement: bool = True


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that shapes one cluster, in one validated object."""

    n_fpgas: int = 2
    #: per-board base config; each board derives its variant (unique MAC,
    #: shifted seed) from it
    system: SystemConfig = field(default_factory=SystemConfig.figure1)
    backend: str = "shared"
    swallow_orphan_errors: bool = False
    #: per-board intra-FPGA recovery watchdogs
    recovery: bool = False
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: chain-replication control plane
    replication: bool = False
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self):
        if self.n_fpgas < 1:
            raise ConfigError(f"need >= 1 FPGA, got {self.n_fpgas}")
