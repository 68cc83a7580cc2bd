"""Scale-out serving: multi-FPGA clusters of Apiary systems.

The paper treats one directly-attached FPGA as a network citizen; this
package composes N of them into a serving cluster — a shared fabric, a
:class:`ServiceDirectory` placing sharded/replicated service instances,
and a health-aware :class:`FrontEnd` that load-balances, batches,
admission-controls, and fails shards over to surviving replicas when a
board dies.
"""

from repro.cluster.bitcache import (
    DEFAULT_CACHE_CELLS,
    BitstreamPlane,
    BoardBitstreamStore,
)
from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig, ObsConfig
from repro.cluster.directory import (
    HashRing,
    ServiceDirectory,
    ServiceInstance,
    ServiceSpec,
)
from repro.cluster.frontend import BackendHealth, FrontEnd
from repro.cluster.service import ClusterPortedService

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ObsConfig",
    "CacheConfig",
    "BitstreamPlane",
    "BoardBitstreamStore",
    "DEFAULT_CACHE_CELLS",
    "ServiceDirectory",
    "ServiceInstance",
    "ServiceSpec",
    "HashRing",
    "FrontEnd",
    "BackendHealth",
    "ClusterPortedService",
]
