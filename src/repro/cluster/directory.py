"""ServiceDirectory: cluster-wide placement and naming of service instances.

Extends the kernel's :class:`~repro.kernel.naming.Namespace` — same
``bind/lookup/unbind/rebind`` verbs — but names resolve to ``(fpga,
node)`` placements instead of local tile numbers.  On top of the
namespace it owns the two placement policies the paper's scale-out story
needs (FOS and SYNERGY both argue this belongs in the OS layer, not in
each application):

* **stateless replication** (:meth:`deploy_stateless`) — N interchangeable
  instances spread round-robin across FPGAs; the front-end picks
  least-loaded;
* **consistent-hash sharding** (:meth:`deploy_sharded`) — keyed services
  such as ``kvstore`` are split into shards on a deterministic hash ring
  (CRC32, never Python's salted ``hash``), each shard replicated on
  ``replication`` distinct FPGAs so a dead board's shards fail over to
  surviving replicas.

Placement is deterministic: lowest free tile on the chosen FPGA, FPGAs
chosen round-robin — two identically-seeded cluster builds place
identically (the sharding-determinism test pins this).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.service import ClusterPortedService
from repro.errors import ConfigError
from repro.kernel.naming import Namespace
from repro.sim import Event

__all__ = ["HashRing", "ServiceInstance", "ServiceSpec", "ServiceDirectory"]


def _stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash (process- and run-independent)."""
    return zlib.crc32(str(value).encode())


class HashRing:
    """Consistent-hash ring mapping keys to shards.

    ``vnodes`` virtual points per shard smooth the key distribution; the
    ring is rebuilt only when the shard count changes (never at runtime
    here — resharding is out of scope, replicas handle failures).
    """

    def __init__(self, n_shards: int, vnodes: int = 64):
        if n_shards < 1:
            raise ConfigError(f"need >= 1 shard, got {n_shards}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points = []
        for shard in range(n_shards):
            for v in range(vnodes):
                points.append((_stable_hash(f"shard{shard}#v{v}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: Any) -> int:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        h = _stable_hash(key)
        i = bisect_right(self._points, h)
        if i == len(self._points):
            i = 0
        return self._shards[i]


@dataclass
class ServiceInstance:
    """One deployed copy of a service on one tile of one FPGA."""

    service: str
    fpga: int
    node: int
    port: int
    #: shard this instance serves (None for stateless services)
    shard: Optional[int] = None
    #: replica index within the shard (0 = primary) or instance index
    replica: int = 0
    #: True once the tile's partial reconfiguration finished and the
    #: service bound its port — only ready instances take traffic.
    #: Routing to a still-reconfiguring replica would strand requests on
    #: an unbound port (the board drops them, the client times out).
    ready: bool = False

    @property
    def iid(self) -> str:
        """Cluster-unique instance name (also its directory binding)."""
        if self.shard is None:
            return f"{self.service}#{self.replica}"
        return f"{self.service}/s{self.shard}r{self.replica}"

    @property
    def endpoint(self) -> str:
        """The on-FPGA logical endpoint name."""
        if self.shard is None:
            return f"app.{self.service}.{self.replica}"
        return f"app.{self.service}.s{self.shard}r{self.replica}"


@dataclass
class ServiceSpec:
    """Everything the front-end needs to route one service."""

    name: str
    sharded: bool
    instances: List[ServiceInstance] = field(default_factory=list)
    ring: Optional[HashRing] = None
    replication: int = 1
    #: sharded writes fan out to every replica of the shard, so a
    #: failover target has the data (set False for cache-like services)
    replicate_writes: bool = True
    #: next replica index to hand out (monotonic: replica ids are never
    #: reused, so scale-down + scale-up never aliases an old instance)
    next_replica: int = 0
    #: builds a fresh handler per instance; retained so the autoscaler
    #: can add replicas after the initial deploy (stateless services)
    handler_factory: Optional[Callable[[], Any]] = None
    #: True for chain-replicated services: shard replicas form an ordered
    #: chain (writes at the head, reads at the tail) instead of a
    #: best-effort fan-out set
    chained: bool = False
    #: shard -> member iids in chain order, head first (chained only)
    chains: Dict[int, List[str]] = field(default_factory=dict)
    #: shard -> configuration epoch; bumped on every repair, so members
    #: at an older epoch are fenced by their peers (chained only)
    epochs: Dict[int, int] = field(default_factory=dict)
    #: builds one shard's state machine (chained only; retained so chain
    #: repair can splice replacement replicas)
    machine_factory: Optional[Callable[[int], Any]] = None

    def candidates(self, key: Any = None) -> List[ServiceInstance]:
        """Routing candidates in preference order.

        Chained + key: the shard's chain, head first (the front-end sends
        writes to the head and reads to the tail).  Sharded + key: the
        shard's replicas, primary first.  Stateless (or keyless): every
        instance — the front-end picks least-loaded.
        """
        if self.chained and key is not None:
            shard = self.ring.shard_for(key)
            by_iid = {i.iid: i for i in self.instances}
            return [by_iid[iid] for iid in self.chains.get(shard, [])
                    if iid in by_iid and by_iid[iid].ready]
        if self.sharded and key is not None:
            shard = self.ring.shard_for(key)
            owners = [i for i in self.instances
                      if i.shard == shard and i.ready]
            return sorted(owners, key=lambda i: i.replica)
        return [i for i in self.instances if i.ready]


class ServiceDirectory(Namespace):
    """The cluster's service namespace + placement engine."""

    #: first port handed to deployed instances (one port per instance,
    #: unique per FPGA so svc.net demultiplexes cleanly)
    PORT_BASE = 7100

    def __init__(self, cluster):
        super().__init__()
        self.cluster = cluster
        self.services: Dict[str, ServiceSpec] = {}
        self._next_port = self.PORT_BASE
        self._next_fpga = 0  # round-robin placement cursor

    # -- placement ---------------------------------------------------------

    def deploy_stateless(
        self,
        service: str,
        handler_factory: Callable[[], Any],
        instances: int = 2,
        artifact=None,
    ) -> List[Event]:
        """Place ``instances`` interchangeable copies round-robin.

        ``handler_factory()`` builds a fresh handler per instance (state,
        if any, is per-instance).  ``artifact`` optionally supplies a
        pre-compiled :class:`~repro.hw.compile.BitstreamArtifact` for the
        service shell, skipping the cache/compile path entirely.  Returns
        the load-started events.
        """
        if service in self.services:
            raise ConfigError(f"service {service!r} already deployed")
        spec = ServiceSpec(name=service, sharded=False,
                           handler_factory=handler_factory)
        started = []
        for idx in range(instances):
            fpga = self._pick_fpga(
                ClusterPortedService.family_bitstream())
            inst = ServiceInstance(service=service, fpga=fpga, node=-1,
                                   port=self._alloc_port(), replica=idx)
            started.append(self._load(inst, handler_factory(),
                                      artifact=artifact))
            spec.instances.append(inst)
            self.bind(inst.iid, (inst.fpga, inst.node))
        spec.next_replica = instances
        self.services[service] = spec
        return started

    def add_instance(self, service: str, artifact=None):
        """Scale a stateless service out by one replica.

        Places the new instance exactly like :meth:`deploy_stateless`
        (round-robin FPGA, lowest free tile; with a bitstream cache
        enabled, boards whose cache is already warm for the service shell
        are preferred) and binds it; the caller (normally the autoscaler)
        re-tracks the front-end so the replica takes traffic once its
        reconfiguration completes.  Returns ``(instance,
        load_started_event)``.
        """
        spec = self.spec(service)
        if spec.sharded:
            raise ConfigError(
                f"{service!r} is sharded; resharding is out of scope — "
                "only stateless services scale by instance"
            )
        if spec.handler_factory is None:
            raise ConfigError(f"{service!r} kept no handler factory")
        fpga = self._pick_fpga(ClusterPortedService.family_bitstream())
        inst = ServiceInstance(service=service, fpga=fpga, node=-1,
                               port=self._alloc_port(),
                               replica=spec.next_replica)
        spec.next_replica += 1
        started = self._load(inst, spec.handler_factory(),
                             artifact=artifact)
        spec.instances.append(inst)
        self.bind(inst.iid, (inst.fpga, inst.node))
        return inst, started

    def remove_instance(self, service: str,
                        iid: Optional[str] = None) -> ServiceInstance:
        """Detach one stateless replica from routing (no teardown here).

        Removes the instance from the spec (so the front-end stops
        picking it) and unbinds its name.  The *tile* stays loaded — the
        caller drains in-flight work, retires front-end tracking, then
        calls ``mgmt.teardown`` itself; splitting it this way keeps the
        scale-down sequence graceful.  Defaults to the newest replica.
        """
        spec = self.spec(service)
        if spec.sharded:
            raise ConfigError(f"{service!r} is sharded; shards do not "
                              "scale down by instance")
        if not spec.instances:
            raise ConfigError(f"{service!r} has no instances left")
        if iid is None:
            inst = max(spec.instances, key=lambda i: i.replica)
        else:
            matches = [i for i in spec.instances if i.iid == iid]
            if not matches:
                raise ConfigError(f"no instance {iid!r} of {service!r}")
            inst = matches[0]
        spec.instances.remove(inst)
        self.unbind(inst.iid)
        system = self.cluster.systems[inst.fpga]
        if system.recovery is not None:
            system.recovery.forget(inst.endpoint)
        return inst

    def deploy_sharded(
        self,
        service: str,
        handler_factory: Callable[[int], Any],
        n_shards: int = 4,
        replication: int = 2,
        replicate_writes: bool = True,
        vnodes: int = 64,
    ) -> List[Event]:
        """Shard ``service`` across the cluster with replica failover.

        ``handler_factory(shard)`` builds a handler for one shard (each
        replica of a shard gets its own handler instance — writes are
        fanned out by the front-end to keep them aligned).  Shard ``s``'s
        replica ``r`` lands on FPGA ``(s + r) % n_fpgas``, so replicas of
        one shard always sit on distinct FPGAs (as long as
        ``replication <= n_fpgas``).
        """
        if service in self.services:
            raise ConfigError(f"service {service!r} already deployed")
        n_fpgas = len(self.cluster.systems)
        if replication < 1:
            raise ConfigError("replication must be >= 1")
        if replication > n_fpgas:
            raise ConfigError(
                f"replication {replication} exceeds cluster size {n_fpgas} "
                "(same-FPGA replicas share the failure domain)"
            )
        spec = ServiceSpec(name=service, sharded=True,
                           ring=HashRing(n_shards, vnodes=vnodes),
                           replication=replication,
                           replicate_writes=replicate_writes)
        started = []
        for shard in range(n_shards):
            for replica in range(replication):
                fpga = (shard + replica) % n_fpgas
                inst = ServiceInstance(service=service, fpga=fpga, node=-1,
                                       port=self._alloc_port(),
                                       shard=shard, replica=replica)
                started.append(self._load(inst, handler_factory(shard)))
                spec.instances.append(inst)
                self.bind(inst.iid, (inst.fpga, inst.node))
        self.services[service] = spec
        return started

    def deploy_chain(
        self,
        service: str,
        machine_factory: Callable[[int], Any],
        n_shards: int = 4,
        replication: int = 3,
        vnodes: int = 64,
        artifact=None,
    ) -> List[Event]:
        """Shard ``service`` into replication *chains* (zero-data-loss).

        ``machine_factory(shard)`` builds one shard's deterministic state
        machine; each replica runs its own copy inside a
        :class:`~repro.replic.chain.ChainNodeService`.  Placement matches
        :meth:`deploy_sharded` (replicas of one shard on distinct FPGAs).
        Chains start *unconfigured* (epoch 0, every request nacked) until
        a :class:`~repro.replic.manager.ReplicationManager` adopts the
        service and issues ``chain.cfg`` at epoch 1.
        """
        from repro.replic.chain import ChainNodeService

        if service in self.services:
            raise ConfigError(f"service {service!r} already deployed")
        n_fpgas = len(self.cluster.systems)
        if replication < 1:
            raise ConfigError("replication must be >= 1")
        if replication > n_fpgas:
            raise ConfigError(
                f"replication {replication} exceeds cluster size {n_fpgas} "
                "(same-FPGA replicas share the failure domain)"
            )
        spec = ServiceSpec(name=service, sharded=True, chained=True,
                           ring=HashRing(n_shards, vnodes=vnodes),
                           replication=replication,
                           replicate_writes=False,
                           machine_factory=machine_factory)
        started = []
        for shard in range(n_shards):
            spec.chains[shard] = []
            spec.epochs[shard] = 0
            for replica in range(replication):
                fpga = (shard + replica) % n_fpgas
                inst = ServiceInstance(service=service, fpga=fpga, node=-1,
                                       port=self._alloc_port(),
                                       shard=shard, replica=replica)
                node = ChainNodeService(inst.iid, inst.port,
                                        machine_factory(shard))
                started.append(self._load_chain(inst, node,
                                                artifact=artifact))
                spec.instances.append(inst)
                spec.chains[shard].append(inst.iid)
                self.bind(inst.iid, (inst.fpga, inst.node))
        spec.next_replica = replication
        self.services[service] = spec
        return started

    def add_chain_replica(self, service: str, shard: int,
                          exclude_fpgas=()) -> Tuple[ServiceInstance, Event]:
        """Place one fresh chain member for ``shard`` (repair splice).

        The board is the lowest-indexed FPGA outside ``exclude_fpgas``
        (callers pass dead, partitioned, and already-member boards) with a
        free tile.  The member is *loaded but not part of the chain* —
        the replication manager checkpoints it and flips the chain order
        once it has caught up.  Raises :class:`ConfigError` when no
        eligible board exists (the caller defers the replacement).
        """
        spec = self.spec(service)
        if not spec.chained:
            raise ConfigError(f"{service!r} is not chain-replicated")
        if spec.machine_factory is None:
            raise ConfigError(f"{service!r} kept no machine factory")
        from repro.replic.chain import ChainNodeService

        exclude = set(exclude_fpgas)
        fpga = None
        for i in range(len(self.cluster.systems)):
            if i in exclude:
                continue
            if self.cluster.systems[i].mgmt.free_tiles():
                fpga = i
                break
        if fpga is None:
            raise ConfigError(
                f"no eligible board for a new {service!r}/s{shard} replica"
            )
        inst = ServiceInstance(service=service, fpga=fpga, node=-1,
                               port=self._alloc_port(), shard=shard,
                               replica=spec.next_replica)
        spec.next_replica += 1
        node = ChainNodeService(inst.iid, inst.port,
                                spec.machine_factory(shard))
        started = self._load_chain(inst, node)
        spec.instances.append(inst)
        self.bind(inst.iid, (inst.fpga, inst.node))
        return inst, started

    def set_chain(self, service: str, shard: int, iids: List[str],
                  epoch: int) -> None:
        """Flip one shard's chain order + epoch (repair commit point).

        Called *last* in every reconfiguration, after the members hold
        the new epoch — so reads never route to a tail that has not yet
        caught up and writes never route to a demoted head.
        """
        spec = self.spec(service)
        if epoch < spec.epochs.get(shard, 0):
            raise ConfigError(
                f"chain epoch moved backwards for {service!r}/s{shard}: "
                f"{spec.epochs.get(shard)} -> {epoch}"
            )
        spec.chains[shard] = list(iids)
        spec.epochs[shard] = epoch

    def remove_chain_member(self, service: str, shard: int,
                            iid: str) -> None:
        """Forget a dead/fenced chain member entirely."""
        spec = self.spec(service)
        if shard in spec.chains and iid in spec.chains[shard]:
            spec.chains[shard].remove(iid)
        for inst in list(spec.instances):
            if inst.iid == iid:
                spec.instances.remove(inst)
                system = self.cluster.systems[inst.fpga]
                if system.recovery is not None:
                    system.recovery.forget(inst.endpoint)
        if iid in self:
            self.unbind(iid)

    def _load_chain(self, inst: ServiceInstance, node_service,
                    artifact=None) -> Event:
        """Place one chain member on the lowest free tile of its FPGA.

        Unlike :meth:`_load`, faults are *delegated*: restarting a chain
        member in place would resurrect a stale replica (the split-brain
        epochs exist to fence), so the recovery manager only frees the
        slot and the replication manager repairs the chain.
        """
        system = self.cluster.systems[inst.fpga]
        free = system.mgmt.free_tiles()
        if not free:
            raise ConfigError(
                f"FPGA {inst.fpga} has no free tile for {inst.iid}"
            )
        inst.node = free[0]
        if system.recovery is not None:
            started = system.recovery.deploy(
                inst.node, lambda n=node_service: n,
                endpoint=inst.endpoint, delegate="replication",
                artifact=artifact)
        else:
            started = system.mgmt.load(inst.node, node_service,
                                       endpoint=inst.endpoint,
                                       artifact=artifact)

        def mark_ready(ev, i=inst):
            if not ev.failed:
                i.ready = True

        started.add_callback(mark_ready)
        return started

    def _load(self, inst: ServiceInstance, handler, artifact=None) -> Event:
        """Place one instance on the lowest free tile of its FPGA."""
        system = self.cluster.systems[inst.fpga]
        free = system.mgmt.free_tiles()
        if not free:
            raise ConfigError(
                f"FPGA {inst.fpga} has no free tile for {inst.iid}"
            )
        inst.node = free[0]

        def factory(port=inst.port, name=inst.iid, h=handler):
            return ClusterPortedService(name, port=port, handler=h)

        if system.recovery is not None:
            # keep the instance alive intra-FPGA (restart / spare failover)
            started = system.recovery.deploy(inst.node, factory,
                                             endpoint=inst.endpoint,
                                             artifact=artifact)
        else:
            started = system.mgmt.load(inst.node, factory(),
                                       endpoint=inst.endpoint,
                                       artifact=artifact)

        def mark_ready(ev, i=inst):
            if not ev.failed:
                i.ready = True

        started.add_callback(mark_ready)
        return started

    def _pick_fpga(self, bitstream=None) -> int:
        """Next board for a fresh instance.

        Legacy clusters (no bitstream plane): pure round-robin cursor,
        byte-identical to every earlier release.  With the compile cache
        enabled the cursor still advances identically, but the pick
        skips killed/full boards and — given ``bitstream`` and
        ``warm_placement`` — prefers boards whose artifact cache is
        already warm for it (cursor order breaks ties, so placement
        stays deterministic).
        """
        fpga = self._next_fpga
        self._next_fpga = (self._next_fpga + 1) % len(self.cluster.systems)
        if self.cluster.bitplane is None:
            return fpga
        n = len(self.cluster.systems)
        order = [(fpga + k) % n for k in range(n)]
        usable = [i for i in order
                  if i not in self.cluster.killed
                  and self.cluster.systems[i].mgmt.free_tiles()]
        if not usable:
            return fpga
        if bitstream is not None \
                and self.cluster.config.cache.warm_placement:
            from repro.sched.placement import warm_first
            usable = warm_first(usable, self.cluster, bitstream)
        return usable[0]

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    # -- routing queries (used by the front-end) ---------------------------

    def spec(self, service: str) -> ServiceSpec:
        found = self.services.get(service)
        if found is None:
            raise ConfigError(f"unknown service {service!r}")
        return found

    def candidates(self, service: str,
                   key: Any = None) -> List[ServiceInstance]:
        return self.spec(service).candidates(key)

    def instances_on(self, fpga: int,
                     node: Optional[int] = None) -> List[ServiceInstance]:
        """Instances on one FPGA (optionally one tile) — the blast radius
        of a board or tile failure."""
        out = []
        for spec in self.services.values():
            for inst in spec.instances:
                if inst.fpga == fpga and (node is None or inst.node == node):
                    out.append(inst)
        return out

    def placement_table(self) -> Dict[str, Any]:
        """Deterministic placement snapshot (for tests and reports)."""
        return {
            inst.iid: {"fpga": inst.fpga, "node": inst.node,
                       "port": inst.port, "shard": inst.shard,
                       "replica": inst.replica}
            for spec in self.services.values() for inst in spec.instances
        }
