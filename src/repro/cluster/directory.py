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

Every instance reaches its board through one function, ``_place``, a
``load`` board op; the public deploy methods only choose *which* board
(rule table: DESIGN.md "Cluster layer").  Placement is deterministic —
lowest free tile of the chosen FPGA — and all-or-nothing: a deploy that
cannot fit loads nothing.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections import Counter
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

    :attr:`VNODES` virtual points per shard smooth the key distribution;
    the ring is rebuilt only when the shard count changes (never at runtime
    here — resharding is out of scope, replicas handle failures).
    """

    VNODES = 64

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ConfigError(f"need >= 1 shard, got {n_shards}")
        points = []
        for shard in range(n_shards):
            for v in range(self.VNODES):
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
    #: next replica index to hand out (monotonic: replica ids are never
    #: reused, so scale-down + scale-up never aliases an old instance)
    next_replica: int = 0
    #: True for chain-replicated services: shard replicas form an ordered
    #: chain (writes at the head, reads at the tail) instead of a
    #: best-effort fan-out set
    chained: bool = False
    #: shard -> member iids in chain order, head first (chained only)
    chains: Dict[int, List[str]] = field(default_factory=dict)
    #: shard -> configuration epoch; bumped on every repair, so members
    #: at an older epoch are fenced by their peers (chained only)
    epochs: Dict[int, int] = field(default_factory=dict)

    def instance(self, iid: str) -> Optional[ServiceInstance]:
        """The instance named ``iid`` (None once it was removed)."""
        return next((i for i in self.instances if i.iid == iid), None)

    def candidates(self, key: Any = None) -> List[ServiceInstance]:
        """Routing candidates in preference order.

        Chained + key: the shard's chain, head first (the front-end sends
        writes to the head and reads to the tail).  Sharded + key: the
        shard's replicas, primary first.  Stateless (or keyless): every
        instance — the front-end picks least-loaded.
        """
        if self.chained and key is not None:
            shard = self.ring.shard_for(key)
            members = map(self.instance, self.chains.get(shard, []))
            return [m for m in members if m is not None and m.ready]
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

    def __init__(self, cluster, boards):
        super().__init__()
        self.cluster = cluster
        self.boards = boards  # the cluster backend: boards' one way in
        self.services: Dict[str, ServiceSpec] = {}
        self._next_port = self.PORT_BASE
        self._next_fpga = 0  # round-robin placement cursor

    # -- placement ---------------------------------------------------------

    def deploy_stateless(
        self,
        service: str,
        handler_factory: Callable[[], Any],
        instances: int = 2,
    ) -> List[Event]:
        """Place ``instances`` interchangeable copies round-robin.

        ``handler_factory()`` builds a fresh handler per instance (state,
        if any, is per-instance).  Returns the load-started events.
        """
        self._check_new(service, handler_factory, chained=False)
        spec = ServiceSpec(name=service, sharded=False,
                           next_replica=instances)
        boards = self._pick_fpgas(service, instances)
        started = [self._place(spec, fpga, None, idx)[1]
                   for idx, fpga in enumerate(boards)]
        self.services[service] = spec
        return started

    def add_instance(self, service: str):
        """Scale a stateless service out by one replica.

        Places the new instance exactly like :meth:`deploy_stateless`
        (same board pick, lowest free tile) and binds it; the caller
        (normally the autoscaler) re-tracks the front-end so the replica
        takes traffic once its reconfiguration completes.  Returns
        ``(instance, load_started_event)``.
        """
        spec = self.spec(service)
        if spec.sharded:
            raise ConfigError(
                f"{service!r} is sharded; resharding is out of scope — "
                "only stateless services scale by instance"
            )
        (fpga,) = self._pick_fpgas(service, 1)
        spec.next_replica += 1
        return self._place(spec, fpga, None, spec.next_replica - 1)

    def remove_instance(self, service: str,
                        iid: Optional[str] = None) -> ServiceInstance:
        """Detach one stateless replica from routing (no teardown here).

        Removes the instance from the spec (so the front-end stops
        picking it) and unbinds its name.  The *tile* stays loaded — the
        caller drains in-flight work, retires front-end tracking, then
        calls :meth:`teardown`; splitting it this way keeps the
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
            inst = spec.instance(iid)
            if inst is None:
                raise ConfigError(f"no instance {iid!r} of {service!r}")
        self._drop(spec, inst)
        return inst

    def deploy_sharded(
        self,
        service: str,
        handler_factory: Callable[[int], Any],
        n_shards: int = 4,
        replication: int = 2,
    ) -> List[Event]:
        """Shard ``service`` across the cluster with replica failover.

        ``handler_factory(shard)`` builds a handler for one shard (each
        replica of a shard gets its own handler instance — writes are
        fanned out by the front-end to keep them aligned).  Shard ``s``'s
        replica ``r`` lands on FPGA ``(s + r) % n_fpgas``, so replicas of
        one shard always sit on distinct FPGAs (as long as
        ``replication <= n_fpgas``).
        """
        return self._deploy_shards(
            ServiceSpec(name=service, sharded=True, replication=replication),
            handler_factory, n_shards)

    def deploy_chain(
        self,
        service: str,
        machine_factory: Callable[[int], Any],
        n_shards: int = 4,
        replication: int = 3,
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
        return self._deploy_shards(
            ServiceSpec(name=service, sharded=True, chained=True,
                        replication=replication, next_replica=replication),
            machine_factory, n_shards)

    def _deploy_shards(self, spec: ServiceSpec, factory: Callable[[int], Any],
                       n_shards: int) -> List[Event]:
        """The shard loop behind :meth:`deploy_sharded` / :meth:`deploy_chain`
        — they differ only in ``spec.chained``."""
        self._check_new(spec.name, factory, spec.chained)
        n_fpgas = self.cluster.n_fpgas
        if spec.replication < 1:
            raise ConfigError("replication must be >= 1")
        if spec.replication > n_fpgas:
            raise ConfigError(
                f"replication {spec.replication} exceeds cluster size "
                f"{n_fpgas} (same-FPGA replicas share the failure domain)"
            )
        spec.ring = HashRing(n_shards)
        slots = [(shard, replica, (shard + replica) % n_fpgas)
                 for shard in range(n_shards)
                 for replica in range(spec.replication)]
        self._require_room(spec.name, [fpga for _s, _r, fpga in slots])
        started = []
        for shard, replica, fpga in slots:
            inst, loading = self._place(spec, fpga, shard, replica)
            started.append(loading)
            if spec.chained:
                spec.epochs[shard] = 0
                spec.chains.setdefault(shard, []).append(inst.iid)
        self.services[spec.name] = spec
        return started

    def add_chain_replica(self, service: str, shard: int,
                          fpga: int) -> Tuple[ServiceInstance, Event]:
        """Place one fresh chain member for ``shard`` on board ``fpga``
        (repair splice; the replication manager picks the board).  The
        member is *loaded but not part of the chain* — the manager
        checkpoints it and flips the chain order once it has caught up.
        """
        spec = self.spec(service)
        if not spec.chained:
            raise ConfigError(f"{service!r} is not chain-replicated")
        spec.next_replica += 1
        return self._place(spec, fpga, shard, spec.next_replica - 1)

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
        if iid in spec.chains.get(shard, ()):
            spec.chains[shard].remove(iid)
        inst = spec.instance(iid)
        if inst is not None:
            self._drop(spec, inst)

    def _drop(self, spec: ServiceSpec, inst: ServiceInstance) -> None:
        """Unroute ``inst``, unbind its name, stop keeping it alive."""
        spec.instances.remove(inst)
        self.unbind(inst.iid)
        self.boards.op(inst.fpga, "forget", inst.endpoint)

    def _place(self, spec: ServiceSpec, fpga: int, shard: Optional[int],
               replica: int) -> Tuple[ServiceInstance, Event]:
        """The one way an instance gets onto a board: create and route it,
        ask board ``fpga`` to load it (``Board.load`` builds what it runs
        from the service's registered factory, on the lowest free tile),
        bind it once the board names the tile, and mark it ready when the
        load completes."""
        inst = ServiceInstance(service=spec.name, fpga=fpga, node=-1,
                               port=self._alloc_port(), shard=shard,
                               replica=replica)
        spec.instances.append(inst)

        def placed(node):
            inst.node = node
            if node >= 0:
                self.bind(inst.iid, (fpga, node))

        def mark_ready(ev):
            if not ev.failed:
                inst.ready = True

        started = self.boards.op(fpga, "load", spec.name, shard, inst.iid,
                                 inst.port, inst.endpoint,
                                 placed=placed, loaded=mark_ready)
        return inst, started

    def teardown(self, inst: ServiceInstance) -> Event:
        """The inverse of :meth:`_place`: unroute and unbind ``inst``
        (unless :meth:`remove_instance` / :meth:`remove_chain_member`
        already did), then free its tile for the next placement.  Returns
        the unload event; it fails, rather than raising, for a slot that
        is already empty."""
        spec = self.services.get(inst.service)
        if spec is not None and inst in spec.instances:
            self._drop(spec, inst)
        return self.boards.op(inst.fpga, "teardown", inst.node)

    def free_tiles(self, fpga: int) -> int:
        """How many instances board ``fpga`` could take right now."""
        return self.boards.placement(fpga)[0]

    def _pick_fpgas(self, service: str, count: int) -> List[int]:
        """Boards for the next ``count`` stateless instances: a round-robin
        cursor whose picks skip killed and full boards, and — with the
        compile cache's ``warm_placement`` — prefer boards whose artifact
        cache is already warm for the service shell (cursor order breaks
        ties, so placement stays deterministic)."""
        n, plane = self.cluster.n_fpgas, self.cluster.bitplane
        left = [self.free_tiles(i) for i in range(n)]
        warm = []
        if plane is not None and self.cluster.config.cache.warm_placement:
            warm = plane.warm_boards(ClusterPortedService.family_bitstream())
        boards, cursor = [], self._next_fpga
        for _ in range(count):
            fpga, cursor = cursor, (cursor + 1) % n
            usable = [i for i in ((fpga + k) % n for k in range(n))
                      if i not in self.cluster.killed and left[i] > 0]
            usable.sort(key=lambda i: i not in warm)  # stable: cursor order
            if usable:
                fpga = usable[0]
            left[fpga] -= 1
            boards.append(fpga)
        self._require_room(service, boards)
        self._next_fpga = cursor  # a refused deploy leaves the cursor alone
        return boards

    def _require_room(self, service: str, boards: List[int]) -> None:
        """All-or-nothing: raise, before the first load, unless every
        board has the free tiles ``boards`` asks of it."""
        for fpga, need in sorted(Counter(boards).items()):
            free = self.free_tiles(fpga)
            if need > free:
                raise ConfigError(
                    f"{service!r} needs {need} free tile(s) on FPGA {fpga}, "
                    f"which has {free}; nothing was loaded")

    def _check_new(self, service: str, factory: Callable[..., Any],
                   chained: bool) -> None:
        """Refuse a taken name; register the code (refused after seal)."""
        if service in self.services:
            raise ConfigError(f"service {service!r} already deployed")
        self.boards.register(service, factory, chained)

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
