"""Cluster: N Apiary FPGAs on one fabric, managed as a single system.

The scale-out unit the paper gestures at in Section 5: once each FPGA is
a first-class network citizen, a rack of them composes the same way a
rack of servers does — shared Ethernet fabric, a service directory, a
load-balancing front-end.  Construction::

    cluster = Cluster(ClusterConfig(n_fpgas=2))
    cluster.boot()
    cluster.directory.deploy_sharded("kv", make_kv_handler, n_shards=4)
    fe = cluster.start_frontend()

Everything a cluster is *built* with is declared in the one
:class:`~repro.cluster.config.ClusterConfig`; the declared features are
armed at two fixed points — the bitstream cache in the constructor (every
load issued after it returns routes through the cache), and recovery
watchdogs, tracing, flight recorders, the SLO engine and the replication
manager when :meth:`Cluster.boot` returns.  What attaches to a *running*
cluster (front-end, autoscaler, deploys) takes its parameters where it is
started.

Each FPGA derives its per-board config from ``config.system`` via
``dataclasses.replace`` (unique MAC, shifted seed).  *How* the boards
execute is a :class:`~repro.cluster.backend.ClusterBackend`:

* ``backend="shared"`` (default) — all boards share one
  :class:`~repro.sim.Engine`, one fabric, one span recorder; a single
  causal trace spans client, front-end, and server board.
* ``backend="sequential"`` / ``backend="parallel"`` — each board gets a
  private engine and advances in conservative lookahead windows (see
  ``backend.py``); ``parallel`` runs board windows on forked workers
  after :meth:`seal`.  ``cluster.engine`` / ``cluster.fabric`` /
  ``cluster.spans`` then name the *host* partition's objects (front-end
  and clients attach there); per-board state is reachable through
  :meth:`merged_spans` / :meth:`merged_stats` / :meth:`stats_snapshots`.

``kill_fpga`` is the availability experiment's hammer: it detaches the
board's MAC (frames to it drop on the floor) and reports a fault on
every occupied tile, which reaches the front-end through the same
``on_fault`` hook intra-FPGA recovery uses — shards fail over to their
surviving replicas.  On windowed backends the kill lands at the current
window barrier, identically in sequential and parallel runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.backend import BACKENDS, ClusterBackend
from repro.cluster.bitcache import BitstreamPlane
from repro.cluster.config import ClusterConfig
from repro.cluster.directory import ServiceDirectory
from repro.cluster.frontend import FrontEnd
from repro.errors import ConfigError
from repro.kernel.system import ApiarySystem
from repro.net.frame import EthernetFabric
from repro.obs.index import SpanIndex
from repro.obs.slo import SLOEngine
from repro.obs.span import SpanRecorder
from repro.sim import Engine, StatsRegistry

__all__ = ["Cluster"]


class Cluster:
    """A multi-FPGA Apiary deployment on one shared fabric."""

    def __init__(
        self,
        config: ClusterConfig = ClusterConfig(),
        *,
        engine: Optional[Engine] = None,
        fabric: Optional[EthernetFabric] = None,
    ):
        if config.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {config.backend!r}; pick one of "
                f"{sorted(BACKENDS)}"
            )
        self.config = config
        self._backend: ClusterBackend = BACKENDS[config.backend]()
        if config.replication:
            self._require_dynamic_placement("chain replication")
        # build() populates engine/fabric/spans/systems on self
        self.engine: Engine
        self.fabric: EthernetFabric
        self.spans: SpanRecorder
        self.systems: List[ApiarySystem]
        self._backend.build(self, config, engine, fabric)
        self.directory = ServiceDirectory(self)
        self.frontend: Optional[FrontEnd] = None
        #: ReplicationManager / SLOEngine once boot() armed them
        self.replication = None
        self.slo = None
        #: BitstreamPlane when the config runs a bitstream cache; None =
        #: direct-load clusters
        self.bitplane = None
        self.killed: List[int] = []
        self.partitioned: List[int] = []
        if config.cache.enabled:
            self._attach_bitstream_cache()

    @property
    def n_fpgas(self) -> int:
        return len(self.systems)

    @property
    def now(self) -> int:
        """The cluster clock (on windowed backends: the host partition's,
        which every board partition matches at each barrier)."""
        return self.engine.now

    def mac(self, index: int) -> str:
        """Board ``index``'s address on the fabric."""
        return self.systems[index].config.net.mac_addr

    def macs(self) -> List[str]:
        return [self.mac(i) for i in range(self.n_fpgas)]

    def _require_dynamic_placement(self, what: str) -> None:
        if not self._backend.supports_dynamic_placement:
            raise ConfigError(
                f"{what} moves instances at simulated runtime, which only "
                f"the 'shared' backend supports (got "
                f"{self.config.backend!r})"
            )

    # -- lifecycle ---------------------------------------------------------

    def boot(self, extra_cycles: int = 5000) -> None:
        """Bring every board's OS services up, then arm what the config
        declares (everything but the cache, which the constructor armed)."""
        self._backend.boot(extra_cycles)
        self._arm()

    def _attach_bitstream_cache(self) -> None:
        """Route every load on every board through a compile-and-cache
        pipeline (:class:`~repro.cluster.bitcache.BoardBitstreamStore`):
        cold designs pay one realistic synthesis run, warm ones
        reconfigure straight from the content-addressed artifact cache.
        :attr:`bitplane` is the cluster-level view (prefetch + warm
        queries)."""
        for i, system in enumerate(self.systems):
            system.enable_bitstream_cache(board=f"fpga{i}")
        self.bitplane = BitstreamPlane(self)

    def _arm(self) -> None:
        """Attach the build-time features the config declares.

        Runs once, when :meth:`boot` returns: boards are up, nothing is
        deployed or sealed yet, so forked workers inherit all of it.
        Cross-FPGA failover stays the front-end's job; the recovery
        watchdogs handle restart-in-place / spare tiles *within* a
        surviving board.
        """
        cfg = self.config
        obs = cfg.obs
        if cfg.recovery:
            for system in self.systems:
                system.enable_recovery()
        if obs.tracing:
            # every partition's recorder (on the shared backend they are
            # all the one cluster recorder)
            self.spans.enable()
            for system in self.systems:
                system.spans.enable()
        if obs.flight_recorders:
            # one always-on ring per board, a sink on the board's
            # recorder; on the shared backend that recorder is the one
            # cluster recorder, so each ring sees cluster-wide spans
            # and events
            for i, system in enumerate(self.systems):
                system.enable_flight_recorder(
                    board=f"fpga{i}", dump_dir=obs.flight_dump_dir)
        if obs.slo_targets:
            # fed by the front-end's admission rejections and completions
            self.slo = SLOEngine()
            for target in obs.slo_targets:
                self.slo.add_target(target)
        if cfg.replication:
            from repro.replic import ReplicationManager  # cyclic import

            self.replication = ReplicationManager(self)

    def start_frontend(self, **kwargs) -> FrontEnd:
        """Attach the load-balancing front-end (once)."""
        if self.frontend is not None:
            raise ConfigError("front-end is already running")
        self.frontend = FrontEnd(self, **kwargs)
        return self.frontend

    def start_autoscaler(self, service: str, **kwargs):
        """Attach a :class:`~repro.sched.Autoscaler` to one service.

        Requires a running front-end (its per-instance queues are the
        scaling signal).  Returns the started autoscaler.
        """
        from repro.sched import Autoscaler  # avoid a cyclic import

        self._require_dynamic_placement("the autoscaler")
        if self.frontend is None:
            raise ConfigError("start the front-end before the autoscaler")
        scaler = Autoscaler(self, service, **kwargs)
        scaler.start()
        return scaler

    def _deploy(self, place, service, factory, **kwargs):
        """Every deploy: placement still open, place, track."""
        self._backend.check_placement_open(f"{place.__name__}()")
        started = place(service, factory, **kwargs)
        if self.frontend is not None:
            self.frontend.track_all()
        return started

    def deploy_stateless(self, service, handler_factory, **kwargs):
        return self._deploy(self.directory.deploy_stateless, service,
                            handler_factory, **kwargs)

    def deploy_sharded(self, service, handler_factory, **kwargs):
        return self._deploy(self.directory.deploy_sharded, service,
                            handler_factory, **kwargs)

    def deploy_chain(self, service, machine_factory, **kwargs):
        """Deploy a chain-replicated stateful service.

        Needs ``ClusterConfig(replication=True)`` and a booted cluster —
        chains are inert (epoch 0, rejecting everything) until the
        manager configures them.  Returns ``(load_started_events,
        configured_event)``.
        """
        if self.replication is None:
            raise ConfigError(
                "deploying a chained service needs ClusterConfig("
                "replication=True) and boot()"
            )
        started = self._deploy(self.directory.deploy_chain, service,
                               machine_factory, **kwargs)
        return started, self.replication.manage(service)

    def seal(self) -> None:
        """Freeze placement and hand boards to the backend's executors.

        A no-op on the shared backend; on ``parallel`` this is the fork
        point — deploys and recovery attachment must happen before it.
        Windowed runs work unsealed too (everything stays in-process),
        sealing is what unlocks actual parallelism.
        """
        self._backend.seal()

    def shutdown(self) -> None:
        """Release backend resources (parallel workers); idempotent."""
        self._backend.shutdown()

    def run(self, until: Optional[int] = None) -> None:
        self._backend.run(until)

    def run_until(self, events, limit: int = 10_000_000) -> None:
        """Advance the cluster until every event has triggered.

        The backend-portable way to wait for deploy/start events: on the
        shared backend this is ``engine.run_until_done(all_of(events))``;
        windowed backends step whole windows until the events settle (so
        the clock lands on the next barrier at or after the trigger).
        """
        self._backend.run_until(list(events), limit=limit)

    def register_fault_listener(self, listener) -> None:
        """Subscribe ``listener.on_board_fault(fpga, node, action,
        endpoint)`` to every board's fault stream — synchronously on the
        shared backend, at the window barrier on windowed ones."""
        self._backend.register_fault_listener(listener)

    # -- observability -----------------------------------------------------

    def merged_spans(self) -> SpanRecorder:
        """Every partition's spans in one recorder (deterministic order)."""
        return self._backend.merged_spans()

    def merged_stats(self) -> StatsRegistry:
        """All boards' registries folded into one cluster roll-up."""
        return self._backend.merged_stats()

    def stats_snapshots(self) -> dict:
        """Per-board ``snapshot()`` dicts, keyed ``fpga0`` .. ``fpgaN-1``."""
        return self._backend.stats_snapshots()

    def flight_reports(self) -> dict:
        """Per-board flight snapshots + dumps, keyed ``fpga0``..``fpgaN-1``
        (``None`` for boards without a recorder)."""
        return self._backend.flight_reports()

    def span_index(self) -> SpanIndex:
        """Cross-FPGA causal index — every board plus the front-end."""
        return SpanIndex(self.merged_spans())

    # -- fault injection ---------------------------------------------------

    def kill_fpga(self, index: int) -> None:
        """Fail-stop a whole board: MAC off the fabric, every tile dead.

        Reported through each tile's fault manager so every subscriber —
        the front-end above all — learns the same way it would for an
        organic fault.  The board's recovery watchdog (if any) is stopped
        first: there is no board left to restart tiles on.
        """
        if index in self.killed:
            return
        self.killed.append(index)
        self._backend.kill_board(index)

    def partition_fpga(self, index: int) -> None:
        """Cut a board off the Ethernet fabric — both directions.

        The board itself keeps running and *believes it is healthy*: its
        tiles heartbeat, its services keep trying to serve.  Nothing
        reports a fault, so only probe misses reveal the partition — the
        asymmetric failure that turns a stale chain head into a
        split-brain unless epochs fence it.
        """
        if index in self.partitioned or index in self.killed:
            return
        self.partitioned.append(index)
        self._backend.partition_board(index)

    def heal_fpga(self, index: int) -> None:
        """Reconnect a partitioned board.

        The board comes back exactly as it left — including any fenced
        stale chain members, which now finally hear their ``chain.fence``
        (and whose buffered writes get nacked).  The replication manager
        is nudged to retry deferred replica placements.
        """
        if index not in self.partitioned:
            return
        self.partitioned.remove(index)
        self._backend.heal_board(index)
        if self.replication is not None:
            self.replication.notify_heal()
