"""Cluster execution backends: one shared engine, or lockstep windows.

How a ``Cluster`` executes its boards is a :class:`ClusterBackend`:

* :class:`SharedEngineBackend` (``backend="shared"``, the default) — one
  engine, one fabric, one span recorder for every board.
* :class:`WindowedBackend` (``backend="sequential"``) — each board and
  the host side (front-end + clients) is a *partition* with a private
  engine, fabric view, and span recorder; partitions advance in lockstep
  windows of :data:`FABRIC_LATENCY` cycles (conservative-lookahead
  discrete-event simulation), one after another in this process.  A
  board with nothing due sits a window out (:meth:`Board.due`) and is
  parked on the clock before a run returns (``_park``).  Message, span, and envelope
  ids are all per-board, so a run's bytes do not depend on the order the
  partitions execute in.

A board is reachable only through ten ops (:class:`Board`): ``window``,
``kill``, ``mark_detached``, ``partition``, ``heal``, ``collect``, and the
placement ops ``load``, ``teardown``, ``forget``, ``prefetch``.  Both
backends call the same methods, so every placement — pre-seal deploys,
the autoscaler, chain repair — takes one path onto a board on every
backend.  Between runs an op runs at once; one issued inside a host
window (a control-plane tick) runs at the barrier that ends it, and its
answer and completion ride the board's news there
(:meth:`WindowedBackend.op`).

Why a window is sound is argued in :mod:`repro.net.envelope`: the fabric
is the only cross-partition channel and a frame sent inside a window
cannot arrive before the next barrier.  Envelopes collected at a barrier
are merge-sorted by ``(send_cycle, src_partition, seq)`` and injected at
their exact arrival cycle, making the global schedule a pure function of
simulated behaviour.

Lifecycle::

    cluster = Cluster(ClusterConfig(n_fpgas=4, backend="sequential"))
    cluster.boot()                    # boards up, config's features armed
    cluster.deploy_stateless(...)
    cluster.run_until(started)
    cluster.start_frontend(...)
    cluster.seal()                    # no new service from here on
    cluster.run(until=...)
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cluster.service import ClusterPortedService
from repro.errors import ConfigError, SimulationError, TileFault
from repro.hw.compile import artifact_digest
from repro.kernel.system import ApiarySystem
from repro.net.envelope import FrameEnvelope, PartitionFabric, pickle_roundtrip
from repro.net.frame import EthernetFabric
from repro.obs.span import SpanRecorder
from repro.sim import Engine, Event, StatsRegistry

__all__ = ["ClusterBackend", "SharedEngineBackend", "WindowedBackend",
           "BACKENDS", "FABRIC_LATENCY"]

#: one-way datacenter hop between boards, in fabric cycles (~2 us); the
#: windowed backend's window is this long
FABRIC_LATENCY = 500

#: span/trace id stride between partitions (board i allocates from
#: (i + 1) * SPAN_ID_STRIDE); far above any realistic per-run span count
SPAN_ID_STRIDE = 1_000_000_000


#: the complete surface of a board once a control plane runs: everything
#: the orchestrator may ask of it is one of these names (DESIGN.md, "Board
#: ops"); the last four are placement
BOARD_OPS = ("window", "kill", "mark_detached", "partition", "heal",
             "collect", "load", "teardown", "forget", "prefetch")
PLACEMENT_OPS = BOARD_OPS[6:]


class Board:
    """One board as the orchestrator sees it: ten ops, nothing else.

    Both backends call only these, so what an op *does* is written once.
    A placement op answers ``(answer, completion event)``.
    """

    def __init__(self, index: int, system: ApiarySystem,
                 fabric: EthernetFabric, services: Dict[str, tuple]):
        self.index = index
        self.system = system
        self.fabric = fabric
        #: service -> (factory, chained), shared by every board
        self.services = services
        #: the end of the last window the board ran
        self.at = 0
        #: news since the last reply: (node, action, endpoint) per fault,
        #: (token, error or None) per completed placement op
        self._faults: List[Tuple[int, str, str]] = []
        self._done: List[Tuple[int, Optional[BaseException]]] = []

    def _record_fault(self, tile, record) -> None:
        self._faults.append((tile.node, record.action, tile.endpoint))

    def _news(self, always: bool = False):
        """Faults and completed ops since the last reply, plus (with either,
        or after an op) :meth:`placement`; ``()`` when nothing happened."""
        if not (always or self._faults or self._done):
            return ()
        news = (self._faults, self._done, self.placement())
        self._faults, self._done = [], []
        return news

    def placement(self) -> Tuple[int, FrozenSet[str], FrozenSet[str]]:
        """(free tiles, warm design digests, digests in synthesis)."""
        store = self.system.bitstore
        warm, compiling = store.digests() if store else ((), ())
        return (len(self.system.mgmt.free_tiles()), frozenset(warm),
                frozenset(compiling))

    def dispatch(self, op: str, args: tuple):
        if op not in BOARD_OPS:
            raise SimulationError(
                f"board {self.index}: unknown board op {op!r}")
        if op not in PLACEMENT_OPS:
            return getattr(self, op)(*args)
        token, *args = args
        answer, done = getattr(self, op)(*args)
        if done is None:
            self._done.append((token, None))
        else:
            done.add_callback(lambda ev: self._done.append(
                (token, ev.value if ev.failed else None)))
        return answer, self._news(always=True)

    def due(self, end: int) -> bool:
        """Whether the board has anything to run in a window to ``end``;
        one that has not sits the window out."""
        nxt = self.system.engine.peek_next()
        return nxt is not None and nxt < end

    # -- the ops -----------------------------------------------------------

    def window(self, end: int):
        """Run to ``end``; returns (outbox, news)."""
        self.at = end
        self.system.engine.run_window(end)
        return self.fabric.drain_outbox(), self._news()

    def kill(self):
        """Fail-stop the board in place: stop the recovery watchdog (no
        board left to restart tiles on), detach the MAC (frames to it
        drop), report a fault on every live tile.  Fault hooks run
        synchronously inside ``report``."""
        system = self.system
        mac = system.config.net.mac_addr
        if system.recovery is not None:
            system.recovery.stop()
        self.fabric.detach(mac)
        # the black-box moment: freeze the flight ring with the pre-kill
        # history before the per-tile fault storm overwrites it.  The
        # explicit dump carries the "board-kill" reason; the per-fault hook
        # dumps that follow in the same cycle coalesce into it (see
        # FlightRecorder.dump).
        system.spans.event(system.engine.now, "board.kill", mac,
                           cause="lost power")
        if system.flight is not None:
            system.flight.dump(system.engine.now, f"board-kill:{mac}")
        err = TileFault(f"board {mac} lost power")
        err.occurred_at = system.engine.now
        for tile in system.tiles:
            if not tile.failed:
                system.fault_manager.report(tile, "main", err)
        return self._news(always=True)

    def mark_detached(self, mac: str) -> None:
        self.fabric.mark_remote_detached(mac)

    def partition(self, mac: str) -> None:
        self.fabric.partition(mac)

    def heal(self, mac: str) -> None:
        self.fabric.heal(mac)

    def collect(self):
        """(spans, stats, flight recorder, bitstream-cache telemetry)."""
        system = self.system
        cache = system.bitstore.telemetry() if system.bitstore else None
        return system.spans, system.stats, system.flight, cache

    def load(self, service: str, shard: Optional[int], iid: str, port: int,
             endpoint: str, artifact=None):
        """Build an instance of registered ``service`` and load it on the
        lowest free tile; answers the tile (-1: none was free) and the
        load.  A chain member's faults are *delegated*: restarting one in
        place would resurrect a stale replica, so recovery only frees the
        slot and the replication manager repairs the chain."""
        factory, chained = self.services[service]
        runs = factory() if shard is None else factory(shard)
        if chained:
            from repro.replic.chain import ChainNodeService  # cyclic import

            member = ChainNodeService(iid, port, runs)
            build, delegate = (lambda: member), "replication"
        else:
            def build():
                return ClusterPortedService(iid, port=port, handler=runs)
            delegate = None
        return self.system.deploy(build, endpoint, delegate=delegate,
                                  artifact=artifact)

    def teardown(self, node: int):
        """Free tile ``node``; the unload fails, rather than raising, for
        an empty slot or none (-1)."""
        if node < 0:
            return None, self.system.engine.event("teardown").fail(
                ConfigError(f"board {self.index}: no tile to free"))
        return None, self.system.mgmt.teardown(node)

    def forget(self, endpoint: str):
        """Stop keeping ``endpoint`` alive (before an intended teardown)."""
        self.system.forget(endpoint)
        return None, None

    def prefetch(self, bitstream):
        """Warm the board's artifact cache for ``bitstream``."""
        return None, self.system.bitstore.prefetch(bitstream)


class ClusterBackend:
    """How a :class:`~repro.cluster.cluster.Cluster` executes its boards."""

    name = "abstract"

    def __init__(self) -> None:
        self.cluster = None
        self.sealed = False
        self._fault_listeners: List[Any] = []
        #: service -> (factory, chained): what a ``load`` op builds from
        self.services: Dict[str, Tuple[Callable[..., Any], bool]] = {}
        self.boards: List[Board] = []

    # -- construction ------------------------------------------------------

    def build(self, cluster, config, engine: Optional[Engine],
              fabric: Optional[EthernetFabric]) -> None:
        """Create the engines/fabrics/systems ``config`` (a
        :class:`~repro.cluster.config.ClusterConfig`) describes and
        attach them to ``cluster``."""
        raise NotImplementedError

    @staticmethod
    def _board_configs(config):
        base = config.system
        return [
            replace(base, seed=base.seed + i,
                    net=replace(base.net, mac_addr=f"fpga{i}"))
            for i in range(config.n_fpgas)
        ]

    # -- execution ---------------------------------------------------------

    def boot(self, extra_cycles: int) -> None:
        raise NotImplementedError

    def run(self, until: Optional[int]) -> None:
        raise NotImplementedError

    def run_until(self, events, limit: int = 10_000_000) -> None:
        raise NotImplementedError

    def seal(self) -> None:
        """Freeze the set of loadable services."""
        self.sealed = True

    # -- placement: board ops ----------------------------------------------

    def register(self, service: str, factory: Callable[..., Any],
                 chained: bool) -> None:
        """Make ``service``'s code loadable on every board."""
        if self.sealed:
            raise ConfigError(
                f"new service {service!r} after seal(): a service's code "
                "reaches the boards only when it is deployed before seal()")
        self.services[service] = (factory, chained)

    def op(self, fpga: int, name: str, *args,
           placed: Optional[Callable[[Any], None]] = None,
           loaded: Optional[Callable[[Event], None]] = None) -> Event:
        """Run placement op ``name`` on board ``fpga`` (DESIGN.md, "Board
        ops"); ``placed`` hears its answer (a load's tile), ``loaded`` its
        completion first.  ``placement(fpga)`` is ``Board.placement``."""
        raise NotImplementedError

    # -- fault injection ---------------------------------------------------

    def kill_board(self, index: int) -> None:
        raise NotImplementedError

    def partition_board(self, index: int) -> None:
        raise NotImplementedError

    def heal_board(self, index: int) -> None:
        raise NotImplementedError

    # -- front-end wiring --------------------------------------------------

    def register_fault_listener(self, listener) -> None:
        """``listener.on_board_fault(fpga, node, action, endpoint)`` will be
        invoked for every board fault — synchronously on the shared
        backend, at the enclosing window's barrier on windowed backends."""
        self._fault_listeners.append(listener)

    # -- observability -----------------------------------------------------

    def merged_spans(self) -> SpanRecorder:
        raise NotImplementedError

    def _collect_all(self):
        return [board.collect() for board in self.boards]

    def merged_stats(self) -> StatsRegistry:
        merged = StatsRegistry()
        for _spans, stats, *_ in self._collect_all():
            merged.merge(stats)
        return merged

    def stats_snapshots(self) -> Dict[str, Dict]:
        return {f"fpga{i}": stats.snapshot()
                for i, (_spans, stats, *_) in enumerate(self._collect_all())}

    def cache_telemetry(self) -> Dict[str, Optional[Dict[str, float]]]:
        return {f"fpga{i}": cache
                for i, (*_, cache) in enumerate(self._collect_all())}

    def flight_reports(self) -> Dict[str, Optional[Dict]]:
        """Per-board flight snapshot + retained dumps (None if disabled)."""
        return {f"fpga{i}": flight.report() if flight is not None else None
                for i, (_spans, _stats, flight, _cache)
                in enumerate(self._collect_all())}


class SharedEngineBackend(ClusterBackend):
    """Every board on one engine, one fabric, one recorder, its ops called
    directly: an op runs at once and its completion is the board's own
    event.  The default, pinned byte-for-byte by the existing suite."""

    name = "shared"

    def build(self, cluster, config, engine, fabric):
        self.cluster = cluster
        cluster.engine = engine if engine is not None else Engine(
            swallow_orphan_errors=config.swallow_orphan_errors)
        cluster.fabric = fabric if fabric is not None else EthernetFabric(
            cluster.engine, latency_cycles=FABRIC_LATENCY)
        cluster.spans = SpanRecorder()
        cluster.systems = [
            ApiarySystem(cfg, engine=cluster.engine, fabric=cluster.fabric,
                         spans=cluster.spans)
            for cfg in self._board_configs(config)
        ]
        self.boards = [Board(i, system, cluster.fabric, self.services)
                       for i, system in enumerate(cluster.systems)]

    def boot(self, extra_cycles):
        for system in self.cluster.systems:
            system.boot(extra_cycles=extra_cycles)

    def run(self, until):
        self.cluster.engine.run(until=until)

    def run_until(self, events, limit=10_000_000):
        engine = self.cluster.engine
        engine.run_until_done(engine.all_of(list(events)), limit=limit)

    def kill_board(self, index):
        self.boards[index].kill()

    def partition_board(self, index):
        self.cluster.fabric.partition(self.cluster.mac(index))

    def heal_board(self, index):
        self.cluster.fabric.heal(self.cluster.mac(index))

    def register_fault_listener(self, listener):
        super().register_fault_listener(listener)
        for fpga, system in enumerate(self.cluster.systems):
            def hook(tile, record, fpga=fpga, listener=listener):
                listener.on_board_fault(fpga, tile.node, record.action,
                                        tile.endpoint)
            system.fault_manager.on_fault.append(hook)

    def merged_spans(self):
        return self.cluster.spans

    def op(self, fpga, name, *args, placed=None, loaded=None):
        answer, done = getattr(self.boards[fpga], name)(*args)
        if placed is not None:
            placed(answer)
        if loaded is not None:
            done.add_callback(loaded)
        return done

    def placement(self, fpga):
        return self.boards[fpga].placement()


class WindowedBackend(ClusterBackend):
    """Conservative-lookahead windows over per-board partitions.

    Partition 0 is the host side (front-end, clients, anything attaching
    an unmapped MAC); partition ``i + 1`` is board ``i``, reached only
    through its :class:`Board` ops.
    """

    name = "sequential"

    def __init__(self):
        super().__init__()
        self.window = 0
        self.partition_of: Dict[str, int] = {}
        #: True while the host runs a window; ops issued then are queued
        self._in_window = False
        self._queued: List[tuple] = []
        #: op token -> (its host completion event, its ``loaded`` hook)
        self._waiting: Dict[int, tuple] = {}
        self._tokens = itertools.count()
        #: per board, its ``Board.placement`` as of its last news
        self._views: List[tuple] = []

    # -- construction ------------------------------------------------------

    def build(self, cluster, config, engine, fabric):
        if engine is not None or fabric is not None:
            raise ConfigError(
                f"the {self.name!r} backend builds one engine and fabric "
                "view per partition; passing engine=/fabric= is a shared-"
                "backend idiom"
            )
        self.cluster = cluster
        swallow_orphan_errors = config.swallow_orphan_errors
        self.window = FABRIC_LATENCY
        configs = self._board_configs(config)
        self.partition_of = {cfg.net.mac_addr: i + 1
                             for i, cfg in enumerate(configs)}
        cluster.engine = Engine(swallow_orphan_errors=swallow_orphan_errors)
        cluster.fabric = PartitionFabric(
            cluster.engine, partition_id=0, partition_of=self.partition_of,
            latency_cycles=FABRIC_LATENCY)
        cluster.spans = SpanRecorder(id_base=0)
        cluster.systems = []
        for i, cfg in enumerate(configs):
            board_engine = Engine(swallow_orphan_errors=swallow_orphan_errors)
            board_fabric = PartitionFabric(
                board_engine, partition_id=i + 1,
                partition_of=self.partition_of,
                latency_cycles=FABRIC_LATENCY)
            system = ApiarySystem(
                cfg, engine=board_engine, fabric=board_fabric,
                spans=SpanRecorder(id_base=(i + 1) * SPAN_ID_STRIDE))
            cluster.systems.append(system)
            board = Board(i, system, board_fabric, self.services)
            system.fault_manager.on_fault.append(board._record_fault)
            self.boards.append(board)
            self._views.append(board.placement())

    # -- the window protocol ----------------------------------------------

    @property
    def clock(self) -> int:
        """The barrier cycle every partition is parked on."""
        return self.cluster.engine.now

    def _step(self, end: int, boards: Optional[List[Board]] = None) -> None:
        """One window for every board that is due (or the given
        ``boards``), then the host's + the barrier exchange."""
        if boards is None:
            boards = [board for board in self.boards if board.due(end)]
        envelopes, news = [], []
        for board in boards:
            outbox, entries = board.window(end)
            envelopes.extend(outbox)
            news.append(entries)
        self._in_window = True
        self.cluster.engine.run_window(end)
        self._in_window = False
        envelopes.extend(self.cluster.fabric.drain_outbox())
        envelopes.sort(key=FrameEnvelope.sort_key)
        # every delivered envelope is a copy, so no two partitions ever
        # share a mutable payload
        for env in envelopes:
            env = pickle_roundtrip(env)
            pid = self.partition_of.get(env.dst_mac, 0)
            fabric = (self.cluster.fabric if pid == 0
                      else self.boards[pid - 1].fabric)
            fabric.inject(env)
        for board, entries in zip(boards, news):
            self._hear(board.index, entries)
        if self._queued:
            queued, self._queued = self._queued, []
            for op in queued:
                self._run_op(*op)

    def _park(self) -> None:
        """Bring every board that sat windows out up to the clock (it has
        nothing to run on the way), so whatever happens between runs —
        kill, partition, heal, collect, a deploy — finds
        ``engine.now == cluster.now`` on every board."""
        self._step(self.clock, [board for board in self.boards
                                if board.at < self.clock])

    def _hear(self, index: int, news) -> None:
        """Take board ``index``'s news (``Board._news``) at a barrier."""
        if not news:
            return
        faults, done, self._views[index] = news
        for node, action, endpoint in faults:
            for listener in self._fault_listeners:
                listener.on_board_fault(index, node, action, endpoint)
        for token, error in done:
            event, loaded = self._waiting.pop(token)
            if error is None:
                event.succeed()
            else:
                event.fail(error)
            if loaded is not None:
                loaded(event)

    # -- placement ---------------------------------------------------------

    def op(self, fpga, name, *args, placed=None, loaded=None):
        """At once between runs (every board is parked at the clock);
        queued for the barrier inside a host window."""
        token = next(self._tokens)
        done = self.cluster.engine.event(f"fpga{fpga}.{name}")
        self._waiting[token] = (done, loaded)
        if self._in_window:
            self._queued.append((fpga, token, name, args, placed))
        else:
            self._run_op(fpga, token, name, args, placed)
        return done

    def _run_op(self, fpga, token, name, args, placed) -> None:
        board = self.boards[fpga]
        if board.at < self.clock:  # it sat windows out: park it first
            self._step(self.clock, [board])
        answer, news = board.dispatch(name, (token, *args))
        if placed is not None:
            placed(answer)
        self._hear(fpga, news)

    def placement(self, fpga):
        """As of the board's last news, less what is queued for it."""
        free, warm, compiling = self._views[fpga]
        for at, _token, name, args, _placed in self._queued:
            if at == fpga and name == "load":
                free -= 1
            elif at == fpga and name == "prefetch":
                compiling |= {artifact_digest(args[0])}
        return free, warm, compiling

    # -- execution ---------------------------------------------------------

    def boot(self, extra_cycles):
        # booting is board-local (no cross-board frames before a front-end
        # exists), so each board boots on its own clock; partitions then
        # align on the latest boot-completion cycle and the first barrier
        # exchange drains whatever a boot did emit
        for system in self.cluster.systems:
            system.boot(extra_cycles=extra_cycles)
        self._step(max([self.clock] + [system.engine.now
                                       for system in self.cluster.systems]))
        self._park()

    def run(self, until):
        if until is None:
            raise ConfigError(
                f"the {self.name!r} backend needs a bounded run(until=...): "
                "partitions advance in windows, not to queue exhaustion"
            )
        while self.clock < until:
            self._step(min(self.clock + self.window, until))
        self._park()

    def run_until(self, events, limit=10_000_000):
        events = list(events)
        deadline = self.clock + limit

        def settled() -> bool:
            for ev in events:
                if ev.failed:
                    raise ev.value
                if not ev.triggered:
                    return False
            return True

        try:
            while not settled():
                if self.clock >= deadline:
                    raise SimulationError(
                        f"events not triggered within {limit} cycles"
                    )
                self._step(self.clock + self.window)
                # envelopes in flight are pending events by now
                if not (self.cluster.engine.pending_events() or any(
                        board.system.engine.peek_next() is not None
                        for board in self.boards)) and not settled():
                    raise SimulationError(
                        f"all partitions drained at cycle {self.clock} "
                        "before the awaited events triggered"
                    )
        finally:
            self._park()

    # -- fault injection ---------------------------------------------------

    def kill_board(self, index):
        mac = self.cluster.mac(index)
        self.cluster.fabric.mark_remote_detached(mac)
        for i, board in enumerate(self.boards):
            if i != index:
                board.mark_detached(mac)
        self._hear(index, self.boards[index].kill())

    def partition_board(self, index):
        mac = self.cluster.mac(index)
        self.cluster.fabric.partition(mac)
        for board in self.boards:
            board.partition(mac)

    def heal_board(self, index):
        mac = self.cluster.mac(index)
        self.cluster.fabric.heal(mac)
        for board in self.boards:
            board.heal(mac)

    # -- observability -----------------------------------------------------

    def merged_spans(self):
        merged = SpanRecorder(id_base=0)
        merged.absorb(self.cluster.spans)
        for spans, *_ in self._collect_all():
            merged.absorb(spans)
        return merged


BACKENDS = {
    "shared": SharedEngineBackend,
    "sequential": WindowedBackend,
}
