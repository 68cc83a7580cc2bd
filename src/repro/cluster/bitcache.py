"""Per-board bitstream artifact caches + the cluster prefetch plane.

The other half of the compile pipeline (:mod:`repro.hw.compile`): once a
design is synthesized into a content-addressed
:class:`~repro.hw.compile.BitstreamArtifact`, re-synthesizing it for the
next replica is pure reconfiguration tax.  Each board carries a
:class:`BoardBitstreamStore` — an LRU artifact cache in front of one
deterministic :class:`~repro.hw.compile.CompileService`:

* **hit** — the artifact is returned synchronously; the load pays only
  the partial-reconfiguration write (the warm path S2's scale-up wants);
* **miss** — the design enters the board's synthesis queue (megacycles);
  requests for the same digest coalesce onto the in-flight build;
* **overlay reuse** — one cached artifact serves *every* region whose
  capacity fits its cost envelope (the digest covers the cost, which is
  the region-shape the artifact was floorplanned against), so all of a
  board's uniform tile slots share entries;
* **LRU eviction** — the cache is bounded in logic cells; least-recently
  used artifacts fall out first (re-acquirable at synthesis cost).

:class:`BitstreamPlane` is the thin cluster-level coordinator: it can
push a design family warm onto boards ahead of need (*prefetch*), answer
"which boards are warm?" for placement, and roll board telemetry up —
through board ops, so on every backend.
The autoscaler drives prefetch from its jump-scaling early-warning and
``slo_burn`` signals; accuracy (prefetched artifacts later used /
prefetches completed) is a first-class gauge.

Determinism contract: a store's entire state lives on its board — its
engine events, its LRU order, its counters (registered in the board's
:class:`~repro.sim.StatsRegistry`, so they ride the existing
deterministic cross-partition merge).  The plane reads only what boards
report in their news, which keeps windowed runs byte-identical on a
rerun through mid-run prefetches and board kills.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.hw.bitstream import Bitstream, DesignRuleChecker
from repro.hw.compile import BitstreamArtifact, CompileService, artifact_digest

__all__ = ["BoardBitstreamStore", "BitstreamPlane", "DEFAULT_CACHE_CELLS"]

#: Default LRU budget: four 60k-cell service shells' worth of artifacts.
DEFAULT_CACHE_CELLS = 256_000


class _Entry:
    """One cached artifact + its prefetch-accuracy bookkeeping."""

    __slots__ = ("artifact", "prefetch_unused")

    def __init__(self, artifact: BitstreamArtifact, prefetched: bool):
        self.artifact = artifact
        #: True while this entry arrived via prefetch and no load has
        #: used it yet — the denominator-side marker of the accuracy gauge
        self.prefetch_unused = prefetched


class BoardBitstreamStore:
    """One board's artifact cache + synthesis worker.

    ``acquire()`` is the single entry point the management plane calls on
    every load: it returns an event that succeeds with the artifact —
    synchronously on a hit, after synthesis on a miss.  ``prefetch()``
    warms the cache without a load attached.  All counters are mirrored
    into the board's stats registry under ``bitcache.*`` / ``synth.*``.
    """

    def __init__(
        self,
        engine,
        drc: Optional[DesignRuleChecker] = None,
        stats=None,
        board: str = "fpga0",
        capacity_cells: int = DEFAULT_CACHE_CELLS,
    ):
        if capacity_cells < 1:
            raise ConfigError(
                f"capacity_cells must be >= 1, got {capacity_cells}")
        self.engine = engine
        self.stats = stats
        self.board = board
        self.capacity_cells = capacity_cells
        self.compiler = CompileService(
            engine, drc=drc, stats=stats, name=f"synth.{board}")
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetches_issued = 0
        self.prefetches_completed = 0
        self.prefetches_used = 0

    # -- cache mechanics ---------------------------------------------------

    def digests(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """(resident, in synthesis) design digests: a load of a resident
        one is a hit."""
        return frozenset(self._entries), frozenset(self.compiler._in_flight)

    def cached_cells(self) -> int:
        return sum(e.artifact.size_cells for e in self._entries.values())

    def _insert(self, artifact: BitstreamArtifact, prefetched: bool) -> None:
        if artifact.digest in self._entries:
            # a load and a prefetch raced onto one build; keep the entry,
            # a real use clears any pending prefetch marker
            if not prefetched:
                self._entries[artifact.digest].prefetch_unused = False
            self._entries.move_to_end(artifact.digest)
            return
        self._entries[artifact.digest] = _Entry(artifact, prefetched)
        self._entries.move_to_end(artifact.digest)
        while (self.cached_cells() > self.capacity_cells
               and len(self._entries) > 1):
            victim_digest, victim = next(iter(self._entries.items()))
            del self._entries[victim_digest]
            self.evictions += 1
            self._count("evictions")

    def _touch(self, digest: str) -> BitstreamArtifact:
        entry = self._entries[digest]
        self._entries.move_to_end(digest)
        if entry.prefetch_unused:
            entry.prefetch_unused = False
            self.prefetches_used += 1
            self._count("prefetch_used")
        return entry.artifact

    # -- the two entry points ----------------------------------------------

    def acquire(self, bitstream: Bitstream):
        """Event -> :class:`BitstreamArtifact` for a load of ``bitstream``.

        Hit: succeeds synchronously (zero added cycles — the warm path).
        Miss: succeeds after this board's synthesis queue builds the
        design (coalescing with any in-flight build of the same digest).
        Fails with the DRC rejection for screened-out designs.
        """
        digest = artifact_digest(bitstream)
        done = self.engine.event(f"{self.board}.bitcache.acquire")
        if digest in self._entries:
            self.hits += 1
            self._count("hits")
            done.succeed(self._touch(digest))
            return done
        self.misses += 1
        self._count("misses")
        build = self.compiler.compile(bitstream)

        def on_built(ev) -> None:
            if ev.failed:
                done.fail(ev.value)
                return
            self._insert(ev.value, prefetched=False)
            done.succeed(self._touch(ev.value.digest))

        build.add_callback(on_built)
        return done

    def prefetch(self, bitstream: Bitstream):
        """Warm the cache for ``bitstream`` without a load attached.

        Returns the completion event; succeeds with the artifact (or
        ``None`` when already warm — a redundant prefetch costs nothing
        and is not counted against accuracy).
        """
        done = self.engine.event(f"{self.board}.bitcache.prefetch")
        digest = artifact_digest(bitstream)
        if digest in self._entries:
            done.succeed(None)
            return done
        self.prefetches_issued += 1
        self._count("prefetch_issued")
        build = self.compiler.compile(bitstream)

        def on_built(ev) -> None:
            if ev.failed:
                done.fail(ev.value)
                return
            self.prefetches_completed += 1
            self._count("prefetch_completed")
            self._insert(ev.value, prefetched=True)
            done.succeed(ev.value)

        build.add_callback(on_built)
        return done

    # -- gauges ------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return round(self.hits / total, 4) if total else 0.0

    def prefetch_accuracy(self) -> float:
        if not self.prefetches_completed:
            return 0.0
        return round(self.prefetches_used / self.prefetches_completed, 4)

    def telemetry(self) -> Dict[str, float]:
        """The three gauges the tentpole promises, plus raw counters."""
        return {
            "hit_rate": self.hit_rate(),
            "prefetch_accuracy": self.prefetch_accuracy(),
            "synth_backlog": float(self.compiler.backlog),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "cached_artifacts": float(len(self._entries)),
            "cached_cells": float(self.cached_cells()),
            "prefetches_issued": float(self.prefetches_issued),
            "prefetches_completed": float(self.prefetches_completed),
            "prefetches_used": float(self.prefetches_used),
        }

    def _count(self, what: str) -> None:
        if self.stats is not None:
            self.stats.counter(f"bitcache.{what}").inc()


class BitstreamPlane:
    """Cluster-level coordinator over every board's store.

    Prefetch targets and warm queries are *advisory* routing state (like
    the service directory), read and issued through board ops.
    """

    def __init__(self, cluster, boards):
        self.cluster = cluster
        self.boards = boards  # the cluster backend

    def _alive(self) -> List[int]:
        return [i for i in range(self.cluster.n_fpgas)
                if i not in self.cluster.killed]

    def warm_boards(self, bitstream: Bitstream) -> List[int]:
        """Alive boards whose cache already holds this design."""
        digest = artifact_digest(bitstream)
        return [i for i in self._alive()
                if digest in self.boards.placement(i)[1]]

    def prefetch(self, bitstream: Bitstream,
                 fpgas: Optional[Iterable[int]] = None) -> Dict[int, object]:
        """Warm ``bitstream`` on boards (default: every alive board).

        Boards already warm — or already synthesizing the design — are
        skipped.  Returns ``{fpga: completion_event}`` for the prefetches
        actually issued.
        """
        digest = artifact_digest(bitstream)
        targets = list(fpgas) if fpgas is not None else self._alive()
        issued: Dict[int, object] = {}
        for i in targets:
            if i in self.cluster.killed:
                continue
            _free, warm, compiling = self.boards.placement(i)
            if digest in warm or digest in compiling:
                continue
            issued[i] = self.boards.op(i, "prefetch", bitstream)
        return issued

    def prefetch_service(self, service: str,
                         fpgas: Optional[Iterable[int]] = None
                         ) -> Dict[int, object]:
        """Warm a deployed service's design family on boards.

        The service's replicas all share one artifact family
        (:class:`~repro.cluster.service.ClusterPortedService` for
        stateless/sharded services, ``ChainNodeService`` for chains), so
        one prefetch per board covers every future replica there.
        """
        spec = self.cluster.directory.spec(service)
        if spec.chained:
            from repro.replic.chain import ChainNodeService
            bitstream = ChainNodeService.family_bitstream()
        else:
            from repro.cluster.service import ClusterPortedService
            bitstream = ClusterPortedService.family_bitstream()
        return self.prefetch(bitstream, fpgas=fpgas)

    def telemetry(self) -> Dict[str, Dict[str, float]]:
        """Per-board gauge dicts, keyed ``fpga0`` .. ``fpgaN-1``."""
        return self.boards.cache_telemetry()
