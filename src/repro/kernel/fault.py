"""Fault detection and handling policy (Section 4.4).

The paper defines two achievable models:

* **Fail-stop** — "if an accelerator ... encounters an error in a process
  and cannot complete its computation, it should not be able to affect
  other Apiary services or other unrelated accelerators."  The monitor
  drains the tile and NACKs peers.
* **Preemptible** — "if an error occurs in one user context within an
  accelerator, other independent processes on the accelerator can keep
  running."  Requires the accelerator to externalize context state; only a
  single context dies.

:class:`FaultManager` is the policy point: tiles report process failures to
it, and it applies the model the tile's accelerator supports.  D6 measures
the blast radius difference between the two (plus the no-OS baseline where
a fault silently corrupts the pipeline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.sim import Engine, StatsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.tile import Tile

__all__ = ["FaultPolicy", "FaultRecord", "FaultManager"]


class FaultPolicy(enum.Enum):
    #: drain the whole tile on any fault (always available)
    FAIL_STOP = "fail-stop"
    #: kill only the faulting context when the accelerator is preemptible,
    #: fall back to fail-stop otherwise
    PREEMPT = "preempt"


@dataclass
class FaultRecord:
    time: int
    tile: str
    context: str
    error: str
    action: str  # "drained" | "context-killed"


class FaultManager:
    """Receives fault reports from tiles and applies the configured policy."""

    def __init__(
        self,
        engine: Engine,
        policy: FaultPolicy = FaultPolicy.FAIL_STOP,
        stats: Optional[StatsRegistry] = None,
    ):
        self.engine = engine
        self.policy = policy
        self.stats = stats if stats is not None else StatsRegistry()
        self.records: List[FaultRecord] = []
        self._by_tile: Dict[str, List[FaultRecord]] = {}
        #: subscribers notified after each containment action — the recovery
        #: subsystem hooks here so it reacts the cycle a tile drains instead
        #: of waiting for the next watchdog heartbeat.
        self.on_fault: List[Callable[["Tile", FaultRecord], None]] = []
        self._containment_sum = 0.0

    def report(self, tile: "Tile", context: str, error: BaseException) -> None:
        """A process on ``tile`` died with ``error``; contain it."""
        accel = tile.accelerator
        preemptable_context = (
            self.policy == FaultPolicy.PREEMPT
            and accel is not None
            and accel.preemptible
            and context != "main"
        )
        if preemptable_context:
            action = "context-killed"
            self.stats.counter("fault.contexts_killed").inc()
            # the faulting context is already dead; save what the
            # accelerator externalized so the context could be resumed
            # elsewhere, and leave every other context running.
            tile.saved_contexts[context] = accel.externalize_state()
            tile.saved_context_owners[context] = tile.deployed_endpoint
        else:
            action = "drained"
            self.stats.counter("fault.tiles_drained").inc()
            tile.fail_stop()
        record = FaultRecord(
            time=self.engine.now,
            tile=tile.endpoint,
            context=context,
            error=f"{type(error).__name__}: {error}",
            action=action,
        )
        self.records.append(record)
        self._by_tile.setdefault(tile.endpoint, []).append(record)
        # faults stamped with when they physically occurred (chaos-injected
        # crashes carry `occurred_at`) let us gauge detection-to-containment
        # latency; organically reported faults are contained the same cycle.
        occurred = getattr(error, "occurred_at", self.engine.now)
        self._containment_sum += self.engine.now - occurred
        self.stats.gauge("fault.mean_time_to_containment").set(
            self._containment_sum / len(self.records)
        )
        # the tile's monitor holds the board's recorder (one observation
        # point); this one event is also what the flight ring keeps
        tile.monitor.spans.event(self.engine.now, "fault.contained",
                                 tile.endpoint, context=context,
                                 action=action, error=record.error)
        for callback in list(self.on_fault):
            callback(tile, record)

    def faults_on(self, tile_endpoint: str) -> List[FaultRecord]:
        return list(self._by_tile.get(tile_endpoint, ()))
