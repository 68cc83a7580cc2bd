"""Progress watchdog: detects NoC stalls (message-dependent deadlock).

Section 4.5 cites prior work on message-dependent deadlock [30, 32] as one
of the concerns an IPC layer built on a NoC inherits.  The watchdog is the
observability half of that story: it periodically checks whether packets
are in flight but no flit has moved for a full interval, and reports the
stall instead of letting a run hang silently.  Tests use it to demonstrate
that a request-reply protocol over a shared delivery queue *can* deadlock
without Apiary's monitor-level flow control, and cannot with it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.noc.network import Network
from repro.sim import Engine

__all__ = ["ProgressWatchdog"]


class ProgressWatchdog:
    """Checks NoC progress every ``interval`` cycles.

    Parameters
    ----------
    network: the NoC to observe.
    interval: cycles between checks; a stall must persist for one full
        interval to be reported (transient backpressure is not a stall).
    on_stall: optional callback ``(cycle) -> None``; a stall is recorded
        in :attr:`stalled_at` either way and the run goes on.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        interval: int = 5000,
        on_stall: Optional[Callable[[int], None]] = None,
    ):
        self.engine = engine
        self.network = network
        self.interval = interval
        self.on_stall = on_stall
        self.stalled_at: Optional[int] = None
        self.checks = 0
        self._process = engine.process(self._run(), name="noc.watchdog")

    def _run(self):
        last_count = self.network.total_flits_forwarded()
        while True:
            yield self.interval
            self.checks += 1
            current = self.network.total_flits_forwarded()
            in_flight = self.network.in_flight_packets()
            if in_flight > 0 and current == last_count:
                self.stalled_at = self.engine.now
                if self.on_stall is not None:
                    self.on_stall(self.engine.now)
            last_count = current

    def stop(self) -> None:
        self._process.interrupt("watchdog stopped")
