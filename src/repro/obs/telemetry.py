"""Telemetry time-series: what every tile is doing *while the run runs*.

End-of-run ``StatsRegistry`` snapshots tell you what happened; operators of
the paper's "production-scale system serving heavy traffic" need to know
what tile 7 is doing *right now*.  :class:`TelemetrySampler` is a sim
process that periodically samples per-tile counters and gauges — monitor
traffic, injection backlog, router buffer occupancy, DRAM bus queue depth —
into fixed-capacity ring buffers (old samples fall off; memory is bounded
no matter how long the run), plus a NoC utilization heatmap computed from
per-router flit deltas between ticks.

The sampler observes components through attributes they already expose; it
adds no code to any hot path, so a system without a sampler pays nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

__all__ = ["TelemetrySampler"]

#: node key for device-global series (DRAM, totals)
GLOBAL = -1


class TelemetrySampler:
    """Ring-buffered time-series over a running Apiary system.

    Parameters
    ----------
    engine: the simulation engine (provides the clock and the process).
    tiles: the system's tile list (monitors are sampled through it).
    network: the NoC (per-NI backlog, per-router buffered flits, heatmap).
    dram: optional DRAM device (bus queue depth, bytes moved).
    interval: cycles between samples.
    capacity: samples retained per series (ring buffer depth).
    """

    def __init__(self, engine, tiles=None, network=None, dram=None,
                 interval: int = 1_000, capacity: int = 512):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.tiles = tiles or []
        self.network = network
        self.dram = dram
        self.interval = interval
        self.capacity = capacity
        self.samples_taken = 0
        self._series: Dict[Tuple[str, int], Deque[Tuple[int, float]]] = {}
        self._last_flits: Dict[int, int] = {}
        self._last_sample_at: int = engine.now
        self._heat: List[List[float]] = []
        self._running = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "TelemetrySampler":
        """Begin periodic sampling (idempotent)."""
        if not self._running:
            self._running = True
            self.engine.process(self._run(), name="obs.sampler")
        return self

    def _run(self):
        while True:
            self.sample()
            yield self.interval

    # -- sampling --------------------------------------------------------

    def _record(self, metric: str, node: int, now: int, value: float) -> None:
        key = (metric, node)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = deque(maxlen=self.capacity)
        series.append((now, value))

    def sample(self) -> None:
        """Take one sample immediately (also callable outside the process)."""
        now = self.engine.now
        self.samples_taken += 1
        # heartbeat series: proves the sampler is alive even on a system
        # with nothing attached, and demonstrates the ring-buffer bound
        self._record("sampled_at", GLOBAL, now, float(now))
        for node, tile in enumerate(self.tiles):
            mon = tile.monitor
            self._record("messages_sent", node, now, float(mon.messages_sent))
            self._record("messages_received", node, now,
                         float(mon.messages_received))
            self._record("denials", node, now, float(mon.denials))
            self._record("egress_backlog", node, now,
                         float(mon.egress_backlog))
            self._record("inject_backlog", node, now,
                         float(mon.ni.inject_backlog))
        if self.network is not None:
            for node in self.network.topo.nodes():
                router = self.network.router(node)
                self._record("buffered_flits", node, now,
                             float(router.buffered_flits))
            self._sample_heatmap(now)
        if self.dram is not None:
            depth = sum(ch.bus.queue_length for ch in self.dram.channels)
            moved = sum(ch.bytes_moved for ch in self.dram.channels)
            self._record("dram_queue_depth", GLOBAL, now, float(depth))
            self._record("dram_bytes_moved", GLOBAL, now, float(moved))
        self._last_sample_at = now

    def _sample_heatmap(self, now: int) -> None:
        """Per-router flit throughput (flits/cycle) since the last sample."""
        topo = self.network.topo
        elapsed = max(1, now - self._last_sample_at)
        grid = [[0.0] * topo.width for _ in range(topo.height)]
        for node in topo.nodes():
            total = self.network.router(node).flits_forwarded
            delta = total - self._last_flits.get(node, 0)
            self._last_flits[node] = total
            x, y = topo.coords(node)
            rate = delta / elapsed if self.samples_taken > 1 else 0.0
            grid[y][x] = rate
            self._record("router_flit_rate", node, now, rate)
        self._heat = grid

    # -- queries ---------------------------------------------------------

    @property
    def last_sample_at(self) -> int:
        """Cycle of the most recent sample (construction time before any)."""
        return self._last_sample_at

    def series(self, metric: str, node: int = GLOBAL) -> List[Tuple[int, float]]:
        """The ``(cycle, value)`` ring for one metric/node (empty if none)."""
        return list(self._series.get((metric, node), ()))

    def metrics(self) -> List[str]:
        return sorted({metric for metric, _node in self._series})

    def latest(self, node: int) -> Dict[str, float]:
        """Most recent sampled values for one tile, plus the sample time.

        Empty until the first sample; merged into
        :meth:`repro.kernel.mgmt.MgmtPlane.telemetry` per-tile snapshots so
        the operator plane answers "what is tile N doing right now".
        """
        out: Dict[str, float] = {}
        for (metric, n), series in self._series.items():
            if n == node and series:
                out[metric] = series[-1][1]
        if out:
            out["sampled_at"] = float(self._last_sample_at)
        return out

    def noc_heatmap(self) -> List[List[float]]:
        """Latest width x height grid of per-router flit rates (row-major,
        ``grid[y][x]``), e.g. the 8x8 utilization view of a flooded mesh."""
        return [row[:] for row in self._heat]

    def heatmap_text(self) -> str:
        """ASCII rendering of :meth:`noc_heatmap` for reports/shell."""
        if not self._heat:
            return "(no heatmap samples yet)"
        lines = []
        for row in self._heat:
            lines.append(" ".join(f"{v:5.2f}" for v in row))
        return "\n".join(lines)
