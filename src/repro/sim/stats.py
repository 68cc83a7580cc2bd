"""Measurement primitives: counters, gauges, latency histograms, sketches.

The evaluation harness reads every number it reports from these objects.
Exact-sample :class:`Histogram` is for distributions a caller owns outright
(a client's latencies, the reference the sketch accuracy check compares
against); a :class:`StatsRegistry` keeps one distribution kind, the
:class:`~repro.obs.sketch.QuantileSketch` of :meth:`StatsRegistry.sketch` —
bounded memory, documented relative error, commutative merge.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "TimeWeighted", "StatsRegistry"]


class Counter:
    """A monotonically increasing count (messages sent, faults contained...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name!r}={self.value}>"


class Gauge:
    """A value that moves both ways, with min/max tracking."""

    __slots__ = ("name", "value", "min_seen", "max_seen")

    def __init__(self, name: str = "", initial: float = 0.0):
        self.name = name
        self.value = initial
        self.min_seen = initial
        self.max_seen = initial

    def set(self, value: float) -> None:
        self.value = value
        self.min_seen = min(self.min_seen, value)
        self.max_seen = max(self.max_seen, value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Exact sample recorder with percentile summaries.

    Used for every latency distribution in the benchmarks (D1/D2 tails).
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self._samples.append(value)

    def record_many(self, values: Iterable[float]) -> None:
        self._samples.extend(values)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return float(np.mean(self._samples))

    def max(self) -> float:
        return float(np.max(self._samples)) if self._samples else math.nan

    def percentile(self, p: float) -> float:
        if not self._samples:
            return math.nan
        return float(np.percentile(self._samples, p))

    def summary(self) -> Dict[str, float]:
        """The row shape used across EXPERIMENTS.md latency tables."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max(),
        }

    def merge(self, other: "Histogram") -> None:
        self._samples.extend(other._samples)

    def reset(self) -> None:
        self._samples.clear()


class TimeWeighted:
    """Time-weighted average of a stepwise signal (queue depth, utilization).

    Call :meth:`update` whenever the signal changes; the average weights each
    value by how long it was held.
    """

    __slots__ = ("name", "_value", "_last_time", "_weighted_sum", "_start_time")

    def __init__(self, name: str = "", initial: float = 0.0, start_time: int = 0):
        self.name = name
        self._value = initial
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._start_time = start_time

    def update(self, now: int, value: float) -> None:
        if now < self._last_time:
            raise ValueError(f"time went backwards in {self.name!r}")
        self._weighted_sum += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def average(self, now: int) -> float:
        total = (
            self._weighted_sum + self._value * (now - self._last_time)
        )
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._value
        return total / elapsed

    @property
    def last_time(self) -> int:
        """When the signal last changed (snapshot's default end time)."""
        return self._last_time

    def merge_from(self, other: "TimeWeighted") -> None:
        """Fold a sibling signal in, treating the two as parallel series.

        Integrals and current values add, so ``average(now)`` of the merged
        signal is the *sum* of the constituents' averages — the right
        semantics for per-board queue depths and utilizations rolled up to
        a cluster view.  Exact only when both series cover the same time
        span (true for lockstep window-synchronized boards); with skewed
        spans the later ``last_time`` wins and the earlier signal's final
        value is extrapolated, which :class:`StatsRegistry.merge`
        documents as the approximation it is.
        """
        self._weighted_sum += other._weighted_sum
        self._value += other._value
        self._start_time = min(self._start_time, other._start_time)
        self._last_time = max(self._last_time, other._last_time)


class StatsRegistry:
    """A named bag of stats objects, one per component instance.

    Components create their stats through the registry so the harness can
    dump everything at the end of a run without plumbing references around.
    """

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.sketches: Dict[str, "QuantileSketch"] = {}
        self.time_weighted_stats: Dict[str, TimeWeighted] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str, initial: float = 0.0) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name, initial)
        return self.gauges[name]

    def sketch(self, name: str, alpha: Optional[float] = None
               ) -> "QuantileSketch":
        """A bounded-memory quantile sketch (see :mod:`repro.obs.sketch`).

        The registry's one distribution kind: quantiles carry the
        sketch's ``alpha`` relative error while count/mean/min/max stay
        exact.  Imported lazily — ``repro.obs`` imports this module, so a
        top-level import would be a cycle.
        """
        if name not in self.sketches:
            from repro.obs.sketch import QuantileSketch
            if alpha is None:
                self.sketches[name] = QuantileSketch(name)
            else:
                self.sketches[name] = QuantileSketch(name, alpha=alpha)
        return self.sketches[name]

    def time_weighted(self, name: str, initial: float = 0.0,
                      start_time: int = 0) -> TimeWeighted:
        if name not in self.time_weighted_stats:
            self.time_weighted_stats[name] = TimeWeighted(
                name, initial=initial, start_time=start_time)
        return self.time_weighted_stats[name]

    def snapshot(self, now: Optional[int] = None) -> Dict[str, Dict]:
        """Flatten every stat into JSON-safe values for reporting.

        Empty sketches and never-set gauges would otherwise surface as
        NaN — which ``json.dumps`` happily emits as the *invalid* token
        ``NaN``, breaking every strict parser downstream — so undefined
        values become ``None`` (JSON ``null``) instead.  ``now`` is the end
        time for time-weighted averages; when omitted, each stat averages
        up to its own last update.

        Keys are emitted in sorted order, *not* registration order:
        registration order depends on which component touched the registry
        first, which differs between a shared-engine run and a windowed
        per-board run (and between boards), while the sorted snapshot of a
        merged registry is byte-stable however its inputs interleaved.
        """
        out: Dict[str, Dict] = {"counters": {}, "gauges": {},
                                "sketches": {}, "time_weighted": {}}
        for name in sorted(self.counters):
            out["counters"][name] = float(self.counters[name].value)
        for name in sorted(self.gauges):
            out["gauges"][name] = _json_safe(self.gauges[name].value)
        for name in sorted(self.sketches):
            out["sketches"][name] = {
                k: _json_safe(v)
                for k, v in self.sketches[name].summary().items()
            }
        for name in sorted(self.time_weighted_stats):
            tw = self.time_weighted_stats[name]
            end = now if now is not None else tw.last_time
            out["time_weighted"][name] = _json_safe(tw.average(end))
        return out

    def merge(self, other: "StatsRegistry") -> None:
        """Fold another registry into this one, name by name.

        The cluster roll-up operation for windowed/parallel runs, where
        each board owns a private registry and the same metric name (say
        ``noc.packets_injected``) exists on every board.  Merge semantics
        per type:

        * **counters** add — event counts across boards are a sum;
        * **sketches** add bucket counts — commutative and associative,
          so per-board sketches folded in any order equal one sketch that
          saw every sample (quantiles keep their ``alpha`` bound);
        * **gauges** add values, with min/max taken across the union —
          matching the "sum of parallel signals" reading (aggregate queue
          depth, total free tiles).  For gauges where a sum is
          meaningless (a ratio, a temperature) read the per-board
          registries instead;
        * **time-weighted** signals add integrals (see
          :meth:`TimeWeighted.merge_from`) — exact for lockstep boards
          that cover the same time span.

        Merging the same disjoint registries in any order produces the
        same snapshot (addition commutes and :meth:`snapshot` sorts keys),
        which is what makes parallel-run telemetry byte-stable: the
        round-trip test pins ``snapshot(merge(a, b)) == snapshot(merge(b,
        a))`` and the sequential-run equivalent.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if name not in self.gauges:
                mine = self.gauge(name, initial=gauge.value)
                mine.min_seen = gauge.min_seen
                mine.max_seen = gauge.max_seen
            else:
                mine = self.gauges[name]
                mine.value += gauge.value
                mine.min_seen = min(mine.min_seen, gauge.min_seen)
                mine.max_seen = max(mine.max_seen, gauge.max_seen)
        for name, sk in other.sketches.items():
            self.sketch(name, alpha=sk.alpha).merge(sk)
        for name, tw in other.time_weighted_stats.items():
            if name not in self.time_weighted_stats:
                mine = self.time_weighted(name, initial=0.0,
                                          start_time=tw._start_time)
                mine._last_time = tw._start_time
            self.time_weighted_stats[name].merge_from(tw)


def _json_safe(value: float) -> Optional[float]:
    """NaN/inf -> None; everything else -> float."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value
