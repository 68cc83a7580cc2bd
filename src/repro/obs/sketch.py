"""Mergeable log-bucketed quantile sketches (DDSketch-style).

The exact-sample :class:`~repro.sim.stats.Histogram` stores every value it
ever sees — fine for a bench that records a few hundred thousand latencies,
unbounded for a production hot path like ``noc.packet_latency`` on a run
that never ends.  :class:`QuantileSketch` replaces the sample list with
log-spaced buckets: a value ``v`` lands in bucket ``ceil(log_gamma(v))``
with ``gamma = (1 + alpha) / (1 - alpha)``, so any value reconstructed
from its bucket's midpoint is within **relative error ``alpha``** of the
original (the DDSketch guarantee; Masson et al., VLDB 2019).  Defaults:
``alpha = 0.01`` — quantile estimates within 1% of the exact order
statistic — with at most :data:`MAX_BINS` live buckets.

Why this shape (and not, say, t-digest or sampling):

* **deterministic** — bucket assignment is a pure function of the value;
  no randomness, no insertion-order sensitivity, so two identically-seeded
  runs produce byte-identical sketches (the property every stat in this
  repo must have);
* **commutative, associative merge** — merging adds bucket counts, so
  per-board sketches folded in any order give the same cluster-wide
  sketch.  This is what lets :meth:`StatsRegistry.merge
  <repro.sim.stats.StatsRegistry.merge>` roll windowed partitions up into
  one registry whose snapshot does not depend on the merge order;
* **bounded memory** — with ``alpha = 0.01`` and ``MAX_BINS = 2048`` the
  sketch spans a value range of ``gamma**2048 ≈ e**41`` (17 orders of
  magnitude) in at most ~2k dict entries, whatever the sample count.  If
  the range is ever exceeded the lowest buckets collapse into one —
  biasing the extreme *low* tail only, never the p99s operators page on.

Count, sum, min, and max are tracked exactly, so ``count``/``mean()``/
``min()``/``max()`` carry no sketch error at all; only interior quantiles
are approximate.

This module is imported by :mod:`repro.sim.stats` and must stay free of
``repro.sim`` imports (it would be a cycle).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["QuantileSketch", "DEFAULT_ALPHA", "MAX_BINS"]

#: default relative-accuracy guarantee for quantile estimates
DEFAULT_ALPHA = 0.01
#: live-bucket ceiling (memory bound; see module docstring)
MAX_BINS = 2048

#: values at or below this magnitude land in the exact "zero" bucket —
#: integer cycle latencies are >= 1, so in practice only true zeros do
_MIN_TRACKED = 1e-9


class QuantileSketch:
    """Bounded-memory quantile estimator with an exact, commutative merge.

    API-compatible with the summary surface of
    :class:`~repro.sim.stats.Histogram` (``record``/``record_many``/
    ``count``/``mean``/``min``/``max``/``percentile``/``summary``/
    ``merge``/``reset``) so call sites can swap kinds without changing
    shape — minus ``samples``, which a sketch by definition cannot return.
    """

    __slots__ = ("name", "alpha", "_gamma", "_log_gamma",
                 "_bins", "_zero_count", "_count", "_sum", "_min", "_max",
                 "collapsed")

    def __init__(self, name: str = "", alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.name = name
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: how many times the low-bucket collapse ran (0 in healthy runs)
        self.collapsed = 0

    # -- recording -------------------------------------------------------

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(
                f"sketch {self.name!r} takes finite non-negative values, "
                f"got {value!r}")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= _MIN_TRACKED:
            self._zero_count += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)  # its bucket
        self._bins[key] = self._bins.get(key, 0) + 1
        if len(self._bins) > MAX_BINS:
            self._collapse()

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def _collapse(self) -> None:
        """Fold the lowest buckets together until the bound holds.

        Collapsing only ever merges *low* buckets upward into the lowest
        survivor, so upper quantiles (the ones SLOs page on) keep their
        accuracy guarantee; the extreme low tail degrades gracefully.
        """
        keys = sorted(self._bins)
        while len(keys) > MAX_BINS:
            lowest = keys.pop(0)
            self._bins[keys[0]] = self._bins.get(keys[0], 0) + \
                self._bins.pop(lowest)
            self.collapsed += 1

    # -- summary surface (Histogram-compatible) --------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def bins(self) -> int:
        """Live bucket count (the memory footprint, in dict entries)."""
        return len(self._bins) + (1 if self._zero_count else 0)

    def mean(self) -> float:
        if not self._count:
            return math.nan
        return self._sum / self._count

    def min(self) -> float:
        return self._min if self._count else math.nan

    def max(self) -> float:
        return self._max if self._count else math.nan

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``p`` in [0, 100]).

        Returns a value within ``alpha`` relative error of the exact order
        statistic ``sorted(samples)[floor(p/100 * (count - 1))]``; the
        exact ``min``/``max`` are returned at the extremes.
        """
        if not self._count:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        rank = math.floor(p / 100.0 * (self._count - 1))
        if rank <= 0 and self._zero_count == 0:
            return self._min
        if rank >= self._count - 1:
            return self._max
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        for key in sorted(self._bins):
            seen += self._bins[key]
            if seen > rank:
                # bucket (gamma^(k-1), gamma^k]; the midpoint in log space
                # is within alpha of every value in the bucket
                est = 2.0 * self._gamma ** key / (self._gamma + 1.0)
                return min(max(est, self._min), self._max)
        return self._max  # pragma: no cover - rank < count guarantees a hit

    def summary(self) -> Dict[str, float]:
        """Same row shape as ``Histogram.summary`` (EXPERIMENTS tables)."""
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max(),
        }

    # -- merge / lifecycle ----------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in; commutative and associative by construction.

        Bucket counts add (both sides use the same ``alpha``-determined
        bucket boundaries), exact fields combine exactly — so merging
        per-board sketches in any order yields the same result as one
        sketch that saw every sample, which is what makes the windowed
        roll-up byte-stable.
        """
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})")
        for key, n in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + n
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self.collapsed += other.collapsed
        if len(self._bins) > MAX_BINS:
            self._collapse()

    # -- introspection ----------------------------------------------------

    def bucket_counts(self) -> List[Tuple[int, int]]:
        """``(bucket_key, count)`` pairs in key order (tests, debugging)."""
        return sorted(self._bins.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QuantileSketch {self.name!r} n={self._count} "
                f"bins={self.bins} alpha={self.alpha}>")
