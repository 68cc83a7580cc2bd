"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOTarget` states an objective the way an operator would write
it in a runbook: "99.9% of ``kv`` requests good (completed within 40k
cycles) per tenant".  The :class:`SLOEngine` turns the request stream into
verdicts against those objectives:

* every completed (or rejected) request is classified **good** or **bad**
  against each matching target — bad means failed, rejected, or slower
  than the target's latency bound;
* classifications land in fixed-width **sim-time buckets** of integer
  counts, so the engine's state is a pure function of the request stream
  and deterministic;
* **burn rate** over a window is ``bad_fraction / error_budget`` where
  ``error_budget = 1 - objective``: burn 1.0 spends the budget exactly at
  the sustainable rate, burn 14 exhausts a 30-day budget in ~2 days.  The
  standard multi-window discipline (Google SRE workbook, ch. 5) pages on a
  *fast* window at a high burn threshold (catches cliffs in minutes) and
  tickets on a *slow* window at a low threshold (catches slow leaks);
  both are swept deterministically over the buckets after the run, and
  the fast window doubles as the live :meth:`firing` signal the
  autoscaler consumes mid-run.

Per-target latency is also folded into a mergeable
:class:`~repro.obs.sketch.QuantileSketch`, so the report can state the
observed p99/p99.9 next to each verdict without unbounded storage.

This module must stay import-free of ``repro.sim``/``repro.cluster``
(it is imported from both sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch

__all__ = ["SLOTarget", "SLOEngine", "DEFAULT_BUCKET_CYCLES"]

#: width of a classification bucket in sim cycles.  Small enough that
#: windows hold many buckets, large enough that bucket dicts stay tiny.
DEFAULT_BUCKET_CYCLES = 10_000
#: slow ("ticket") and fast ("page") burn windows, sim cycles
WINDOW = 400_000
FAST_WINDOW = 100_000


@dataclass(frozen=True)
class SLOTarget:
    """One objective: service (optionally one tenant), goodness, burns.

    ``objective`` is the fraction of requests that must be good; a request
    is good when it completed successfully and, if ``latency_cycles`` is
    set, within that bound.  ``tenant=None`` matches every request of the
    service (the service-wide objective); a named tenant matches only
    requests tagged with it — FOS-style multi-tenant workloads get one
    target per tenant on top of the service-wide one.
    """

    name: str
    service: str
    objective: float = 0.999
    latency_cycles: Optional[int] = None
    tenant: Optional[str] = None
    #: burn-rate thresholds for the two windows
    fast_burn: float = 14.0
    slow_burn: float = 6.0

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")

    @property
    def key(self) -> Tuple[str, str, str]:
        """Stable identity for bucket maps."""
        return (self.service, self.tenant or "", self.name)

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


class SLOEngine:
    """Classifies requests against targets; verdicts and burn alerts."""

    def __init__(self, bucket_cycles: int = DEFAULT_BUCKET_CYCLES):
        if bucket_cycles <= 0:
            raise ValueError("bucket_cycles must be positive")
        self.bucket_cycles = bucket_cycles
        self.targets: Dict[Tuple[str, str, str], SLOTarget] = {}
        # target key -> bucket index -> [good, bad] (integer counts only:
        # integers add exactly, floats would accumulate rounding skew)
        self._buckets: Dict[Tuple[str, str, str], Dict[int, List[int]]] = {}
        self._sketches: Dict[Tuple[str, str, str], QuantileSketch] = {}

    # -- registration ----------------------------------------------------

    def add_target(self, target: SLOTarget) -> SLOTarget:
        existing = self.targets.get(target.key)
        if existing is not None and existing != target:
            raise ValueError(
                f"conflicting SLO target for {target.key}: "
                f"{existing} vs {target}")
        self.targets[target.key] = target
        self._buckets.setdefault(target.key, {})
        self._sketches.setdefault(
            target.key, QuantileSketch("slo." + ".".join(target.key)))
        return target

    def targets_for(self, service: str) -> List[SLOTarget]:
        return [t for k, t in sorted(self.targets.items())
                if t.service == service]

    # -- ingest ----------------------------------------------------------

    def observe(self, service: str, latency: Optional[int], ok: bool,
                now: int, tenant: Optional[str] = None) -> None:
        """Classify one finished request against every matching target.

        ``latency`` is sim cycles from admission to completion; pass
        ``None`` for requests that never produced one (rejected at
        admission) — they are bad against every latency bound.
        """
        bucket = now // self.bucket_cycles
        for key, target in self.targets.items():
            if target.service != service:
                continue
            if target.tenant is not None and target.tenant != tenant:
                continue
            good = ok and latency is not None and (
                target.latency_cycles is None
                or latency <= target.latency_cycles)
            cell = self._buckets[key].setdefault(bucket, [0, 0])
            cell[0 if good else 1] += 1
            if latency is not None:
                self._sketches[key].record(latency)

    # -- burn rates ------------------------------------------------------

    def _window_counts(self, key: Tuple[str, str, str], end_bucket: int,
                       window_cycles: int) -> Tuple[int, int]:
        """(good, bad) over the window ending at ``end_bucket`` inclusive."""
        n_buckets = max(1, window_cycles // self.bucket_cycles)
        buckets = self._buckets.get(key, {})
        good = bad = 0
        for b in range(end_bucket - n_buckets + 1, end_bucket + 1):
            cell = buckets.get(b)
            if cell is not None:
                good += cell[0]
                bad += cell[1]
        return good, bad

    def burn_rate(self, target: SLOTarget, now: int,
                  window_cycles: int) -> float:
        """Burn over the window ending now (0.0 when the window is empty)."""
        good, bad = self._window_counts(
            target.key, now // self.bucket_cycles, window_cycles)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / target.error_budget

    def firing(self, service: str, now: int) -> bool:
        """Live page signal: any target of ``service`` past its fast burn.

        This is what the autoscaler polls each tick — deterministic,
        since it reads the same bucket counts the post-run report sweeps.
        """
        for target in self.targets_for(service):
            if self.burn_rate(target, now, FAST_WINDOW) >= \
                    target.fast_burn:
                return True
        return False

    # -- reporting -------------------------------------------------------

    def alerts(self, now: int) -> List[Dict]:
        """Deterministic post-hoc alert sweep over every bucket boundary.

        Replays both burn windows at each bucket end and records rising
        edges: a ``page`` when the fast window crosses ``fast_burn``, a
        ``ticket`` when the slow window crosses ``slow_burn``.  Output
        order is (target key, cycle) — byte-stable for identical streams.
        """
        out: List[Dict] = []
        end_bucket = now // self.bucket_cycles
        for key in sorted(self.targets):
            target = self.targets[key]
            buckets = self._buckets.get(key, {})
            if not buckets:
                continue
            first = min(buckets)
            page = ticket = False
            for b in range(first, end_bucket + 1):
                cycle = (b + 1) * self.bucket_cycles
                fast = self.burn_rate(target, cycle - 1, FAST_WINDOW)
                slow = self.burn_rate(target, cycle - 1, WINDOW)
                if fast >= target.fast_burn and not page:
                    page = True
                    out.append({"cycle": cycle, "target": list(key),
                                "severity": "page",
                                "burn_rate": round(fast, 4)})
                elif fast < target.fast_burn:
                    page = False
                if slow >= target.slow_burn and not ticket:
                    ticket = True
                    out.append({"cycle": cycle, "target": list(key),
                                "severity": "ticket",
                                "burn_rate": round(slow, 4)})
                elif slow < target.slow_burn:
                    ticket = False
        return out

    def report(self, now: int) -> Dict:
        """Machine-readable verdicts: one row per target, plus alerts.

        Byte-stable for identical request streams (sorted keys, integer
        counts, rounded floats).
        """
        rows = []
        for key in sorted(self.targets):
            target = self.targets[key]
            good = bad = 0
            for g, b in self._buckets.get(key, {}).values():
                good += g
                bad += b
            total = good + bad
            bad_fraction = (bad / total) if total else 0.0
            sketch = self._sketches[key]
            rows.append({
                "name": target.name,
                "service": target.service,
                "tenant": target.tenant,
                "objective": target.objective,
                "latency_cycles": target.latency_cycles,
                "total": total,
                "good": good,
                "bad": bad,
                "bad_fraction": round(bad_fraction, 6),
                "budget_spent": round(
                    bad_fraction / target.error_budget, 4) if total else 0.0,
                "latency_p99": _safe(sketch.percentile(99)),
                "latency_p999": _safe(sketch.percentile(99.9)),
                "verdict": "pass" if (
                    total and bad_fraction <= target.error_budget
                ) else ("no-data" if not total else "fail"),
            })
        return {"now": now, "targets": rows, "alerts": self.alerts(now)}

    def report_text(self, now: int) -> str:
        """Operator-facing table of the same verdicts."""
        rep = self.report(now)
        lines = [f"SLO report @ cycle {now}",
                 f"{'target':<28} {'objective':>9} {'total':>8} "
                 f"{'bad':>6} {'budget':>7} {'p99':>10} verdict"]
        for row in rep["targets"]:
            label = row["name"]
            if row["tenant"]:
                label += f"[{row['tenant']}]"
            p99 = row["latency_p99"]
            lines.append(
                f"{label:<28} {row['objective']:>9.4%} {row['total']:>8} "
                f"{row['bad']:>6} {row['budget_spent']:>6.0%} "
                f"{p99 if p99 is None else round(p99):>10} {row['verdict']}")
        if rep["alerts"]:
            lines.append("alerts:")
            for al in rep["alerts"]:
                lines.append(
                    f"  cycle {al['cycle']:>10}  {al['severity']:<7} "
                    f"{'/'.join(al['target'])}  burn={al['burn_rate']}")
        else:
            lines.append("alerts: none")
        return "\n".join(lines)


def _safe(value: float) -> Optional[float]:
    return None if value != value else value
