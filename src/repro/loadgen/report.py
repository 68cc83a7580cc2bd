"""ScenarioReport: the deterministic, machine-readable verdict of a run.

One report is one JSON-serializable dict — per-tenant latency quantiles
and goodput, the front-end's admission ledger (served / rejected /
dropped, which an open-loop run keeps distinct), the SLO engine's
verdicts and burn alerts, the chaos timeline as it actually landed, and
a single top-level ``passed``.  A scenario that autoscales a service or
deploys a chain adds ``autoscale`` (the decision logs), ``replication``
(the manager's repairs) and ``consistency`` (the
:class:`~repro.replic.history.HistoryChecker` verdict) — each only when
declared, so no other report changes.  ``to_json()`` is byte-stable: the same
seeded :class:`~repro.loadgen.scenario.Scenario` must produce the same
bytes on the shared and sequential backends, and CI pins exactly that.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

__all__ = ["ScenarioReport"]


def _safe(value: Optional[float]) -> Optional[float]:
    """NaN-free rendering: an empty sketch reports ``None``, not ``nan``
    (which is not JSON and compares unequal to itself)."""
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


class ScenarioReport:
    """A frozen-ish view over the run's result dict."""

    def __init__(self, data: Dict[str, Any]):
        self.data = data

    # -- the headline ------------------------------------------------------

    @property
    def passed(self) -> bool:
        return bool(self.data["passed"])

    @property
    def scenario_name(self) -> str:
        return self.data["scenario"]["name"]

    @property
    def tenants(self) -> Dict[str, Dict[str, Any]]:
        return self.data["tenants"]

    @property
    def slo_rows(self) -> List[Dict[str, Any]]:
        return self.data["slo"]["rows"]

    @property
    def alerts(self) -> List[Dict[str, Any]]:
        return self.data["slo"]["alerts"]

    @property
    def chaos_timeline(self) -> List[Dict[str, Any]]:
        return self.data["chaos"]

    def matches_expectation(self) -> bool:
        """True when the run's verdict agrees with the scenario author's
        declared ``expect_pass`` (vacuously true when none was declared)."""
        expect = self.data["scenario"].get("expect_pass")
        if expect is None:
            return True
        return self.passed is bool(expect)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, no float surprises — the string
        two backends must agree on for the identity pin."""
        return json.dumps(self.data, sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioReport":
        return cls(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioReport):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self) -> int:  # pragma: no cover - dict member, unused
        return hash(self.to_json())

    # -- human rendering ---------------------------------------------------

    def text(self) -> str:
        """An operator-facing summary (never pinned — the JSON is)."""
        d = self.data
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"scenario {d['scenario']['name']!r} "
            f"[seed {d['scenario']['seed']}, "
            f"{d['scenario']['n_fpgas']} board(s)]: {verdict}",
            f"  window: {d['window']['start']}..{d['window']['end']} "
            f"({d['window']['duration']} cycles + "
            f"{d['window']['drain']} drain)",
        ]
        for name in sorted(d["tenants"]):
            t = d["tenants"][name]
            p50, p99, p999 = (t["latency_p50"], t["latency_p99"],
                              t["latency_p999"])
            fmt = (lambda v: "-" if v is None else f"{int(v)}")
            lines.append(
                f"  tenant {name}: offered={t['offered']} "
                f"served={t['served']} rejected={t['rejected']} "
                f"dropped={t['dropped']} failed={t['failed']} "
                f"p50/p99/p99.9={fmt(p50)}/{fmt(p99)}/{fmt(p999)} "
                f"goodput={t['goodput_per_kcycle']:.3f}/kcycle")
        for row in d["slo"]["rows"]:
            lines.append(
                f"  slo {row['name']}: {row['verdict']} "
                f"(bad={row['bad']}/{row['total']}, "
                f"budget_spent={row['budget_spent']})")
        for alert in d["slo"]["alerts"]:
            lines.append(
                f"  alert [{alert['severity']}] "
                f"{'/'.join(alert['target'])} at cycle {alert['cycle']} "
                f"(burn {alert['burn_rate']})")
        for event in d["chaos"]:
            lines.append(
                f"  chaos @{event['at']}: {event['action']} "
                f"board {event['board']}")
        for name, row in sorted(d.get("autoscale", {}).get(
                "services", {}).items()):
            lines.append(
                f"  autoscale {name}: scale_ups={row['scale_ups']} "
                f"scale_downs={row['scale_downs']} "
                f"replacements={row['replacements']} "
                f"final_replicas={row['final_replicas']} "
                f"({row['reconfig_cycles']} cycles reconfiguration each)")
            for t, action, iid, replicas, info in row["events"]:
                lines.append(f"    @{t}: {action} {iid} -> {replicas}"
                             + (f" [{info}]" if info else ""))
        if "replication" in d:
            repair = d["replication"]["repair"]
            lines.append(
                f"  replication: promotes={repair['promotes']} "
                f"splices={repair['splices']} "
                f"fences_acked={repair['fences_acked']} chain lengths "
                + " ".join(f"{name}={[c['length'] for c in chains.values()]}"
                           for name, chains
                           in sorted(d["replication"]["chains"].items())))
        if "consistency" in d:
            c = d["consistency"]
            lines.append(
                f"  consistency: linearizable={c['linearizable']} "
                f"acked_writes={c['acked_writes']} "
                f"lost_acked_writes={c['lost_acked_writes']} "
                f"violations={len(c['violations'])} reads={c['reads']} "
                f"failed_final_reads={c['failed_final_reads']}")
        totals = d["totals"]
        lines.append(
            f"  totals: offered={totals['offered']} "
            f"served={totals['served']} rejected={totals['rejected']} "
            f"dropped={totals['dropped']} failed={totals['failed']} "
            f"unresolved={totals['unresolved']}")
        return "\n".join(lines)
