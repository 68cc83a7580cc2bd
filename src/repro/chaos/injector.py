"""Deterministic fault injection against the simulated hardware.

A :class:`FaultPlan` is generated ahead of time from a seed: a sorted list
of :class:`FaultEvent` entries saying *what* breaks, *where*, and *when*
(cycle offsets relative to arming).  An :class:`Injector` then arms the
plan against a live :class:`~repro.kernel.system.ApiarySystem` and applies
each event at its exact cycle.  Because the plan is materialized before the
run and every stochastic draw comes from named
:class:`~repro.sim.rng.RngPool` streams, two runs with the same seed inject
byte-identical fault sequences — the property the CI determinism check
enforces.

Fault surface (the paper's fail-stop tile, and the NoC's one fault):

======================  ======================================================
kind                    effect
======================  ======================================================
``TILE_CRASH``          spontaneous accelerator death via
                        :meth:`~repro.kernel.tile.Tile.inject_crash`; the
                        normal §4.4 containment (and recovery) machinery runs
``NOC_ROUTER_STALL``    one router's switch allocation freezes for
                        ``cycles``; backpressure spreads through credit
                        exhaustion
======================  ======================================================

A generated event carries its kind's :data:`DEFAULT_FAULT_PARAMS`.  An
event takes exactly the parameters named there at import; any other key,
or a stall shorter than one cycle, is a ``ConfigError`` when the plan is
generated or armed, never when the fault fires.

``TILE_CRASH`` targets may be logical endpoint names; they are resolved via
the name table *at apply time*, so a crash campaign keeps chasing a service
across failovers — precisely the adversary a recovery subsystem must beat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim import RngPool

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "Injector",
           "DEFAULT_FAULT_PARAMS"]


class FaultKind(enum.Enum):
    TILE_CRASH = "tile-crash"
    NOC_ROUTER_STALL = "noc-router-stall"


#: per-kind knobs every generated event carries
DEFAULT_FAULT_PARAMS: Dict[FaultKind, Dict[str, Any]] = {
    FaultKind.TILE_CRASH: {},
    FaultKind.NOC_ROUTER_STALL: {"cycles": 20_000},
}

#: the keys each kind takes, fixed when the module loads
_FAULT_KEYS = {kind: frozenset(p) for kind, p in DEFAULT_FAULT_PARAMS.items()}


def _check_params(kind: FaultKind, params: Mapping[str, Any]) -> None:
    """Refuse what would only fail once the fault fires: a key the kind
    does not take, or a stall shorter than one cycle."""
    known = _FAULT_KEYS[kind]
    unknown = sorted(set(params) - known)
    if unknown:
        raise ConfigError(f"{kind.value} takes no parameter(s) {unknown}; "
                          f"known: {sorted(known)}")
    if kind is FaultKind.NOC_ROUTER_STALL and params.get("cycles", 1) < 1:
        raise ConfigError(f"a stall lasts >= 1 cycle, got {params['cycles']}")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: apply ``kind`` to ``target`` at ``time``.

    ``time`` is relative to :meth:`Injector.arm`.  ``params`` is a sorted
    tuple of key/value pairs (kept hashable so plans can be compared and
    deduplicated).
    """

    time: int
    kind: FaultKind
    target: Any
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        return dict(self.params).get(key, default)

    def describe(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params)
        return f"t+{self.time}: {self.kind.value} -> {self.target!r}" + (
            f" [{args}]" if args else ""
        )


@dataclass
class FaultPlan:
    """A seeded, pre-materialized fault schedule."""

    seed: int
    duration: int
    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        duration: int,
        rates: Mapping[FaultKind, float],
        targets: Mapping[FaultKind, Sequence[Any]],
        window: Tuple[float, float] = (0.05, 0.75),
        min_events: Optional[Mapping[FaultKind, int]] = None,
    ) -> "FaultPlan":
        """Draw a plan from named rng streams.

        ``rates`` are expected events per **million cycles** of ``duration``
        (event counts are Poisson); ``targets`` lists the candidates each
        kind may hit; ``window`` confines event times to a fraction of the
        duration so late faults still have observable consequences;
        ``min_events`` forces at least N events of a kind whenever its rate
        is non-zero (so sparse sweeps still exercise the machinery).

        Streams are keyed per kind, so adding a kind to a sweep never
        perturbs the schedule of the others.
        """
        if duration < 1:
            raise ConfigError(f"plan duration must be >= 1, got {duration}")
        lo_f, hi_f = window
        if not 0.0 <= lo_f < hi_f <= 1.0:
            raise ConfigError(f"bad plan window {window}")
        pool = RngPool(seed=seed)
        events: List[FaultEvent] = []
        for kind in sorted(rates, key=lambda k: k.value):
            rate = rates[kind]
            floor = (min_events or {}).get(kind, 0)
            if rate <= 0.0:
                continue
            candidates = list(targets.get(kind, ()))
            if not candidates:
                raise ConfigError(f"no targets for {kind.value}")
            _check_params(kind, DEFAULT_FAULT_PARAMS[kind])
            rng = pool.stream(f"chaos.{kind.value}")
            count = max(int(rng.poisson(rate * duration / 1_000_000)), floor)
            if count == 0:
                continue
            lo = int(duration * lo_f)
            hi = max(lo + 1, int(duration * hi_f))
            times = sorted(int(t) for t in rng.integers(lo, hi, size=count))
            frozen = tuple(sorted(DEFAULT_FAULT_PARAMS[kind].items()))
            for t in times:
                pick = candidates[int(rng.integers(0, len(candidates)))]
                events.append(FaultEvent(time=t, kind=kind, target=pick,
                                         params=frozen))
        events.sort(key=lambda e: (e.time, e.kind.value, repr(e.target)))
        return cls(seed=seed, duration=duration, events=events)

    def describe(self) -> str:
        lines = [f"fault plan seed={self.seed} duration={self.duration} "
                 f"events={len(self.events)}"]
        lines.extend(ev.describe() for ev in self.events)
        return "\n".join(lines)


class Injector:
    """Arms a :class:`FaultPlan` against a live system.

    The injector is a simulation process: it sleeps to each event's cycle
    and applies it through the target layer's public fault hook.  Every
    application (or skip, e.g. a crash aimed at an already-dead tile) is
    logged with its outcome for the campaign report.
    """

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.plan = plan
        self.engine = system.engine
        self.log: List[Tuple[int, FaultEvent, str]] = []
        self.applied = 0
        self.skipped = 0
        self._armed = False

    def arm(self) -> None:
        """Start applying the plan, with event times relative to now."""
        if self._armed:
            raise ConfigError("injector is already armed")
        for ev in self.plan.events:
            _check_params(ev.kind, dict(ev.params))
        self._armed = True
        self._t0 = self.engine.now
        self.engine.process(self._run(), name="chaos.injector")

    def _run(self):
        for ev in self.plan.events:
            delay = self._t0 + ev.time - self.engine.now
            if delay > 0:
                yield delay
            outcome = self._apply(ev)
            self.log.append((self.engine.now, ev, outcome))
            self.system.spans.event(
                self.engine.now, f"chaos.{ev.kind.value}", "chaos",
                target=ev.target, outcome=outcome)
            if outcome == "applied":
                self.applied += 1
                self.system.stats.counter("chaos.faults_applied").inc()
            else:
                self.skipped += 1
                self.system.stats.counter("chaos.faults_skipped").inc()

    # -- per-kind application ------------------------------------------------

    def _apply(self, ev: FaultEvent) -> str:
        handler = {
            FaultKind.TILE_CRASH: self._tile_crash,
            FaultKind.NOC_ROUTER_STALL: self._router_stall,
        }[ev.kind]
        return handler(ev)

    def _resolve_node(self, target: Any) -> Optional[int]:
        if isinstance(target, str):
            return self.system.namespace.get(target)
        return int(target)

    def _tile_crash(self, ev: FaultEvent) -> str:
        node = self._resolve_node(ev.target)
        if node is None:
            return "skipped: endpoint not bound"
        if self.system.tiles[node].inject_crash(f"chaos {ev.kind.value}"):
            return "applied"
        return "skipped: tile empty or already failed"

    def _router_stall(self, ev: FaultEvent) -> str:
        node = self._resolve_node(ev.target)
        if node is None:
            return "skipped: endpoint not bound"
        default = DEFAULT_FAULT_PARAMS[FaultKind.NOC_ROUTER_STALL]["cycles"]
        self.system.network.router(node).stall(ev.param("cycles", default))
        return "applied"
