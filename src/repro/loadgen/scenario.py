"""The declarative scenario spec: one frozen object = one reproducible run.

A :class:`Scenario` composes everything a run needs — cluster shape,
deployed services, per-tenant traffic (arrival process × envelopes ×
key popularity × read/write split), a chaos plan, and the SLO targets the
run is scored against — into a single validated, frozen dataclass.  It
round-trips losslessly through plain dicts (``to_dict``/``from_dict``),
so a scenario is equally at home as Python, JSON on disk, or a CI
artifact; and because every stochastic element is derived from
``Scenario.seed`` through named streams, the same dict produces the same
:class:`~repro.loadgen.report.ScenarioReport` byte for byte on any
execution backend.

FOS and Funky motivate the shape: a shared FPGA OS lives under dynamic
multi-tenant mixes, not a single closed loop — so tenants, not clients,
are the unit of workload description here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.loadgen.arrivals import ArrivalSpec, EnvelopeSpec
from repro.obs.slo import FAST_WINDOW, WINDOW, SLOTarget

__all__ = ["ServiceDecl", "TenantSpec", "ChaosAction", "Scenario"]

#: the service handler kinds the runner knows how to deploy
SERVICE_KINDS = ("echo", "kv", "chain")

#: the chaos verbs a plan may schedule
CHAOS_ACTIONS = ("kill", "partition", "heal")


@dataclass(frozen=True)
class ServiceDecl:
    """One deployed service: what it is and how much of it exists.

    ``kind="echo"`` deploys ``instances`` stateless CPU-bound echoes;
    ``kind="kv"`` deploys a sharded key-value store with ``shards`` ×
    ``replicas`` instances (replicas of a shard on distinct boards);
    ``kind="chain"`` deploys ``shards`` replication chains of
    ``replicas`` :class:`~repro.replic.machine.KvMachine` members each.
    ``work_cycles`` is the handler cost per request.

    ``max_instances`` (echo only) autoscales the service: an
    :class:`~repro.sched.Autoscaler` keeps it between ``instances`` — the
    floor, and what is deployed — and ``max_instances``.
    """

    name: str
    kind: str = "kv"
    instances: int = 2
    shards: int = 2
    replicas: int = 2
    work_cycles: int = 2_000
    max_instances: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ConfigError("a service needs a name")
        if self.kind not in SERVICE_KINDS:
            raise ConfigError(
                f"unknown service kind {self.kind!r}; pick one of "
                f"{SERVICE_KINDS}")
        if self.kind == "echo" and self.instances < 1:
            raise ConfigError("an echo service needs >= 1 instance")
        if self.kind != "echo" and (self.shards < 1 or self.replicas < 1):
            raise ConfigError(
                f"a {self.kind} service needs >= 1 shard and replica")
        if self.work_cycles < 0:
            raise ConfigError("work_cycles must be >= 0")
        if self.max_instances is not None:
            if self.kind != "echo":
                raise ConfigError(
                    f"service {self.name!r} is {self.kind}: only an echo "
                    "service autoscales by instance")
            if self.max_instances <= self.instances:
                raise ConfigError(
                    f"service {self.name!r}: max_instances "
                    f"{self.max_instances} must exceed its floor of "
                    f"{self.instances} instance(s)")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic: arrivals, key popularity, read/write split.

    Each tenant draws from streams keyed by ``(scenario seed, tenant
    name)`` — two tenants under one seed are statistically independent,
    and adding a tenant never perturbs another's schedule.
    """

    name: str
    service: str
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: fraction of requests that are reads (kv only; echo ignores it)
    read_fraction: float = 0.9
    #: explicit key-universe size for the tenant's Zipf popularity
    key_universe: int = 1_024
    zipf_skew: float = 1.2
    value_bytes: int = 64

    def __post_init__(self):
        if not self.name:
            raise ConfigError("a tenant needs a name")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be in [0, 1]")
        if self.key_universe < 1:
            raise ConfigError("key_universe must be >= 1")
        if self.zipf_skew <= 1.0:
            raise ConfigError("zipf_skew must exceed 1.0")
        if self.value_bytes < 1:
            raise ConfigError("value_bytes must be >= 1")


@dataclass(frozen=True)
class ChaosAction:
    """One planned intervention: ``action`` on ``board`` at cycle ``at``
    (relative to the traffic window's start)."""

    at: int
    action: str
    board: int

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError("chaos actions fire at cycles >= 0")
        if self.action not in CHAOS_ACTIONS:
            raise ConfigError(
                f"unknown chaos action {self.action!r}; pick one of "
                f"{CHAOS_ACTIONS}")
        if self.board < 0:
            raise ConfigError("board index must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Arrival model × tenant mix × chaos plan × SLO targets, frozen.

    ``start_at`` is the *absolute* cycle traffic begins: the runner parks
    every backend exactly there after boot + deploy, which is what makes
    the report byte-identical across shared and sequential execution.  ``expect_pass`` is the scenario author's declared verdict
    (``None`` = no expectation), carried into the report so a CI job can
    pin "this scenario must fail its SLOs" as easily as the opposite.
    """

    name: str
    seed: int = 0
    duration: int = 600_000
    n_fpgas: int = 2
    services: Tuple[ServiceDecl, ...] = field(default_factory=tuple)
    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)
    chaos: Tuple[ChaosAction, ...] = field(default_factory=tuple)
    slos: Tuple[SLOTarget, ...] = field(default_factory=tuple)
    #: absolute cycle the traffic window opens (must clear boot + deploy)
    start_at: int = 2_000_000
    #: cycles simulated past the window so every in-flight request
    #: resolves (None = derived from the timeout fields below)
    drain: Optional[int] = None
    #: front-end knobs (see :class:`~repro.cluster.frontend.FrontEnd`)
    max_pending: int = 64
    max_backlog: int = 256
    queue_deadline: int = 120_000
    attempt_timeout: int = 40_000
    retry_deadline: int = 240_000
    expect_pass: Optional[bool] = None

    def __post_init__(self):
        for name, value in (("services", self.services),
                            ("tenants", self.tenants),
                            ("chaos", self.chaos), ("slos", self.slos)):
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.name:
            raise ConfigError("a scenario needs a name")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.n_fpgas < 1:
            raise ConfigError("need >= 1 FPGA")
        if self.start_at <= 0:
            raise ConfigError("start_at must be positive")
        if not self.services:
            raise ConfigError("a scenario deploys at least one service")
        if not self.tenants:
            raise ConfigError("a scenario drives at least one tenant")
        if not self.slos:
            raise ConfigError(
                "a scenario states at least one SLO target — an unscored "
                "run cannot produce a pass/fail report")
        declared = {svc.name for svc in self.services}
        if len(declared) != len(self.services):
            raise ConfigError("service names must be unique")
        if len({t.name for t in self.tenants}) != len(self.tenants):
            raise ConfigError("tenant names must be unique")
        for tenant in self.tenants:
            if tenant.service not in declared:
                raise ConfigError(
                    f"tenant {tenant.name!r} drives undeclared service "
                    f"{tenant.service!r}")
        for target in self.slos:
            if target.service not in declared:
                raise ConfigError(
                    f"SLO target {target.name!r} scores undeclared "
                    f"service {target.service!r}")
        for svc in self.services:
            if svc.kind != "echo" and svc.replicas > self.n_fpgas:
                raise ConfigError(
                    f"service {svc.name!r} wants {svc.replicas} replicas "
                    f"on {self.n_fpgas} board(s)")
        # checked in the order the runner applies it: an action that
        # would land as a silent no-op is refused, not reported
        killed, partitioned = set(), set()
        for act in self.chaos_plan():
            if act.at >= self.duration:
                raise ConfigError(
                    f"chaos action at cycle {act.at} falls outside the "
                    f"{self.duration}-cycle traffic window")
            if act.board >= self.n_fpgas:
                raise ConfigError(
                    f"chaos action targets board {act.board} of "
                    f"{self.n_fpgas}")
            if act.board in killed:
                raise ConfigError(
                    f"{act.action} of board {act.board} at cycle {act.at} "
                    "follows its kill")
            if act.action == "kill":
                killed.add(act.board)
            elif act.action == "partition":
                if act.board in partitioned:
                    raise ConfigError(
                        f"partition of board {act.board} at cycle {act.at}: "
                        "it is partitioned already")
                partitioned.add(act.board)
            elif act.board in partitioned:
                partitioned.remove(act.board)
            else:
                raise ConfigError(
                    f"heal of board {act.board} at cycle {act.at} without "
                    "a prior partition")

    # -- derived -----------------------------------------------------------

    def chaos_plan(self) -> Tuple[ChaosAction, ...]:
        """The chaos actions in the order the runner applies them."""
        return tuple(sorted(self.chaos, key=lambda a: (a.at, a.board)))

    def drain_cycles(self) -> int:
        """How long past the window the runner simulates: enough for the
        deepest queued request to clear its queue deadline *and* its full
        retry budget, plus a margin for the last transport round-trip."""
        if self.drain is not None:
            return self.drain
        return self.queue_deadline + self.retry_deadline + 60_000

    def tenant(self, name: str) -> TenantSpec:
        for t in self.tenants:
            if t.name == name:
                return t
        raise ConfigError(f"no tenant {name!r} in scenario {self.name!r}")

    # -- dict round-trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict rendering that :meth:`from_dict` inverts exactly."""
        return {
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "n_fpgas": self.n_fpgas,
            "services": [_service_dict(s) for s in self.services],
            "tenants": [asdict(t) for t in self.tenants],
            "chaos": [asdict(a) for a in self.chaos],
            "slos": [_slo_dict(t) for t in self.slos],
            "start_at": self.start_at,
            "drain": self.drain,
            "max_pending": self.max_pending,
            "max_backlog": self.max_backlog,
            "queue_deadline": self.queue_deadline,
            "attempt_timeout": self.attempt_timeout,
            "retry_deadline": self.retry_deadline,
            "expect_pass": self.expect_pass,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or any dict
        with the same shape — unknown keys are a validation error)."""
        if not isinstance(data, dict):
            raise ConfigError(f"expected a scenario dict, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown scenario field(s): {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["services"] = tuple(
            _build(ServiceDecl, s, "service")
            for s in kwargs.get("services", ()))
        kwargs["tenants"] = tuple(
            _build_tenant(t) for t in kwargs.get("tenants", ()))
        kwargs["chaos"] = tuple(
            _build(ChaosAction, a, "chaos action")
            for a in kwargs.get("chaos", ()))
        kwargs["slos"] = tuple(_build_slo(t) for t in kwargs.get("slos", ()))
        return cls(**kwargs)


def _service_dict(svc: ServiceDecl) -> Dict[str, Any]:
    """``asdict``, without ``max_instances`` when the service is not
    autoscaled — so a report of a scenario without one keeps its bytes."""
    data = asdict(svc)
    if svc.max_instances is None:
        del data["max_instances"]
    return data


#: the burn windows every SLO target uses, which a scenario dict records
_SLO_WINDOWS = {"window": WINDOW, "fast_window": FAST_WINDOW}


def _slo_dict(target: SLOTarget) -> Dict[str, Any]:
    """``asdict`` plus the burn windows every target uses, which a
    report records beside each target's own fields."""
    return {**asdict(target), **_SLO_WINDOWS}


def _build_slo(data: Any) -> SLOTarget:
    if isinstance(data, dict):
        data = dict(data)
        for key, value in _SLO_WINDOWS.items():
            if data.pop(key, value) != value:
                raise ConfigError(f"an SLO {key} is {value} cycles")
    return _build(SLOTarget, data, "SLO target")


def _build(cls, data: Any, what: str):
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"expected a {what} dict, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {what}: {err}") from err


def _build_tenant(data: Any) -> TenantSpec:
    if isinstance(data, TenantSpec):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"expected a tenant dict, got {data!r}")
    kwargs = dict(data)
    arrival = kwargs.get("arrival")
    if isinstance(arrival, dict):
        akw = dict(arrival)
        akw["envelopes"] = tuple(
            _build(EnvelopeSpec, e, "envelope")
            for e in akw.get("envelopes", ()))
        kwargs["arrival"] = _build(ArrivalSpec, akw, "arrival spec")
    return _build(TenantSpec, kwargs, "tenant")
