"""Chaos campaigns: fault-rate sweeps with a survival workload.

A :class:`Campaign` builds a *fresh* :class:`ApiarySystem` per measurement
point, deploys a checksum service plus a set of closed-loop clients, arms a
seeded :class:`~repro.chaos.injector.FaultPlan` against it, and measures
**availability** — the fraction of client requests that complete, with a
*correct* checksum, inside their deadline.  Each (rate, recovery) point is
run twice per rate: once with the :class:`~repro.kernel.recovery.
RecoveryManager` attached and once bare, which is the experiment backing
the repo's recovery benchmark: at every non-zero fault rate, availability
with recovery must strictly exceed availability without it.

Everything is derived from the campaign seed (per-point seeds fork off it),
so a campaign's report text is byte-identical across runs with the same
parameters — checked in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.accel import Accelerator
from repro.chaos.injector import FaultKind, FaultPlan, Injector
from repro.errors import ConfigError, DeadlineExceeded
from repro.eval import report
from repro.eval.tables import format_table
from repro.hw.resources import ResourceVector
from repro.kernel.config import NocConfig, SystemConfig
from repro.kernel.system import ApiarySystem
from repro.policy import RetryPolicy
from repro.sim import Engine, RngPool

__all__ = ["checksum", "ChecksumService", "SurvivalClient", "CampaignPoint",
           "Campaign"]


def checksum(data: Any) -> int:
    """A tiny deterministic digest both sides can compute independently."""
    if isinstance(data, str):
        data = data.encode()
    acc = 0
    for b in bytes(data):
        acc = (acc * 131 + b) & 0xFFFFFFFF
    return acc


class ChecksumService(Accelerator):
    """The service under attack: checksums request bodies.

    Small footprint on purpose — reconfiguration time scales with logic
    cells, and the recovery claim only holds when MTTR (detection + unload
    + reload) fits inside the clients' retry deadline, as it would for a
    real service bitstream an operator sized for failover.
    """

    COST = ResourceVector(logic_cells=10_000, bram_kb=64, dsp_slices=4)
    PRIMITIVES = {"lut_logic": 8_000, "bram": 16}
    preemptible = True

    CYCLES_PER_REQUEST = 400

    def __init__(self, name: str = "checksum"):
        super().__init__(name)
        self.served = 0

    def main(self, shell):
        while True:
            msg = yield shell.recv()
            if msg.op != "sum":
                yield shell.reply(msg, payload=f"bad op {msg.op!r}",
                                  error=True)
                continue
            yield from self._work(self.CYCLES_PER_REQUEST)
            self.served += 1
            yield shell.reply(msg, payload=checksum(msg.payload))

    def externalize_state(self) -> Dict[str, Any]:
        return {"served": self.served}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.served = int(state.get("served", 0))


class SurvivalClient(Accelerator):
    """Closed-loop caller that keeps score.

    Issues retried requests (``Shell.call(..., retry=...)``) until ``until``
    (sim cycles), verifying every response against a locally computed
    checksum.  ``ok`` / ``failed`` / ``checksum_errors`` feed the campaign's
    availability numbers.
    """

    COST = ResourceVector(logic_cells=5_000, bram_kb=32, dsp_slices=2)
    PRIMITIVES = {"lut_logic": 4_000, "bram": 8}

    def __init__(self, name: str, service: str, until: int,
                 gap: int = 25_000, deadline: int = 300_000,
                 attempt_timeout: int = 25_000):
        super().__init__(name)
        self.service = service
        self.until = until
        self.gap = gap
        self.deadline = deadline
        self.attempt_timeout = attempt_timeout
        self.ok = 0
        self.failed = 0
        self.checksum_errors = 0
        self.finished = False

    def main(self, shell):
        i = 0
        while self.engine_now(shell) < self.until:
            body = f"{self.name}/req{i}"
            expected = checksum(body)
            i += 1
            try:
                resp = yield shell.call(
                    self.service, "sum", payload=body,
                    payload_bytes=len(body),
                    retry=RetryPolicy(deadline=self.deadline,
                                      attempt_timeout=self.attempt_timeout),
                )
            except DeadlineExceeded:
                self.failed += 1
            else:
                if resp.payload == expected:
                    self.ok += 1
                else:
                    self.checksum_errors += 1
            yield self.gap
        self.finished = True
        while True:  # stay resident; the tile owns this process
            yield 1_000_000

    @staticmethod
    def engine_now(shell) -> int:
        return shell.engine.now

    @property
    def total(self) -> int:
        return self.ok + self.failed + self.checksum_errors


@dataclass
class CampaignPoint:
    """One measured (fault rate, recovery on/off) configuration."""

    rate: float
    recovery: bool
    requests: int = 0
    ok: int = 0
    failed: int = 0
    checksum_errors: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0
    recoveries: int = 0
    restarts: int = 0
    failovers: int = 0
    mean_mttr: float = 0.0
    events: List[str] = field(default_factory=list)

    @property
    def availability(self) -> float:
        return self.ok / self.requests if self.requests else 0.0


class Campaign:
    """Sweep fault rates, with and without recovery, and report survival.

    Parameters
    ----------
    seed: root seed; every point's fault plan and rng derive from it.
    rates: crash rates in expected events per million cycles (0 = control).
    duration: fault-plan horizon; client load runs past its window so every
        injected fault has requests in flight to hurt.
    clients: number of closed-loop caller tiles.
    extra_rates: additional background fault kinds (NoC/DRAM/Ethernet) at
        fixed rates, applied identically to every non-zero-rate point.
    """

    SERVICE = "svc.checksum"

    def __init__(
        self,
        seed: int = 0,
        rates: Sequence[float] = (0.0, 2.0, 5.0),
        duration: int = 1_200_000,
        clients: int = 3,
        width: int = 4,
        height: int = 4,
        service_node: int = 1,
        spares: Sequence[int] = (14, 15),
        client_gap: int = 25_000,
        client_deadline: int = 300_000,
        heartbeat_interval: int = 5_000,
        window: Tuple[float, float] = (0.05, 0.5),
        extra_rates: Optional[Mapping[FaultKind, float]] = None,
    ):
        if clients < 1:
            raise ConfigError("a campaign needs at least one client")
        self.seed = seed
        self.rates = list(rates)
        self.duration = duration
        self.clients = clients
        self.width = width
        self.height = height
        self.service_node = service_node
        self.spares = list(spares)
        self.client_gap = client_gap
        self.client_deadline = client_deadline
        self.heartbeat_interval = heartbeat_interval
        self.window = window
        self.extra_rates = dict(extra_rates or {})
        self.points: List[CampaignPoint] = []

    # -- one measurement point ----------------------------------------------

    def _client_nodes(self) -> List[int]:
        tiles = self.width * self.height
        reserved = {0, self.service_node} | set(self.spares)
        nodes = [n for n in range(tiles) if n not in reserved]
        if len(nodes) < self.clients:
            raise ConfigError(
                f"{self.clients} clients do not fit: only {len(nodes)} free "
                f"tiles"
            )
        return nodes[: self.clients]

    def _plan(self, rate: float, point_seed: int) -> FaultPlan:
        tiles = self.width * self.height
        rates: Dict[FaultKind, float] = {FaultKind.TILE_CRASH: rate}
        rates.update(self.extra_rates)
        targets: Dict[FaultKind, Sequence[Any]] = {
            FaultKind.TILE_CRASH: [self.SERVICE],
            FaultKind.NOC_ROUTER_STALL: list(range(tiles)),
            FaultKind.NOC_DROP: list(range(tiles)),
            FaultKind.NOC_LINK_SLOW: list(range(4 * tiles)),
            FaultKind.DRAM_BITFLIP: list(range(0, 1 << 20, 4096)),
            FaultKind.DRAM_BANK_FAIL: list(range(64)),
            FaultKind.ETH_LOSS_BURST: ["fabric"],
            FaultKind.ETH_CORRUPT_BURST: ["fabric"],
        }
        # at least one crash whenever the rate is non-zero, so sparse sweep
        # points still measure recovery rather than an uneventful run
        floor = {FaultKind.TILE_CRASH: 1} if rate > 0 else {}
        return FaultPlan.generate(
            seed=point_seed, duration=self.duration, rates=rates,
            targets=targets, window=self.window, min_events=floor,
        )

    def run_point(self, rate: float, recovery: bool) -> CampaignPoint:
        point_seed = RngPool(self.seed).fork(
            f"point/{rate}/{int(recovery)}").seed
        engine = Engine()
        system = ApiarySystem(
            SystemConfig(seed=point_seed,
                         noc=NocConfig(width=self.width, height=self.height)),
            engine=engine)
        if recovery:
            manager = system.enable_recovery(
                spares=list(self.spares),
                heartbeat_interval=self.heartbeat_interval,
            )
            started = manager.deploy(self.service_node, ChecksumService,
                                     self.SERVICE)
        else:
            manager = None
            started = system.mgmt.load(self.service_node, ChecksumService(),
                                       endpoint=self.SERVICE)
        system.boot()
        engine.run_until_done(started, limit=10_000_000)

        # clients call past the fault window so late faults still have
        # victims; the hard stop bounds the recovery-off runs
        load_until = engine.now + int(self.duration * self.window[1]) \
            + self.client_deadline
        client_accels: List[SurvivalClient] = []
        for node in self._client_nodes():
            accel = SurvivalClient(
                f"client{node}", self.SERVICE, until=load_until,
                gap=self.client_gap, deadline=self.client_deadline,
            )
            started = system.start_app(node, accel)
            system.mgmt.grant_send(f"tile{node}", self.SERVICE)
            engine.run_until_done(started, limit=10_000_000)
            client_accels.append(accel)

        injector = Injector(system, self._plan(rate, point_seed))
        injector.arm()

        hard_stop = load_until + self.client_deadline + 400_000
        while (not all(c.finished for c in client_accels)
               and engine.now < hard_stop):
            engine.run(until=engine.now + 50_000)
        if manager is not None:
            manager.stop()

        point = CampaignPoint(rate=rate, recovery=recovery)
        for accel in client_accels:
            point.requests += accel.total
            point.ok += accel.ok
            point.failed += accel.failed
            point.checksum_errors += accel.checksum_errors
        point.faults_applied = injector.applied
        point.faults_skipped = injector.skipped
        point.events = [f"{t}: {ev.kind.value} -> {outcome}"
                        for t, ev, outcome in injector.log]
        if manager is not None:
            point.recoveries = len(manager.recoveries)
            point.restarts = sum(1 for r in manager.recoveries
                                 if r.kind == "restart")
            point.failovers = sum(1 for r in manager.recoveries
                                  if r.kind == "failover")
            if manager.recoveries:
                point.mean_mttr = (sum(r.mttr for r in manager.recoveries)
                                   / len(manager.recoveries))
        return point

    # -- the sweep -----------------------------------------------------------

    def run(self) -> List[CampaignPoint]:
        self.points = []
        for rate in self.rates:
            for recovery in (False, True):
                self.points.append(self.run_point(rate, recovery))
        return self.points

    def report_text(self) -> str:
        rows = []
        for p in self.points:
            rows.append([
                f"{p.rate:g}",
                "on" if p.recovery else "off",
                p.requests,
                p.ok,
                p.failed,
                p.checksum_errors,
                f"{p.availability:.3f}",
                p.faults_applied,
                p.recoveries,
                f"{p.mean_mttr:.0f}" if p.recoveries else "-",
            ])
        return format_table(
            ["crash rate (/Mcyc)", "recovery", "requests", "ok", "failed",
             "bad sums", "availability", "faults", "recoveries",
             "mean MTTR (cyc)"],
            rows,
            title=f"chaos campaign (seed={self.seed}, "
                  f"{self.clients} clients, {self.width}x{self.height})",
        )

    def record(self, experiment_id: str = "R1") -> str:
        """Emit the campaign table through the experiment report registry."""
        text = self.report_text()
        report.record(experiment_id, "Fault-injection campaign: availability "
                                     "with and without recovery", text)
        return text
