"""ScenarioRunner: execute a Scenario against a Cluster, emit the report.

The runner is the bridge between the declarative spec and the simulated
datacenter: build the cluster on the requested backend, deploy the
declared services, park every partition at exactly ``scenario.start_at``,
then let pre-materialized per-tenant arrival schedules fire through the
front-end's non-blocking :meth:`~repro.cluster.frontend.FrontEnd.submit`
path while the chaos plan lands at its declared cycles.

Two properties are load-bearing:

* **genuinely open-loop** — every tenant's arrival cycles are computed
  up front from ``(seed, spec)`` (see :mod:`repro.loadgen.arrivals`) and
  the sources fire on schedule whatever the cluster is doing; overload
  therefore queues, rejects, and drops instead of silently slowing the
  generator down;
* **backend-independent bytes** — traffic originates on the host
  partition (no client fabric hosts), chaos lands via ``run(until=...)``
  at exact cycles, and the report is assembled from commutative
  artifacts (bucketed SLO counts, mergeable sketches, integer counters)
  at a *computed* end cycle — so the same seeded scenario produces a
  byte-identical :class:`~repro.loadgen.report.ScenarioReport` on the
  shared, sequential, and parallel backends, board kills included.

S1, P2, O1 and T2 are all library scenarios executed here: this is the
one serving harness.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.apps import echo_handler_factory, kv_handler_factory
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError
from repro.loadgen.arrivals import arrival_times
from repro.loadgen.report import ScenarioReport, _safe
from repro.loadgen.scenario import Scenario, TenantSpec
from repro.obs.sketch import QuantileSketch
from repro.policy import RetryPolicy
from repro.sim import RngPool
from repro.workloads.generators import keyed_stream, zipf_keys

__all__ = ["ScenarioRunner", "run_scenario"]

#: cap on boot + deploy simulation (reconfiguration is slow but bounded)
_DEPLOY_LIMIT = 50_000_000


class ScenarioRunner:
    """One scenario, one cluster, one deterministic report.

    ``config`` is the template the cluster is built from — the one door
    through which tracing, flight recorders (+ dump dir) and the
    bitstream cache reach a serving run.  The runner overrides only what
    the scenario owns: ``n_fpgas``, ``system.seed``, ``backend``,
    ``swallow_orphan_errors`` and the SLO targets.  When the template
    arms tracing or flight recorders, :attr:`diagnostics` is filled
    before the workers are reaped — *beside* the report, never inside
    it, so the report's bytes do not depend on what was observed.
    """

    def __init__(self, scenario: Scenario, backend: str = "shared",
                 config: ClusterConfig = ClusterConfig()):
        self.scenario = scenario
        self.backend = backend
        self.config = config
        self.cluster: Optional[Cluster] = None
        #: ``{"spans": merged SpanRecorder, "stats": per-board snapshots,
        #: "slo": SLO report at the end cycle, "flight": per-board flight
        #: reports}`` after a traced / flight-recorded run, else None
        self.diagnostics: Optional[Dict[str, Any]] = None
        # per-tenant outcome ledgers, filled by submit callbacks
        self._counts: Dict[str, Dict[str, int]] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    # -- cluster assembly --------------------------------------------------

    def _build(self) -> Cluster:
        scn = self.scenario
        cluster = self.cluster = Cluster(replace(
            self.config,
            n_fpgas=scn.n_fpgas,
            system=replace(self.config.system, seed=scn.seed),
            backend=self.backend,
            # chaos plans kill boards mid-flight; orphaned in-flight
            # errors are the fault path's job, not the engine's
            swallow_orphan_errors=True,
            obs=replace(self.config.obs, slo_targets=scn.slos),
        ))
        cluster.boot()
        started = []
        for svc in scn.services:
            if svc.kind == "echo":
                started += cluster.deploy_stateless(
                    svc.name, echo_handler_factory(svc.work_cycles),
                    instances=svc.instances)
            else:
                started += cluster.deploy_sharded(
                    svc.name, kv_handler_factory(svc.work_cycles),
                    n_shards=svc.shards, replication=svc.replicas)
        cluster.run_until(started, limit=_DEPLOY_LIMIT)
        cluster.start_frontend(
            max_pending=scn.max_pending,
            max_backlog=scn.max_backlog,
            queue_deadline=scn.queue_deadline,
            retry=RetryPolicy(deadline=scn.retry_deadline,
                              attempt_timeout=scn.attempt_timeout,
                              backoff_base=200, backoff_cap=2_000))
        if cluster.now > scn.start_at:
            raise ConfigError(
                f"boot + deploy ran to cycle {cluster.now}, past "
                f"start_at={scn.start_at}; raise Scenario.start_at")
        # park every partition at exactly the traffic start — the
        # backend contract (run lands on `until` on every backend) is
        # what lines the windowed clocks up with the shared one here
        cluster.run(until=scn.start_at)
        cluster.seal()
        return cluster

    # -- traffic sources ---------------------------------------------------

    def _materialize(self, tenant: TenantSpec):
        """(arrival cycles, keys, is_read flags) — pure f(seed, spec)."""
        scn = self.scenario
        pool = RngPool(scn.seed).fork(f"tenant.{tenant.name}")
        times = arrival_times(tenant.arrival, scn.duration, pool,
                              stream="gaps")
        n = len(times)
        keys = zipf_keys(keyed_stream(scn.seed, "tenant", tenant.name,
                                      "keys"),
                         n, universe=tenant.key_universe,
                         skew=tenant.zipf_skew)
        reads = keyed_stream(scn.seed, "tenant", tenant.name,
                             "ops").random(n) < tenant.read_fraction
        return times, keys, [bool(r) for r in reads]

    def _source(self, frontend, tenant: TenantSpec, times: List[int],
                keys: List[int], reads: List[bool]):
        """One tenant's open-loop firehose (runs on the host engine).

        Waits out the pre-computed gap to the next arrival and fires —
        never waits on a completion, so a drowning cluster changes
        nothing about what this process does next.
        """
        svc = next(s for s in self.scenario.services
                   if s.name == tenant.service)
        counts = self._counts[tenant.name]
        sketch = self._sketches[tenant.name]
        engine = frontend.engine
        now = 0
        for i, at in enumerate(times):
            if at > now:
                yield at - now
            now = at
            if svc.kind == "kv":
                is_read = reads[i]
                key = keys[i]
                body = ({"op": "get", "key": key} if is_read
                        else {"op": "put", "key": key, "value": i})
            else:
                is_read = True
                key = None
                body = {"x": i}

            def done(reply: Dict[str, Any], sent: int = engine.now,
                     counts: Dict[str, int] = counts,
                     sketch: QuantileSketch = sketch) -> None:
                if reply.get("rejected"):
                    counts["rejected"] += 1
                elif reply.get("ok"):
                    counts["served"] += 1
                    sketch.record(engine.now - sent)
                else:
                    counts["failed"] += 1

            accepted = frontend.submit(
                tenant.service, body=body, key=key, write=not is_read,
                tenant=tenant.name, nbytes=tenant.value_bytes,
                on_done=done)
            if not accepted:
                counts["dropped"] += 1

    # -- the run -----------------------------------------------------------

    def run(self) -> ScenarioReport:
        try:
            outcome = self._drive()
        finally:
            # reap the board workers on every exit path: a dead worker,
            # a failing chaos action, a start_at that boot overran
            if self.cluster is not None:
                self.cluster.shutdown()
        return self._report(*outcome)

    def _drive(self):
        """Build, run to the end cycle, collect; returns what
        :meth:`_report` takes."""
        scn = self.scenario
        cluster = self._build()
        frontend = cluster.frontend
        t0 = scn.start_at

        offered: Dict[str, int] = {}
        for tenant in sorted(scn.tenants, key=lambda t: t.name):
            times, keys, reads = self._materialize(tenant)
            offered[tenant.name] = len(times)
            self._counts[tenant.name] = {
                "served": 0, "rejected": 0, "dropped": 0, "failed": 0}
            self._sketches[tenant.name] = QuantileSketch(
                f"tenant.{tenant.name}.latency")
            cluster.engine.process(
                self._source(frontend, tenant, times, keys, reads),
                name=f"loadgen.{tenant.name}")

        timeline: List[Dict[str, Any]] = []
        for act in sorted(scn.chaos, key=lambda a: (a.at, a.board)):
            cluster.run(until=t0 + act.at)
            if act.action == "kill":
                cluster.kill_fpga(act.board)
            elif act.action == "partition":
                cluster.partition_fpga(act.board)
            else:
                cluster.heal_fpga(act.board)
            timeline.append({"at": act.at, "action": act.action,
                             "board": act.board})

        cluster.run(until=t0 + scn.duration)
        drain = scn.drain_cycles()
        end = t0 + scn.duration + drain
        cluster.run(until=end)
        obs = self.config.obs
        if obs.tracing or obs.flight_recorders:
            # a forked board answers `collect` only while its worker lives
            self.diagnostics = {
                "spans": cluster.merged_spans(),
                "stats": cluster.stats_snapshots(),
                "slo": cluster.slo.report(end),
                "flight": cluster.flight_reports(),
            }
        return end, drain, offered, timeline

    def _report(self, end: int, drain: int, offered: Dict[str, int],
                timeline: List[Dict[str, Any]]) -> ScenarioReport:
        scn = self.scenario
        cluster = self.cluster
        frontend = cluster.frontend
        slo_report = cluster.slo.report(end)

        tenants: Dict[str, Dict[str, Any]] = {}
        totals = {"offered": 0, "served": 0, "rejected": 0,
                  "dropped": 0, "failed": 0, "unresolved": 0}
        for tenant in scn.tenants:
            counts = self._counts[tenant.name]
            sketch = self._sketches[tenant.name]
            n = offered[tenant.name]
            resolved = sum(counts.values())
            row = {
                "service": tenant.service,
                "offered": n,
                "served": counts["served"],
                "rejected": counts["rejected"],
                "dropped": counts["dropped"],
                "failed": counts["failed"],
                # submissions still in flight when the drain window
                # closed — nonzero means drain was sized too small
                "unresolved": n - resolved,
                "latency_p50": _safe(sketch.percentile(50)),
                "latency_p99": _safe(sketch.percentile(99)),
                "latency_p999": _safe(sketch.percentile(99.9)),
                "goodput_per_kcycle": round(
                    1000.0 * counts["served"] / scn.duration, 6),
                "offered_per_kcycle": round(
                    1000.0 * n / scn.duration, 6),
            }
            tenants[tenant.name] = row
            totals["offered"] += n
            totals["served"] += counts["served"]
            totals["rejected"] += counts["rejected"]
            totals["dropped"] += counts["dropped"]
            totals["failed"] += counts["failed"]
            totals["unresolved"] += n - resolved

        passed = bool(slo_report["targets"]) and all(
            row["verdict"] == "pass" for row in slo_report["targets"])

        # note what the report does NOT contain: the backend name, engine
        # clock readings, span/trace ids — anything that could differ
        # between identical runs on different executors
        data = {
            "scenario": scn.to_dict(),
            "window": {"start": scn.start_at,
                       "end": end,
                       "duration": scn.duration,
                       "drain": drain},
            "tenants": tenants,
            "frontend": {
                "admitted": frontend.requests_admitted,
                "rejected": frontend.requests_rejected,
                "dropped": frontend.requests_dropped,
                "failed": frontend.requests_failed,
                "failovers": frontend.failovers,
                "backlog_left": frontend.backlog_depth(),
            },
            "slo": {"rows": slo_report["targets"],
                    "alerts": slo_report["alerts"]},
            "chaos": timeline,
            "totals": totals,
            "passed": passed,
        }
        return ScenarioReport(data)


def run_scenario(scenario, backend: str = "shared") -> ScenarioReport:
    """One-call convenience: dict or Scenario in, ScenarioReport out."""
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    return ScenarioRunner(scenario, backend=backend).run()
