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
  shared and sequential backends, board kills included.

What a scenario declares beyond traffic is armed here too: an
autoscaled service (``ServiceDecl.max_instances``) gets its
:class:`~repro.sched.Autoscaler` at the park, and a chain service
(``kind="chain"``) gets the replication manager, its writes serialized
per key into the history :class:`~repro.replic.history.HistoryChecker`
is complete for, and a read-back of every written key after the drain.

S1, O1, T2, S2, C1 and R2 are all library scenarios executed here:
this is the one serving harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.apps import echo_handler_factory, kv_handler_factory
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError
from repro.loadgen.arrivals import arrival_times
from repro.loadgen.report import ScenarioReport, _safe
from repro.loadgen.scenario import Scenario, TenantSpec
from repro.obs.sketch import QuantileSketch
from repro.policy import RetryPolicy
from repro.replic.history import HistoryChecker
from repro.replic.machine import KvMachine
from repro.sim import RngPool
from repro.workloads.generators import keyed_stream, zipf_keys

__all__ = ["ScenarioRunner", "run_scenario"]

#: cap on boot + deploy simulation (reconfiguration is slow but bounded)
_DEPLOY_LIMIT = 50_000_000


def _reply_body(reply: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The backend's answer inside a served front-end reply, else None."""
    body = reply.get("body") if reply.get("ok") else None
    return body if isinstance(body, dict) and body.get("ok") else None


def _read_value(body: Dict[str, Any]) -> int:
    """A chain read's value (0 = key not found)."""
    return int(body.get("value") or 0) if body.get("found") else 0


class ScenarioRunner:
    """One scenario, one cluster, one deterministic report.

    ``config`` is the template the cluster is built from — the one door
    through which tracing, flight recorders (+ dump dir) and the
    bitstream cache reach a serving run.  The runner overrides only what
    the scenario owns: ``n_fpgas``, ``system.seed``, ``backend``,
    ``swallow_orphan_errors`` and the SLO targets.  When the template
    arms tracing or flight recorders, :attr:`diagnostics` is filled at
    the end cycle — *beside* the report, never inside it, so the report's
    bytes do not depend on what was observed.
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
        #: service -> its autoscaler, started at the park
        self._scalers: Dict[str, Any] = {}
        #: every chain op, as one monotone-register history
        self._history = HistoryChecker()
        #: (service, key) -> writes waiting on the one in flight, oldest
        #: (the one in flight) first
        self._writes: Dict[Tuple[str, Any], Deque[Tuple]] = {}
        #: (service, key) -> the last integer written to it
        self._values: Dict[Tuple[str, Any], int] = {}

    # -- cluster assembly --------------------------------------------------

    def _build(self) -> Cluster:
        scn = self.scenario
        chained = any(svc.kind == "chain" for svc in scn.services)
        cluster = self.cluster = Cluster(replace(
            self.config,
            n_fpgas=scn.n_fpgas,
            system=replace(self.config.system, seed=scn.seed),
            backend=self.backend,
            # chaos plans kill boards mid-flight; orphaned in-flight
            # errors are the fault path's job, not the engine's
            swallow_orphan_errors=True,
            obs=replace(self.config.obs, slo_targets=scn.slos),
            # a chain needs its manager; the manager repairs what the
            # boards' recovery watchdogs cannot
            recovery=self.config.recovery or chained,
            replication=self.config.replication or chained,
        ))
        cluster.boot()
        started, configured = [], []
        for svc in scn.services:
            if svc.kind == "echo":
                started += cluster.deploy_stateless(
                    svc.name, echo_handler_factory(svc.work_cycles),
                    instances=svc.instances)
            elif svc.kind == "kv":
                started += cluster.deploy_sharded(
                    svc.name, kv_handler_factory(svc.work_cycles),
                    n_shards=svc.shards, replication=svc.replicas)
            else:
                loads, ready = cluster.deploy_chain(
                    svc.name, partial(KvMachine, work_cycles=svc.work_cycles),
                    n_shards=svc.shards, replication=svc.replicas)
                started += loads
                configured.append(ready)
        autoscaled = [svc for svc in scn.services
                      if svc.max_instances is not None]
        if cluster.bitplane is not None and self.config.cache.prefetch:
            # a warm cache: each autoscaled design is compiled ahead onto
            # every board not already building it
            for svc in autoscaled:
                started += cluster.bitplane.prefetch_service(
                    svc.name).values()
        cluster.run_until(started, limit=_DEPLOY_LIMIT)
        cluster.start_frontend(
            max_pending=scn.max_pending,
            max_backlog=scn.max_backlog,
            queue_deadline=scn.queue_deadline,
            retry=RetryPolicy(deadline=scn.retry_deadline,
                              attempt_timeout=scn.attempt_timeout,
                              backoff_base=200, backoff_cap=2_000))
        if configured:
            cluster.run_until(configured, limit=_DEPLOY_LIMIT)
        if cluster.now > scn.start_at:
            raise ConfigError(
                f"boot + deploy ran to cycle {cluster.now}, past "
                f"start_at={scn.start_at}; raise Scenario.start_at")
        # park every partition at exactly the traffic start — the
        # backend contract (run lands on `until` on every backend) is
        # what lines the windowed clocks up with the shared one here
        cluster.run(until=scn.start_at)
        cluster.seal()
        # started at the park, so every backend ticks on the same cycles
        for svc in autoscaled:
            self._scalers[svc.name] = cluster.start_autoscaler(
                svc.name, min_replicas=svc.instances,
                max_replicas=svc.max_instances)
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
            if svc.kind == "echo":
                is_read = True
                key = None
                body = {"x": i}
            else:
                is_read = reads[i]
                key = keys[i]
                body = ({"op": "get", "key": key} if is_read
                        else {"op": "put", "key": key, "value": i})

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

            if svc.kind == "chain":
                self._chain_op(frontend, tenant, key, body, is_read, done)
                continue
            accepted = frontend.submit(
                tenant.service, body=body, key=key, write=not is_read,
                tenant=tenant.name, nbytes=tenant.value_bytes,
                on_done=done)
            if not accepted:
                counts["dropped"] += 1

    # -- chain services ----------------------------------------------------

    def _chain_op(self, frontend, tenant: TenantSpec, key: Any,
                  body: Dict[str, Any], is_read: bool,
                  done: Callable[[Dict[str, Any]], None]) -> None:
        """One chain request, recorded into the history.

        ``done`` is the tenant's ledger: its latency clock started at the
        arrival.  A write waits there until the previous write to its key
        resolved (see :meth:`_next_write`).
        """
        slot = (tenant.service, key)
        if not is_read:
            waiting = self._writes.setdefault(slot, deque())
            waiting.append((tenant, done))
            if len(waiting) == 1:
                self._next_write(frontend, slot)
            return
        engine = frontend.engine

        def read_done(reply: Dict[str, Any], invoked: int = engine.now):
            done(reply)
            answer = _reply_body(reply)
            if answer is not None:
                self._history.record_read(slot, _read_value(answer),
                                          invoked, engine.now)

        if not frontend.submit(tenant.service, body=body, key=key,
                               tenant=tenant.name, nbytes=tenant.value_bytes,
                               on_done=read_done):
            self._counts[tenant.name]["dropped"] += 1

    def _next_write(self, frontend, slot: Tuple[str, Any]) -> None:
        """Submit the oldest waiting write to ``slot``'s key, carrying the
        key's next integer: one writer per key writing increasing values
        is the history :class:`HistoryChecker` is complete for."""
        waiting = self._writes[slot]
        engine = frontend.engine
        service, key = slot
        while waiting:
            tenant, done = waiting[0]
            value = self._values[slot] = self._values.get(slot, 0) + 1

            def write_done(reply: Dict[str, Any], done=done, value=value,
                           invoked: int = engine.now) -> None:
                done(reply)
                self._history.record_write(
                    slot, value, invoked, engine.now,
                    acked=_reply_body(reply) is not None)
                waiting.popleft()
                self._next_write(frontend, slot)

            if frontend.submit(service, key=key, write=True,
                               body={"op": "put", "key": key,
                                     "value": value},
                               tenant=tenant.name, nbytes=tenant.value_bytes,
                               on_done=write_done):
                return
            self._counts[tenant.name]["dropped"] += 1
            waiting.popleft()

    def _read_back(self, cluster: Cluster) -> int:
        """After the drain: read every written chain key back through the
        front-end, outside every tenant's ledger.  Returns how many of
        those reads failed."""
        answers = []
        for slot in sorted(self._values):
            service, key = slot
            answer = cluster.engine.event(f"loadgen.read_back.{key}")

            def done(reply: Dict[str, Any], slot=slot, answer=answer):
                body = _reply_body(reply)
                if body is not None:
                    self._history.record_final(slot, _read_value(body))
                answer.succeed(body is not None)

            if cluster.frontend.submit(service, body={"op": "get",
                                                      "key": key},
                                       key=key, on_done=done):
                answers.append(answer)
        cluster.run_until(answers, limit=_DEPLOY_LIMIT)
        return len(self._values) - sum(1 for a in answers if a.value)

    # -- the run -----------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Build, run to the end cycle, collect."""
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
        for act in scn.chaos_plan():
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
            self.diagnostics = {
                "spans": cluster.merged_spans(),
                "stats": cluster.stats_snapshots(),
                "slo": cluster.slo.report(end),
                "flight": cluster.flight_reports(),
            }
        report = self._report(end, drain, offered, timeline)
        if self._scalers:
            report.data["autoscale"] = self._autoscale_section()
        chains = [svc.name for svc in scn.services if svc.kind == "chain"]
        if chains:
            report.data["replication"] = self._replication_section(chains)
            failed = self._read_back(cluster)
            report.data["consistency"] = dict(self._history.check(),
                                              failed_final_reads=failed)
        return report

    def _autoscale_section(self) -> Dict[str, Any]:
        """Each autoscaler's decisions, and where its replicas landed."""
        cluster = self.cluster
        section: Dict[str, Any] = {
            "cache": (cluster.bitplane.telemetry()
                      if cluster.bitplane is not None else None),
            "services": {},
        }
        for name, scaler in sorted(self._scalers.items()):
            section["services"][name] = {
                "events": [list(e) for e in scaler.events],
                "scale_ups": scaler.scale_ups,
                "scale_downs": scaler.scale_downs,
                "replacements": scaler.replacements,
                "final_replicas": len(scaler.ready_instances()),
                "reconfig_cycles": scaler.reconfig_cycles,
                # every replica the service ever had (the front-end keeps
                # a retired replica's row) and the board it landed on
                "placement": {iid: health.inst.fpga for iid, health
                              in cluster.frontend.health.items()
                              if health.inst.service == name},
            }
        return section

    def _replication_section(self, chains: List[str]) -> Dict[str, Any]:
        """The manager's repairs, and every chain's length and epoch as
        the directory holds them."""
        cluster = self.cluster
        section: Dict[str, Any] = {
            "repair": cluster.replication.repair_summary(),
            "writes_unreplicated":
                cluster.frontend.telemetry()["writes_unreplicated"],
            "chains": {},
        }
        for name in chains:
            spec = cluster.directory.spec(name)
            section["chains"][name] = {
                str(shard): {"length": len(spec.chains[shard]),
                             "epoch": spec.epochs.get(shard, 0)}
                for shard in sorted(spec.chains)}
        return section

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


def run_scenario(scenario) -> ScenarioReport:
    """One-call convenience: dict or Scenario in, ScenarioReport out (on
    the shared backend)."""
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    return ScenarioRunner(scenario).run()
