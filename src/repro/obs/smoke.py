"""Reusable observability-plane experiment: the O1 run.

One parameterized harness shared by the unit tests, the O1 benchmark,
the CI ``obs-smoke`` job, and the SLO demo — a cluster serving a
closed-loop echo workload while one board dies mid-run, with the whole
observability plane either on (sketches ride along always; tracing, SLO
engine, flight recorders, profiler) or off (the overhead baseline).

Everything returned derives from the simulated clock and seeded
streams, so two calls with the same arguments produce identical dicts —
and with ``identity=True`` the payload extends the sequential ≡ parallel
PDES byte-identity check across merged sketches, SLO verdicts, and
flight-recorder dumps.

Lives outside ``repro.obs.__init__`` on purpose: it imports the cluster
stack, which the obs package itself must stay independent of.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.config import ObsConfig
from repro.cluster.smoke import _build, echo_handler_factory, span_dump
from repro.obs.flight import validate_flight_dump
from repro.obs.profile import CycleProfiler
from repro.obs.slo import SLOTarget
from repro.policy import RetryPolicy
from repro.workloads.client import ClusterClient

__all__ = ["obs_plane_smoke", "default_targets"]


def default_targets(service: str = "echo",
                    latency_cycles: int = 60_000) -> List[SLOTarget]:
    """The two objectives every serving system states first.

    Availability (answered, not rejected/failed) and a latency bound —
    plus a per-tenant copy of the latency objective so the multi-tenant
    accounting path stays exercised.
    """
    return [
        SLOTarget("availability", service, objective=0.99),
        SLOTarget("latency-p", service, objective=0.95,
                  latency_cycles=latency_cycles),
        SLOTarget("latency-p", service, objective=0.95,
                  latency_cycles=latency_cycles, tenant="tenant0"),
    ]


def obs_plane_smoke(
    n_fpgas: int = 2,
    seed: int = 0,
    duration: int = 400_000,
    clients: int = 8,
    requests_per_client: int = 150,
    work_cycles: int = 3_000,
    instances_per_fpga: int = 1,
    max_pending: int = 64,
    observability: bool = True,
    kill_index: Optional[int] = 1,
    kill_after: int = 150_000,
    backend: str = "shared",
    identity: bool = False,
    dump_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
    folded_path: Optional[str] = None,
    latency_slo: int = 60_000,
    targets: Optional[Sequence[SLOTarget]] = None,
) -> Dict[str, Any]:
    """Closed-loop echo against ``n_fpgas`` boards with a mid-run kill.

    With ``observability=True`` the full plane is armed: cluster-wide
    tracing, per-board flight recorders (dumping on the kill), an SLO
    engine fed by the front-end, and a cycle profiler over the merged
    span tree.  With ``False`` none of it runs — the pair of runs is the
    O1 enabled-vs-disabled overhead measurement (time the calls from the
    outside; the simulated workload is identical).

    ``identity=True`` attaches the payload the PDES determinism checks
    compare between backends: spans, per-board stats snapshots (which
    now carry the sketch summaries), the SLO report, and per-board
    flight reports including retained dump documents.
    """
    obs = ObsConfig()
    if observability:
        if targets is None:
            targets = default_targets("echo", latency_slo)
        obs = ObsConfig(tracing=True, flight_recorders=True,
                        flight_dump_dir=dump_dir, slo=True,
                        slo_targets=tuple(targets))
    cluster = _build(n_fpgas, seed, swallow_orphan_errors=True,
                     backend=backend, obs=obs)

    started = cluster.deploy_stateless(
        "echo", echo_handler_factory(work_cycles),
        instances=instances_per_fpga * n_fpgas)
    cluster.run_until(started, limit=50_000_000)
    patient = RetryPolicy(
        deadline=duration,
        attempt_timeout=max(30_000, 2 * work_cycles * max(1, clients)),
        backoff_base=200, backoff_cap=2_000)
    frontend = cluster.start_frontend(max_pending=max_pending,
                                      retry=patient)
    cluster.run(until=cluster.engine.now + 5_000)
    cluster.seal()

    hosts = []
    start = cluster.engine.now
    for c in range(clients):
        host = ClusterClient(cluster.engine, cluster.fabric, f"host{c}")
        requests = [{"body": {"x": c * requests_per_client + i},
                     "tenant": f"tenant{c % 2}"}
                    for i in range(requests_per_client)]
        cluster.engine.process(
            host.closed_loop_service("echo", requests, timeout=duration),
            name=f"{host.mac}.loop")
        hosts.append(host)
    if kill_index is not None and n_fpgas > 1:
        cluster.run(until=start + kill_after)
        cluster.kill_fpga(kill_index)
    cluster.run(until=start + duration)
    end = cluster.engine.now

    ok = sum(h.ok for h in hosts)
    stats: Dict[str, Any] = {
        "n_fpgas": n_fpgas,
        "backend": backend,
        "observability": observability,
        "killed_fpga": kill_index if n_fpgas > 1 else None,
        "elapsed_cycles": end - start,
        "completed": ok,
        "rejected": sum(h.rejected for h in hosts),
        "failed": sum(h.failed for h in hosts),
        "frontend": {
            "admitted": frontend.requests_admitted,
            "rejected": frontend.requests_rejected,
            "failed": frontend.requests_failed,
            "failovers": frontend.failovers,
        },
    }

    if observability:
        stats["slo"] = cluster.slo.report(end)
        stats["slo_text"] = cluster.slo.report_text(end)
        index = cluster.span_index()
        profiler = CycleProfiler(index)
        stats["profile"] = {
            "traces": profiler.traces,
            "total_cycles": profiler.total_cycles,
            "top": profiler.top(10),
        }
        if folded_path is not None:
            stats["profile"]["folded_lines"] = profiler.write_folded(
                folded_path)
        if trace_path is not None:
            from repro.obs.export import export_chrome_trace
            doc = export_chrome_trace(trace_path, cluster.merged_spans())
            stats["trace_events"] = len(doc["traceEvents"])
        flights: Dict[str, Any] = {}
        for board, report in sorted(cluster.flight_reports().items()):
            if report is None:
                flights[board] = None
                continue
            # every retained dump must be structurally valid — the same
            # gate CI applies to the on-disk artifact before uploading
            flights[board] = {
                "seen": report["seen"],
                "ring": len(report["entries"]),
                "dumps": len(report["dumps"]),
                "dump_reasons": [d["reason"] for d in report["dumps"]],
                "dump_entries": [validate_flight_dump(d)
                                 for d in report["dumps"]],
            }
        stats["flight"] = flights

    if identity:
        payload: Dict[str, Any] = {
            "spans": span_dump(cluster.merged_spans()),
            "stats": cluster.stats_snapshots(),
        }
        if observability:
            payload["slo"] = cluster.slo.report(end)
            payload["flight"] = cluster.flight_reports()
        stats["identity"] = payload
    cluster.shutdown()
    return stats
