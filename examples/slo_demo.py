#!/usr/bin/env python3
"""SLO burn-rate demo: chaos on a 4-board cluster, observed end to end.

Boots a 4-FPGA Apiary cluster with the full observability plane armed —
cluster-wide tracing, per-board flight recorders, a declarative SLO
engine fed by the front-end — then serves a closed-loop echo workload
(twelve clients, each submitting its next request when the last one is
answered) while a seeded chaos plan crashes tiles and stalls NoC routers
on one board, and a second board is killed outright mid-run.  Afterwards
it prints:

* the SLO report: per-target verdicts, error-budget spend, and the
  deterministic multi-window burn-rate alert sweep;
* the autoscaler's decision log (it scales on the SLO fast-burn signal,
  not just queue depth);
* each board's flight-recorder state — the killed board's dump is the
  black box explaining what it was doing when it died;
* a cycle-accounting flamegraph (folded-stack file + top-N table)
  attributing every request cycle to component:stage.

Run:  python examples/slo_demo.py [--out slo_demo.folded]
"""

import argparse
from functools import partial

from repro.chaos import FaultKind, FaultPlan, Injector
from repro.cluster import Cluster, ClusterConfig, ObsConfig
from repro.obs import CycleProfiler, SLOTarget, validate_flight_dump
from repro.policy import RetryPolicy

#: closed-loop clients, and the requests each one issues
CLIENTS = 12
REQUESTS = 200


def echo_factory():
    def handler(body):
        return 3_000, {"echo": body.get("x") if isinstance(body, dict)
                       else None}, 64
    return handler


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="slo_demo.folded",
                        help="folded-stack flamegraph output path")
    parser.add_argument("--duration", type=int, default=600_000,
                        help="serving phase length in cycles")
    args = parser.parse_args(argv)

    cluster = Cluster(ClusterConfig(
        n_fpgas=4,
        obs=ObsConfig(tracing=True, flight_recorders=True, slo_targets=(
            SLOTarget("availability", "echo", objective=0.99),
            # tight bound on purpose: failover detours during the chaos
            # phase land past it, so the demo shows real budget burn
            SLOTarget("latency-p95", "echo", objective=0.95,
                      latency_cycles=15_000),
        ))))
    cluster.boot()  # boards up; tracing, black boxes and SLO engine armed
    slo = cluster.slo

    started = cluster.deploy_stateless("echo", echo_factory, instances=4)
    cluster.run_until(started, limit=50_000_000)
    frontend = cluster.start_frontend(
        max_pending=64,
        retry=RetryPolicy(deadline=300_000, attempt_timeout=60_000,
                          backoff_base=200, backoff_cap=2_000))
    scaler = cluster.start_autoscaler("echo", max_replicas=8, slo=slo)
    cluster.run(until=cluster.engine.now + 5_000)

    # chaos on board 1: crash serving tiles, stall a router.  The plan is
    # seeded and pre-materialized — rerunning this script reproduces the
    # exact same faults at the exact same cycles.
    board1 = cluster.systems[1]
    nodes = [inst.node for inst in cluster.directory.instances_on(1)]
    plan = FaultPlan.generate(
        seed=7, duration=args.duration,
        rates={FaultKind.TILE_CRASH: 4.0,
               FaultKind.NOC_ROUTER_STALL: 2.0},
        targets={FaultKind.TILE_CRASH: nodes or [4],
                 FaultKind.NOC_ROUTER_STALL: [0, 1, 2]},
        min_events={FaultKind.TILE_CRASH: 2,
                    FaultKind.NOC_ROUTER_STALL: 1})
    Injector(board1, plan).arm()
    print(plan.describe())
    print()

    tally = dict.fromkeys(("ok", "rejected", "failed", "dropped"), 0)

    def issue(tenant, i):
        """Submit the client's request ``i``; its answer issues the next.
        A dropped request (the backlog was full) is never answered, so the
        client goes straight on to the next one."""
        while i < REQUESTS:
            if frontend.submit("echo", body={"x": i}, tenant=tenant,
                               on_done=partial(answered, tenant, i)):
                return
            tally["dropped"] += 1
            i += 1

    def answered(tenant, i, reply):
        outcome = ("ok" if reply["ok"] else
                   "rejected" if reply.get("rejected") else "failed")
        tally[outcome] += 1
        issue(tenant, i + 1)

    start = cluster.engine.now
    for c in range(CLIENTS):
        issue(f"tenant{c % 3}", 0)

    # board 3 loses power halfway through the serving phase
    cluster.run(until=start + args.duration // 2)
    print(f"cycle {cluster.engine.now}: killing fpga3\n")
    cluster.kill_fpga(3)
    cluster.run(until=start + args.duration)
    end = cluster.engine.now

    print(f"served {tally['ok']} requests ({tally['rejected']} rejected, "
          f"{tally['failed']} failed, {tally['dropped']} dropped), "
          f"{frontend.failovers} failovers\n")

    print(slo.report_text(end))
    print()

    print("autoscaler decisions:")
    for cycle, action, iid, replicas, info in scaler.events:
        print(f"  cycle {cycle:>9}  {action:<14} {iid:<10} "
              f"replicas={replicas} {info}")
    print()

    for board, report in sorted(cluster.flight_reports().items()):
        dumps = report["dumps"]
        line = (f"{board}: {report['seen']} entries seen, "
                f"{len(report['entries'])} ringed, {len(dumps)} dump(s)")
        for doc in dumps:
            entries = validate_flight_dump(doc)
            line += (f"\n  dump @ cycle {doc['cycle']} "
                     f"reason={doc['reason']!r} ({entries} entries, valid)")
        print(line)
    print()

    profiler = CycleProfiler(cluster.span_index())
    print(profiler.render_top(8))
    lines = profiler.write_folded(args.out)
    print(f"\nWrote {args.out} ({lines} stacks) — render with "
          "flamegraph.pl or drop into https://www.speedscope.app.")


if __name__ == "__main__":
    main()
