"""D8 — scale-out: replicated encoder behind internal load balancing.

Design goal "Scalability: Apiary should ... support scale out of those
elements, without manual optimization" and Section 4.1's "replicated
accelerator with internal load balancing for higher bandwidth".  We sweep
the replica count and measure encoding throughput of a fixed chunk burst.
"""

import pytest

from repro.accel import Accelerator
from repro.apps import deploy_replicated_encoder
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import ApiarySystem

REPLICA_SETS = {
    1: [4],
    2: [4, 6],
    4: [4, 6, 8, 9],
    8: [4, 6, 8, 9, 10, 12, 13, 14],
}
N_CHUNKS = 24
FRAMES = 2


class BurstClient(Accelerator):
    def __init__(self):
        super().__init__("burst")
        self.elapsed = None

    def main(self, shell):
        payloads = [{"stream": f"s{i}", "frames": FRAMES, "bytes": 40_000}
                    for i in range(N_CHUNKS)]
        t0 = shell.engine.now
        events = [shell.call("app.enc.lb", "encode", payload=p,
                             payload_bytes=64, timeout=2_000_000_000)
                  for p in payloads]
        yield shell.engine.all_of(events)
        self.elapsed = shell.engine.now - t0


def run_replicas(n_replicas):
    system = ApiarySystem()
    system.boot()
    balancer, replicas, started = deploy_replicated_encoder(
        system, lb_node=5, replica_nodes=REPLICA_SETS[n_replicas]
    )
    for ev in started:
        system.run_until(ev)
    client = BurstClient()
    s = system.start_app(15, client)
    system.mgmt.grant_send("tile15", "app.enc.lb")
    system.run_until(s)
    system.run(until=system.engine.now + 4_000_000_000)
    assert client.elapsed is not None
    spread = max(balancer.replica_counts.values()) - min(
        balancer.replica_counts.values()
    )
    return {"elapsed": client.elapsed, "spread": spread,
            "encoded": sum(r.chunks_encoded for r in replicas)}


def run_sweep():
    return {n: run_replicas(n) for n in REPLICA_SETS}


def test_bench_scaleout(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    base = results[1]["elapsed"]
    rows = []
    for n, r in results.items():
        speedup = base / r["elapsed"]
        rows.append([n, r["elapsed"], round(speedup, 2),
                     round(speedup / n, 2), r["spread"]])
        assert r["encoded"] == N_CHUNKS

    # scaling shape: near-linear to 4 replicas, diminishing by 8 (the
    # balancer/NoC become the shared stage)
    assert results[2]["elapsed"] < 0.62 * results[1]["elapsed"]
    assert results[4]["elapsed"] < 0.40 * results[1]["elapsed"]
    assert results[8]["elapsed"] <= results[4]["elapsed"]
    # internal balancing is even: replica loads differ by at most 1
    assert all(r["spread"] <= 1 for r in results.values())

    record("D8", f"Scale-out: {N_CHUNKS}-chunk encode burst vs replica count "
                 "(load balancer on one tile)",
           format_table(["replicas", "burst cycles", "speedup",
                         "efficiency", "load spread"], rows))
