"""A4 — ablation: fabric topology (mesh vs torus) under uniform traffic.

Section 4.3 picks "a NoC" without fixing the topology; hardened NoCs on
real parts are effectively meshes.  This ablation quantifies what a torus
would buy Apiary: shorter average distance (wraparound halves the mean
hop count) at the cost of the wrap links — and shows the router/topology
layers are genuinely pluggable.
"""

import numpy as np
import pytest

from repro.eval import format_table
from repro.eval.report import record
from repro.noc import Mesh2D, Network, Torus2D
from repro.sim import Engine, RngPool

SIZE = 4
N_PACKETS_PER_NODE = 12


def run_topology(topo_cls):
    """Routing follows the topology: XY on the mesh, torus XY with
    dateline VCs on the torus."""
    engine = Engine()
    topo = topo_cls(SIZE, SIZE)
    net = Network(engine, topo, num_vcs=2)
    rng = RngPool(seed=5).stream("traffic")
    total = topo.node_count * N_PACKETS_PER_NODE
    done = {"received": 0}

    def sender(node):
        ni = net.interface(node)
        for _ in range(N_PACKETS_PER_NODE):
            dst = int(rng.integers(0, topo.node_count))
            yield ni.send(dst, payload_bytes=64)
            yield int(rng.integers(10, 200))

    def receiver(node):
        ni = net.interface(node)
        while done["received"] < total:
            yield ni.recv()
            done["received"] += 1

    for node in topo.nodes():
        engine.process(sender(node))
        engine.process(receiver(node))
    while done["received"] < total and engine.pending_events():
        engine.run(until=engine.now + 10_000)
    lat = net.stats.sketch("noc.packet_latency")
    hops = net.stats.sketch("noc.packet_hops")
    mean_distance = np.mean([
        topo.hop_distance(a, b)
        for a in topo.nodes() for b in topo.nodes()
    ])
    return {
        "delivered": done["received"],
        "latency_p50": lat.percentile(50),
        "latency_mean": lat.mean(),
        "hops_mean": hops.mean(),
        "analytic_mean_distance": float(mean_distance),
        "links": len(topo.links()),
    }


def test_bench_topology(benchmark):
    def run_all():
        return {
            "mesh 4x4": run_topology(Mesh2D),
            "torus 4x4": run_topology(Torus2D),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    mesh = results["mesh 4x4"]
    torus = results["torus 4x4"]
    total = SIZE * SIZE * N_PACKETS_PER_NODE
    assert mesh["delivered"] == total
    assert torus["delivered"] == total
    # torus halves the mean distance on a 4x4 (2.5 -> 2.0 incl. self)...
    assert torus["analytic_mean_distance"] < mesh["analytic_mean_distance"]
    assert torus["hops_mean"] < mesh["hops_mean"]
    # ...and that shows up in delivered latency
    assert torus["latency_mean"] < mesh["latency_mean"]
    # at the price of more links
    assert torus["links"] > mesh["links"]

    rows = [[name, r["links"], round(r["analytic_mean_distance"], 2),
             round(r["hops_mean"], 2), r["latency_p50"],
             round(r["latency_mean"], 1)]
            for name, r in results.items()]
    record("A4", "Topology ablation: uniform random traffic, "
                 f"{total} packets of 64B",
           format_table(["topology", "links", "mean dist", "mean hops",
                         "p50 lat", "mean lat"], rows))
