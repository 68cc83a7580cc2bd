"""The four benchmark workloads, as frozen declarations taking a seed.

Every workload is an open loop: arrival cycles (and, for ``noc_flood``,
packet destinations) are materialised from the seed before the run and
fire on schedule whatever the simulated system is doing.  The simulated
program receives only these generated inputs.

Each workload is chosen to load some layers and bypass others, so that
an optimisation has one workload that exercises its mechanism and one
on which the prediction is *no change* (see ``perf/README.md``,
"Predicted interactions").  ``parallel`` is deliberately not a backend
here: on a 2-core box it measures the host scheduler, not the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple, Union

import numpy as np

from repro.loadgen import (
    ArrivalSpec,
    ChaosAction,
    Scenario,
    ServiceDecl,
    TenantSpec,
    arrival_times,
)
from repro.obs.slo import SLOTarget
from repro.sim import RngPool

__all__ = ["FloodSpec", "Workload", "WORKLOADS", "flood_destinations",
           "offered_requests", "pin_offered"]

#: the windowed backends advance in windows of the fabric latency; slice
#: boundaries on a multiple of it leave the window schedule untouched
WINDOW_CYCLES = 500


@dataclass(frozen=True)
class FloodSpec:
    """A bare-NoC flood: every node of a ``width`` x ``height`` mesh
    streams ``payload_bytes`` packets for ``cycles`` cycles, node *i*
    to ``destinations[i]`` in order."""

    name: str
    seed: int
    destinations: Tuple[Tuple[int, ...], ...]
    width: int = 8
    height: int = 8
    payload_bytes: int = 96
    cycles: int = 2_500


def flood_destinations(seed: int, nodes: int, count: int
                       ) -> Tuple[Tuple[int, ...], ...]:
    """``count`` destinations for each of ``nodes`` senders, a pure
    function of ``seed``, uniform over the *other* nodes.

    How congested the mesh gets still depends on the draw: packets
    delivered (and with them ``run_s``) vary by ~2 % between seeds,
    engine events *per packet* by 0.3 % — so ``served_per_host_s`` is
    the steadier figure on this workload.
    """
    rng = np.random.default_rng([seed, 0x0F100D])
    offsets = rng.integers(1, nodes, size=(nodes, count))
    return tuple(tuple((node + int(off)) % nodes for off in offsets[node])
                 for node in range(nodes))


#: how far a pinned scenario's offered count may sit from nominal
OFFERED_TOLERANCE = 0.0025
#: scenario seeds tried per benchmark seed (a hit takes ~10-20 tries)
_PIN_TRIES = 1_000


def offered_requests(scenario: Scenario) -> int:
    """How many requests ``scenario`` will offer, without running it.

    Materialises each tenant's arrival schedule the way the runner does
    (stream ``gaps`` of the pool forked ``tenant.<name>``).  Should the
    runner ever name its streams differently this prediction drifts from
    the run and the benchmark merely stops pinning: nothing fails, and
    ``attempted`` wandering by 2-3 % between seeds is how it shows.
    """
    return sum(
        len(arrival_times(tenant.arrival, scenario.duration,
                          RngPool(scenario.seed).fork(f"tenant.{tenant.name}"),
                          stream="gaps"))
        for tenant in scenario.tenants)


def pin_offered(factory: Callable[[int], Scenario], seed: int) -> Scenario:
    """The scenario for benchmark seed ``seed``, offered load pinned.

    A Poisson schedule of *N* arrivals has a count spread of 1/sqrt(N):
    2-3 % at these sizes, which would pass straight into ``run_s`` and
    hide a code change of the same size behind the dice.  So the seed
    names a *stream* of scenario seeds (``seed * 1000 + i``) and the
    first whose offered count lies within ``OFFERED_TOLERANCE`` of the
    nominal ``rate x duration`` is the input.  Conditioned on its count
    a Poisson process is still a Poisson process: arrival pattern, keys
    and read/write mix all still vary with the seed.
    """
    for i in range(_PIN_TRIES):
        scenario = factory(seed * _PIN_TRIES + i)
        nominal = sum(t.arrival.rate_per_kcycle for t in scenario.tenants) \
            * scenario.duration / 1000.0
        if abs(offered_requests(scenario) - nominal) \
                <= OFFERED_TOLERANCE * nominal:
            break
    return scenario


def _availability(latency_cycles: int, objective: float = 0.99):
    return (SLOTarget("kv-availability", "kv", objective=objective,
                      latency_cycles=latency_cycles),)


def kv_hot(seed: int) -> Scenario:
    """Hot read-mostly key-value serving on the ``shared`` backend.

    Why: the highest request rate the 2-board cluster serves without
    queueing collapse, so request-driven events are the large majority
    (the idle 2-board background is ~0.09 schedules/cycle against ~300
    schedules per request).  Loads the per-request path — ``cluster``
    front-end admission/batching, ``policy`` retry bookkeeping,
    ``kernel`` monitors, ``net`` transport, ``noc`` flits.  Bypasses the
    windowed protocol and envelope pickling entirely, and idle
    background matters least here.
    """
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2, work_cycles=500)
    return Scenario(
        name="kv_hot", seed=seed, duration=800_000, n_fpgas=2,
        services=(kv,),
        tenants=tuple(
            TenantSpec(name, "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=2.0),
                       read_fraction=0.95)
            for name in ("alpha", "beta")),
        slos=_availability(50_000),
        expect_pass=True,
    )


def idle_cluster(seed: int) -> Scenario:
    """A 4-board cluster with almost nothing offered (``shared``).

    Why: about three quarters of the engine events happen with no
    request in flight — router/NI re-arming, liveness probes,
    heartbeats.  This is the workload on which sleeping routers and
    coalesced probes (ROADMAP item 2) must show, and on which
    per-request work matters least; it loads ``noc`` router loops,
    ``cluster`` probers and the ``sim`` timer path, and nearly bypasses
    admission, batching and retry policy.
    """
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="idle_cluster", seed=seed, duration=5_000_000, n_fpgas=4,
        services=(kv,),
        tenants=(
            TenantSpec("trickle", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.2),
                       read_fraction=0.8),
        ),
        slos=_availability(50_000),
        expect_pass=True,
    )


def write_chaos_windowed(seed: int) -> Scenario:
    """Write-heavy load through a kill, a partition and a heal on the
    ``sequential`` (windowed) backend.

    Why: the same ``cluster``/``net`` layers used differently — the
    conservative-window protocol, envelope pickling at every barrier,
    cross-board write fan-out, failover and recovery.  A gain bought
    for the shared read path at the windowed write path's expense shows
    here, and ROADMAP item 3 (one execution protocol) has its row.
    Shard *s* lives on boards (*s*, *s*+1) mod 4, so killing board 3
    and partitioning board 1 always leaves every shard a live replica:
    failovers absorb the faults and no request fails.
    """
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="write_chaos_windowed", seed=seed, duration=2_000_000,
        n_fpgas=4, services=(kv,),
        tenants=tuple(
            TenantSpec(name, "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.4),
                       read_fraction=0.2)
            for name in ("alpha", "beta")),
        chaos=(
            ChaosAction(at=600_000, action="kill", board=3),
            ChaosAction(at=1_100_000, action="partition", board=1),
            ChaosAction(at=1_500_000, action="heal", board=1),
        ),
        slos=_availability(80_000, objective=0.95),
        expect_pass=True,
    )


def noc_flood(seed: int) -> FloodSpec:
    """A saturated 8x8 mesh with no operating system on it.

    Why: ``noc`` and ``sim`` do all the work and ``kernel``/``cluster``/
    ``net`` none.  Routers never idle, so idle-sleep optimisations
    predict *no change* here while flit-path ones (switch allocation,
    link callbacks, credits) predict the most — the bypass workload for
    everything above the NoC.
    """
    width = height = 8
    cycles = 2_500
    # one destination per cycle is more than a node can inject (a
    # 96-byte packet is several flits): a sender never runs off its list
    return FloodSpec("noc_flood", seed,
                     flood_destinations(seed, width * height, cycles),
                     width=width, height=height, cycles=cycles)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its inputs and how to slice
    its run.  ``slice_cycles`` is the simulated width of one host-time
    slice (see :mod:`perf.slicing`)."""

    name: str
    build: Callable[[int], Union[Scenario, FloodSpec]]
    backend: str
    slice_cycles: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("kv_hot", partial(pin_offered, kv_hot), "shared", 50_000,
                 "hot read-mostly kv on 2 boards: per-request cluster/"
                 "policy/kernel/net cost dominates, idle background least"),
        Workload("idle_cluster", partial(pin_offered, idle_cluster),
                 "shared", 100_000,
                 "4 boards, 0.2 req/kcycle: ~3/4 of events are idle "
                 "router/probe/heartbeat background"),
        Workload("write_chaos_windowed",
                 partial(pin_offered, write_chaos_windowed),
                 "sequential", 50_000,
                 "write-heavy kill/partition/heal on the windowed backend: "
                 "window protocol, envelope pickling, fan-out, failover"),
        Workload("noc_flood", noc_flood, "engine", 100,
                 "bare Engine + saturated 8x8 mesh: noc+sim only, routers "
                 "never idle, kernel/cluster/net bypassed"),
    )
}

for _w in WORKLOADS.values():
    if _w.backend == "sequential" and _w.slice_cycles % WINDOW_CYCLES:
        raise ValueError(f"{_w.name}: slice width must be a multiple of "
                         f"the {WINDOW_CYCLES}-cycle window")
