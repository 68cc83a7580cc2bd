"""The canned scenario library: twelve named, seeded, SLO-scored runs.

Each factory returns a frozen :class:`~repro.loadgen.scenario.Scenario`
tuned so its declared ``expect_pass`` holds with margin — these are the
fixtures every later scaling PR reports against, so their verdicts (and
their report bytes, for the CI-pinned ones) must be boring.  Eight are
serving runs (S1, O1 and T2 use them); ``autoscale_step`` /
``autoscale_chaos`` (S2), ``cache_step`` (C1) and ``replication_chaos``
(R2) drive the autoscaler and the replication manager.

Rough capacity math behind the tuning: a kv service serves from its
shard primaries, so capacity ≈ ``shards × 1000 / work_cycles`` requests
per kilocycle; an echo service ≈ ``instances × 1000 / work_cycles``.
Passing scenarios sit well under that; ``overload_probe`` sits ~7× over
it on purpose; ``scale_out`` sits 4× over it at every cluster size.

The front-end rule a saturating scenario respects if it wants no failed
requests and counts that agree across backends: a request admitted
behind a full in-flight budget waits up to ``max_pending / instances``
service times before its backend even starts on it, so
``attempt_timeout`` must clear ``2 × work_cycles × max_pending /
instances`` — or health tracking mistakes overload for death, every
attempt times out, and failovers feed the very queue that caused them
(``overload_probe`` breaks the rule on purpose and is scored on one
backend; ``scale_out`` keeps it).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.loadgen.arrivals import ArrivalSpec, EnvelopeSpec
from repro.loadgen.scenario import (
    ChaosAction,
    Scenario,
    ServiceDecl,
    TenantSpec,
)
from repro.obs.slo import SLOTarget

__all__ = ["SCENARIOS", "get_scenario", "scenario_names",
           "steady_state", "diurnal_day", "flash_crowd", "tenant_storm",
           "chaos_soak", "overload_probe", "scale_out", "board_kill",
           "autoscale_step", "autoscale_chaos", "cache_step",
           "replication_chaos"]


def steady_state(seed: int = 0) -> Scenario:
    """Two tenants, flat Poisson load at ~30% utilization: the baseline
    everything else perturbs.  Must pass."""
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="steady_state", seed=seed, duration=600_000, n_fpgas=2,
        services=(kv,),
        tenants=(
            TenantSpec("alpha", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.3)),
            TenantSpec("beta", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.3),
                       read_fraction=0.5),
        ),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.99,
                      latency_cycles=50_000),
            SLOTarget("alpha-latency", "kv", objective=0.95,
                      latency_cycles=30_000, tenant="alpha"),
        ),
        expect_pass=True,
    )


def diurnal_day(seed: int = 0) -> Scenario:
    """A compressed day: one diurnal tenant swinging 0.3×–1.5× over the
    window on top of a flat colleague.  Peak stays under capacity, so
    the day must pass."""
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="diurnal_day", seed=seed, duration=800_000, n_fpgas=2,
        services=(kv,),
        tenants=(
            TenantSpec("daily", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.4,
                                   envelopes=(EnvelopeSpec(
                                       "diurnal", low=0.3, high=1.5),))),
            TenantSpec("flat", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.2)),
        ),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.99,
                      latency_cycles=50_000),
        ),
        expect_pass=True,
    )


def flash_crowd(seed: int = 0) -> Scenario:
    """A 4× crowd spike for 100 kilocycles against a 4-board cluster.

    The spike pushes the crowd tenant to ~2.0 requests/kcycle against
    ~8/kcycle of shard capacity — Zipf popularity concentrates roughly a
    quarter of each tenant's traffic on the hottest shard, so the *hot
    shard* peaks near 60% utilization: queues grow, admission control
    holds, and both tenants' SLOs must survive the surge.  One of the
    two CI-pinned T2 scenarios.
    """
    kv = ServiceDecl("kv", kind="kv", shards=8, replicas=2,
                     work_cycles=1_000)
    return Scenario(
        name="flash_crowd", seed=seed, duration=600_000, n_fpgas=4,
        services=(kv,),
        tenants=(
            TenantSpec("crowd", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.5,
                                   envelopes=(EnvelopeSpec(
                                       "spike", low=1.0, high=4.0,
                                       start=200_000, end=300_000),))),
            TenantSpec("background", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.5),
                       read_fraction=0.8),
        ),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.99,
                      latency_cycles=60_000),
            SLOTarget("crowd-latency", "kv", objective=0.95,
                      latency_cycles=60_000, tenant="crowd"),
            SLOTarget("background-latency", "kv", objective=0.95,
                      latency_cycles=60_000, tenant="background"),
        ),
        expect_pass=True,
    )


def tenant_storm(seed: int = 0) -> Scenario:
    """Two polite Poisson tenants share a service with a heavy-tailed
    rogue whose bursts overrun the cluster.  Per-tenant SLO rows show
    who actually suffered; no top-level expectation is declared — the
    interesting output is the per-tenant breakdown, not the verdict."""
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="tenant_storm", seed=seed, duration=600_000, n_fpgas=2,
        services=(kv,),
        tenants=(
            TenantSpec("alpha", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.3)),
            TenantSpec("beta", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.3)),
            TenantSpec("rogue", "kv",
                       ArrivalSpec("lognormal", rate_per_kcycle=1.6,
                                   sigma=2.0),
                       read_fraction=0.2, key_universe=64),
        ),
        slos=(
            SLOTarget("alpha-latency", "kv", objective=0.95,
                      latency_cycles=40_000, tenant="alpha"),
            SLOTarget("beta-latency", "kv", objective=0.95,
                      latency_cycles=40_000, tenant="beta"),
            SLOTarget("rogue-latency", "kv", objective=0.95,
                      latency_cycles=40_000, tenant="rogue"),
        ),
    )


def chaos_soak(seed: int = 0) -> Scenario:
    """Moderate load on 4 boards through a board kill, a network
    partition, and a heal.  Replication is arranged so every shard
    keeps a live replica throughout; failovers absorb the faults and
    the run must still pass.  The second CI-pinned T2 scenario."""
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=2_000)
    return Scenario(
        name="chaos_soak", seed=seed, duration=800_000, n_fpgas=4,
        services=(kv,),
        tenants=(
            TenantSpec("alpha", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.4)),
            TenantSpec("beta", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.4),
                       read_fraction=0.5),
        ),
        chaos=(
            # shard s lives on boards (s, s+1) mod 4: killing board 3
            # and partitioning board 1 still leaves every shard one
            # reachable replica — failover territory, not an outage
            ChaosAction(at=250_000, action="kill", board=3),
            ChaosAction(at=450_000, action="partition", board=1),
            ChaosAction(at=600_000, action="heal", board=1),
        ),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.95,
                      latency_cycles=80_000),
        ),
        expect_pass=True,
    )


def overload_probe(seed: int = 0) -> Scenario:
    """~7× sustained overload of a tiny echo deployment.

    The open-loop acceptance probe: arrivals keep firing at 3.5/kcycle
    against ~0.5/kcycle of capacity, so offered load must exceed served
    goodput by a wide margin, the backlog must drop, and the SLO must
    fail — ``expect_pass=False`` is the *correct* outcome."""
    echo = ServiceDecl("echo", kind="echo", instances=2,
                       work_cycles=4_000)
    return Scenario(
        name="overload_probe", seed=seed, duration=300_000, n_fpgas=2,
        services=(echo,),
        tenants=(
            TenantSpec("firehose", "echo",
                       ArrivalSpec("pareto", rate_per_kcycle=3.5,
                                   alpha=1.5)),
        ),
        slos=(
            SLOTarget("echo-availability", "echo", objective=0.99,
                      latency_cycles=50_000),
        ),
        expect_pass=False,
    )


def scale_out(seed: int = 0, n_fpgas: int = 2) -> Scenario:
    """S1's scaling run: saturate ``n_fpgas`` boards of echo instances.

    Two instances per board, one open-loop tenant offering 2 requests per
    kilocycle *per board* against 0.5 of capacity — every size is 4×
    saturated, so ``goodput_per_kcycle`` measures what the boards can
    serve and should grow linearly with ``n_fpgas``.

    The front-end budget scales with the cluster (four in flight per
    instance — one batch): a 16-kilocycle worst-case wait, inside the
    default ``attempt_timeout`` by the module's rule.  The backlog holds
    64 kilocycles of work, so overload is shed at arrival as drops,
    never by queue deadline: served == completions, and the count
    agrees between ``shared`` and ``sequential``.  With the ``Scenario``
    defaults instead (``max_pending=64``) one board logs ~9,000
    failovers and ~100 failed requests (``tests/test_loadgen.py``).  No
    verdict is declared: the SLO row fails by design, the output is the
    goodput.
    """
    echo = ServiceDecl("echo", kind="echo", instances=2 * n_fpgas,
                       work_cycles=4_000)
    return Scenario(
        name="scale_out", seed=seed, duration=300_000, n_fpgas=n_fpgas,
        services=(echo,),
        tenants=(
            TenantSpec("load", "echo",
                       ArrivalSpec("poisson",
                                   rate_per_kcycle=2.0 * n_fpgas)),
        ),
        slos=(
            SLOTarget("echo-availability", "echo", objective=0.99,
                      latency_cycles=50_000),
        ),
        max_pending=8 * n_fpgas, max_backlog=32 * n_fpgas,
    )


def board_kill(seed: int = 0) -> Scenario:
    """S1's availability run (and O1's observed run): board 1 of 2 dies
    a third of the way in.

    Sharded kv, 4 shards × 2 replicas, so every shard keeps a live
    replica on board 0; two tenants so per-tenant SLO accounting is
    exercised.  ~1,080 requests at 1.8/kcycle against 4/kcycle of
    post-kill capacity: far from attempt-timeout saturation, so the
    report is one blob on every backend, every request is served
    (``offered == served`` across the kill) and the run must pass.
    """
    kv = ServiceDecl("kv", kind="kv", shards=4, replicas=2,
                     work_cycles=1_000)
    return Scenario(
        name="board_kill", seed=seed, duration=600_000, n_fpgas=2,
        services=(kv,),
        tenants=(
            TenantSpec("alpha", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.9)),
            TenantSpec("beta", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.9),
                       read_fraction=0.5),
        ),
        chaos=(ChaosAction(at=200_000, action="kill", board=1),),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.99,
                      latency_cycles=50_000),
            SLOTarget("alpha-latency", "kv", objective=0.95,
                      latency_cycles=30_000, tenant="alpha"),
            SLOTarget("beta-latency", "kv", objective=0.95,
                      latency_cycles=30_000, tenant="beta"),
        ),
        expect_pass=True,
    )


def _window(start: int, end: int) -> EnvelopeSpec:
    """Traffic only inside ``[start, end)``: a tenant whose latency row
    is one time window of the run."""
    return EnvelopeSpec("spike", low=0.0, high=1.0, start=start, end=end)


def autoscale_step(seed: int = 0) -> Scenario:
    """S2's load step: one autoscaled echo replica meets a 4× step.

    Base load keeps one replica 37.5 % busy; the step offers 1.5× its
    capacity.  A new replica reconfigures for ~810k cycles before it
    serves, so the autoscaler sizes the whole deficit in one jump (to 4).
    Each tenant is one window: ``pre`` the base load before the step,
    ``surge`` the step while the replicas load and the backlog drains,
    ``converged`` the step once they serve (its p99 is held to 2× the
    pre-step p99 — both SLO rows say so), ``after`` the base load again,
    during which the service retreats to its floor.
    """
    echo = ServiceDecl("echo", kind="echo", instances=1, max_instances=4,
                       work_cycles=3_000)
    base, step = 0.125, 0.5
    return Scenario(
        name="autoscale_step", seed=seed, duration=2_200_000, n_fpgas=2,
        services=(echo,),
        tenants=(
            TenantSpec("pre", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=base,
                envelopes=(_window(0, 300_000),))),
            TenantSpec("surge", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=step,
                envelopes=(_window(300_000, 1_500_000),))),
            TenantSpec("converged", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=step,
                envelopes=(_window(1_500_000, 1_800_000),))),
            TenantSpec("after", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=base,
                envelopes=(_window(1_800_000, 2_200_000),))),
        ),
        slos=(
            SLOTarget("pre-latency", "echo", objective=0.99,
                      latency_cycles=10_000, tenant="pre"),
            SLOTarget("converged-latency", "echo", objective=0.99,
                      latency_cycles=10_000, tenant="converged"),
        ),
        # the step queues work instead of failing it: the budgets outlive
        # the backlog built before the new replicas serve
        max_pending=1_024, max_backlog=1_024, queue_deadline=1_500_000,
        attempt_timeout=1_500_000, retry_deadline=1_500_000,
        drain=400_000, expect_pass=True,
    )


def autoscale_chaos(seed: int = 0) -> Scenario:
    """S2's chaos run: the board holding replica 0 dies mid-run.

    Two boards and a floor of two, so the autoscaler's replacement must
    land on the survivor; no operator is in the loop.  ``recovered``
    opens after the replacement serves, and every request in it must be
    served.
    """
    echo = ServiceDecl("echo", kind="echo", instances=2, max_instances=4,
                       work_cycles=3_000)
    return Scenario(
        name="autoscale_chaos", seed=seed, duration=1_800_000, n_fpgas=2,
        services=(echo,),
        tenants=(
            TenantSpec("steady", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=0.25,
                envelopes=(_window(0, 1_450_000),))),
            TenantSpec("recovered", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=0.25,
                envelopes=(_window(1_450_000, 1_800_000),))),
        ),
        chaos=(ChaosAction(at=400_000, action="kill", board=0),),
        slos=(
            SLOTarget("recovered-availability", "echo", objective=0.99,
                      latency_cycles=20_000, tenant="recovered"),
        ),
        max_pending=64, attempt_timeout=200_000, retry_deadline=600_000,
        drain=200_000, expect_pass=True,
    )


def cache_step(seed: int = 0) -> Scenario:
    """C1's step: one autoscaled replica, an 8× step, a second replica.

    The bitstream cache comes from the runner's ``ClusterConfig``
    template: cold (``CacheConfig(enabled=True, prefetch=False,
    warm_placement=False)``) the new replica's board synthesizes the
    design first; warm (``CacheConfig(enabled=True)``) the runner
    compiled it ahead onto every board and the scale-up pays the
    reconfiguration write only.  The window outlasts a cold scale-up;
    ``start_at`` clears a cold deploy.
    """
    echo = ServiceDecl("echo", kind="echo", instances=1, max_instances=2,
                       work_cycles=3_000)
    return Scenario(
        name="cache_step", seed=seed, duration=6_000_000, n_fpgas=2,
        services=(echo,),
        tenants=(
            TenantSpec("pre", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=0.1,
                envelopes=(_window(0, 600_000),))),
            TenantSpec("step", "echo", ArrivalSpec(
                "constant", rate_per_kcycle=0.8,
                envelopes=(_window(600_000, 800_000),))),
        ),
        slos=(
            SLOTarget("pre-latency", "echo", objective=0.99,
                      latency_cycles=10_000, tenant="pre"),
        ),
        start_at=6_000_000, max_pending=1_024, max_backlog=1_024,
        queue_deadline=1_500_000, attempt_timeout=1_500_000,
        retry_deadline=1_500_000, drain=100_000, expect_pass=True,
    )


def replication_chaos(seed: int = 0) -> Scenario:
    """R2: chain-replicated KV through a head-board kill, then a fabric
    partition of another head's board, then its heal.

    Shard ``s``'s chain sits on boards ``s, s+1, s+2``: board 0 holds
    shard 0's head, board 1 shard 1's.  The partitioned board keeps
    running and believes it still leads; epochs fence it after the heal.
    The runner serializes writes per key and checks the whole history
    (``consistency``) after reading every written key back.
    """
    kv = ServiceDecl("kv", kind="chain", shards=4, replicas=3,
                     work_cycles=500)
    return Scenario(
        name="replication_chaos", seed=seed, duration=1_800_000, n_fpgas=4,
        services=(kv,),
        tenants=(
            TenantSpec("writers", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.2),
                       read_fraction=0.0, key_universe=8),
            TenantSpec("readers", "kv",
                       ArrivalSpec("poisson", rate_per_kcycle=0.2),
                       read_fraction=1.0, key_universe=8),
        ),
        chaos=(
            ChaosAction(at=350_000, action="kill", board=0),
            ChaosAction(at=1_000_000, action="partition", board=1),
            ChaosAction(at=1_700_000, action="heal", board=1),
        ),
        slos=(
            SLOTarget("kv-availability", "kv", objective=0.9,
                      latency_cycles=300_000),
        ),
        # the whole retry budget covers a repair (detection + promote)
        max_pending=512, attempt_timeout=25_000, retry_deadline=250_000,
        # and the drain a deferred splice after the heal
        drain=1_600_000, expect_pass=True,
    )


SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "steady_state": steady_state,
    "diurnal_day": diurnal_day,
    "flash_crowd": flash_crowd,
    "tenant_storm": tenant_storm,
    "chaos_soak": chaos_soak,
    "overload_probe": overload_probe,
    "scale_out": scale_out,
    "board_kill": board_kill,
    "autoscale_step": autoscale_step,
    "autoscale_chaos": autoscale_chaos,
    "cache_step": cache_step,
    "replication_chaos": replication_chaos,
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str, seed: int = 0) -> Scenario:
    """The canned scenario called ``name``, seeded."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; pick one of {scenario_names()}"
        ) from None
    return factory(seed=seed)
