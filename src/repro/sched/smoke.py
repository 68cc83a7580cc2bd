"""Reusable autoscaling experiments: the S2 load-step and chaos runs.

One parameterized harness shared by the unit tests, the S2 benchmark,
and the CI ``sched-smoke`` job: every quantity derives from the simulated
clock and seeded streams, so two calls with identical arguments return
identical results (the benchmark byte-compares the full event log).
These runs move instances at simulated runtime — board ops, so on any
backend; they run on ``shared`` and stay hand-driven until a
:mod:`repro.loadgen` scenario can declare an autoscaler.

The main run (:func:`autoscale_smoke`) drives a stateless KV service
through a three-phase open-loop load: steady base traffic, a
:data:`STEP_FACTOR`× step, then base again.  The interesting physics is the
reconfiguration cost: a new replica takes ~810k cycles of partial
reconfiguration before it serves, so the autoscaler must size the whole
deficit in one decision (jump scaling) for tail latency to converge
inside the step window.

The chaos run (:func:`autoscale_chaos_smoke`) fail-stops one replica's
tile mid-run and checks the control loop replaces it and keeps serving
with no operator in the loop.

The cache run (:func:`cache_step_smoke`) is the C1 experiment: the same
load step against a cluster with the bitstream compile-and-cache
pipeline enabled, measuring scale-up-ready time with a warm
(prefetched) vs cold (synthesize-on-demand) artifact cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.errors import TileFault
from repro.kernel.config import SystemConfig
from repro.policy import RetryPolicy
from repro.workloads.client import ClusterClient

__all__ = ["autoscale_smoke", "autoscale_chaos_smoke", "cache_step_smoke"]

# -- shared by the three runs ------------------------------------------------
N_FPGAS = 2
#: on-tile cycles of one KV request
WORK_CYCLES = 3_000
#: per-client gap between requests outside a load step
BASE_GAP = 24_000
#: open-loop clients of the S2 step and chaos runs
CLIENTS = 4
#: front-end in-flight cap of the S2 step and chaos runs
MAX_PENDING = 1_024

# -- the S2 load step (autoscale_smoke) ---------------------------------------
STEP_FACTOR = 4
#: per-request deadline: outlives worst-case queueing before scale-up lands
STEP_TIMEOUT = 1_500_000

# -- the C1 warm-vs-cold step (cache_step_smoke) ------------------------------
CACHE_CLIENTS = 2
CACHE_STEP_FACTOR = 8
CACHE_MAX_REPLICAS = 2
#: a cold scale-up pays megacycles of synthesis before it serves
CACHE_TIMEOUT = 10_000_000
CACHE_MAX_PENDING = 4_096
#: run-until-ready granularity: a chunk-quantized stop keeps reruns
#: byte-identical
CHUNK = 50_000
#: longest the step may run waiting for the scale-up replica
MAX_STEP = 12_000_000
#: chunks run after the replica is ready
DRAIN_CHUNKS = 2

# -- the S2 chaos run (autoscale_chaos_smoke) ---------------------------------
CHAOS_GAP = 12_000
CHAOS_DURATION = 1_800_000
CHAOS_KILL_AFTER = 400_000
CHAOS_MIN_REPLICAS = 2
CHAOS_TIMEOUT = 600_000
#: requests issued this long after the replacement serves must all succeed
CHAOS_SETTLE = 150_000
CHAOS_DRAIN = 200_000


def _build(seed: int, cache: CacheConfig = CacheConfig()) -> Cluster:
    # scale-down and fault injection tear live tiles down mid-traffic; a
    # straggler interrupted inside the dying tile is an orphan by design
    cluster = Cluster(ClusterConfig(
        n_fpgas=N_FPGAS,
        system=replace(SystemConfig.figure1(), seed=seed),
        swallow_orphan_errors=True,
        cache=cache,
    ))
    cluster.boot()
    return cluster


def _shared_kv_factory():
    """A stateless KV front: compute on-tile, state in shared memory.

    All replicas read/write one backing store (modelling state that
    lives in DRAM behind the memory service, not in the accelerator),
    which is what makes the service safely scalable: a request answered
    by a brand-new replica sees earlier writes.
    """
    store: Dict[Any, Any] = {}

    def make():
        def handler(body):
            op = body.get("op")
            if op == "put":
                store[body["key"]] = body["value"]
                return WORK_CYCLES, {"ok": True}, 32
            return WORK_CYCLES, {"ok": body.get("key") in store,
                                 "value": store.get(body.get("key"))}, 64
        return handler

    return make


def _pctl(values: List[int], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return float(ordered[idx])


def _open_loop_kv(host: ClusterClient, idx: int, phases, results: List,
                  timeout: int):
    """Open-loop load generator: issues on schedule, never waits."""
    engine = host.engine
    t0 = engine.now
    # stagger clients so arrivals interleave instead of bunching
    first_gap = phases[0][1]
    offset = (idx * first_gap) // 4
    if offset:
        yield offset
    n = 0
    while True:
        elapsed = engine.now - t0
        gap = None
        for end, phase_gap, tag in phases:
            if elapsed < end:
                gap, phase = phase_gap, tag
                break
        if gap is None:
            return
        key = f"k{(idx * 31 + n * 7) % 64}"
        body = ({"op": "put", "key": key, "value": n} if n % 4 == 0
                else {"op": "get", "key": key})
        issue = engine.now
        ev = host.call_service("kv", body, timeout=timeout)

        def record(done, t=issue, ph=phase):
            results.append(
                (t, None if done.failed else engine.now - t, ph))

        ev.add_callback(record)
        n += 1
        # small deterministic per-client skew keeps clients from locking
        # onto a common arrival grid (which would double requests up on
        # one instance every period and inflate the measured tail)
        yield gap + idx * 251


def autoscale_smoke(
    seed: int = 0,
    phase_a: int = 600_000,
    phase_b: int = 1_400_000,
    phase_c: int = 1_200_000,
    settle_margin: int = 300_000,
    drain: int = 500_000,
) -> Dict[str, Any]:
    """Load-step experiment: does the autoscaler converge, then retreat?

    Returns pre-step and post-convergence latency percentiles, the
    replica time-series, and the autoscaler's full decision log (for the
    determinism byte-compare).
    """
    cluster = _build(seed)
    started = cluster.deploy_stateless(
        "kv", _shared_kv_factory(), instances=1)
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=50_000_000)
    # overload queues work instead of failing it: the per-attempt budget
    # must outlive worst-case queueing during the pre-scale-up window
    patient = RetryPolicy(deadline=STEP_TIMEOUT,
                          attempt_timeout=STEP_TIMEOUT,
                          backoff_base=200, backoff_cap=2_000)
    frontend = cluster.start_frontend(max_pending=MAX_PENDING, retry=patient)
    scaler = cluster.start_autoscaler("kv")
    cluster.run(until=cluster.engine.now + 5_000)

    total = phase_a + phase_b + phase_c
    phases = [(phase_a, BASE_GAP, "a"),
              (phase_a + phase_b, BASE_GAP // STEP_FACTOR, "b"),
              (total, BASE_GAP, "c")]
    results: List[Tuple] = []
    start = cluster.engine.now
    for c in range(CLIENTS):
        host = ClusterClient(cluster.engine, cluster.fabric, f"host{c}")
        cluster.engine.process(
            _open_loop_kv(host, c, phases, results, STEP_TIMEOUT),
            name=f"{host.mac}.loadgen")
    cluster.run(until=start + total + drain)

    def lats(phase, after=0, before=None):
        return [lat for t, lat, ph in results
                if ph == phase and lat is not None and t - start >= after
                and (before is None or t - start < before)]

    pre = lats("a", after=phase_a // 3)
    # "converged" latency is judged on requests *issued* after the last
    # scale-up replica came online plus a settling margin (the backlog
    # built during reconfiguration needs time to drain)
    up_ready = [t for t, action, *_rest in scaler.events
                if action == "up_ready"]
    ready_at = (max(up_ready) - start) if up_ready else None
    post = (lats("b", after=ready_at + settle_margin)
            if ready_at is not None else [])
    peak = max((r[2] for r in scaler.series), default=1)
    completed = sum(1 for _t, lat, _ph in results if lat is not None)
    failed = sum(1 for _t, lat, _ph in results if lat is None)
    return {
        "seed": seed,
        "clients": CLIENTS,
        "work_cycles": WORK_CYCLES,
        "phases": [phase_a, phase_b, phase_c],
        "completed": completed,
        "failed": failed,
        "pre_p50": _pctl(pre, 50), "pre_p99": _pctl(pre, 99),
        "post_p50": _pctl(post, 50), "post_p99": _pctl(post, 99),
        "post_samples": len(post),
        "scale_up_ready_at": ready_at,
        "peak_replicas": peak,
        "final_replicas": scaler.replicas(),
        "scale_ups": scaler.scale_ups,
        "scale_downs": scaler.scale_downs,
        "reconfig_cycles_per_replica": scaler.reconfig_cycles,
        "event_log": [list(e) for e in scaler.events],
        "replica_series": [list(s) for s in scaler.series],
        "frontend": {
            "admitted": frontend.requests_admitted,
            "rejected": frontend.requests_rejected,
            "failed": frontend.requests_failed,
            "failovers": frontend.failovers,
        },
    }


def cache_step_smoke(
    seed: int = 0,
    warm: bool = True,
    phase_a: int = 600_000,
) -> Dict[str, Any]:
    """The C1 experiment: scale-up-ready time, warm vs cold bitstreams.

    One stateless KV replica takes a load step; the autoscaler buys a
    second replica, which lands on the *other* board.  The metric is
    ``ready_latency`` — scale-up decision to ``up_ready``:

    * ``warm=True`` — the cluster runs warm placement + prefetch, and the
      service's design family is prefetched onto every board right after
      deploy (the operator's "I will scale this" hint).  The scale-up
      pays partial reconfiguration only (~810k cycles).
    * ``warm=False`` — cache enabled but no prefetch and legacy
      round-robin placement: the new replica lands on a board that has
      never seen the design and pays a full synthesis run first
      (~4.9M cycles).

    Deterministic: identical arguments give an identical result dict
    (the benchmark byte-compares it).
    """
    cluster = _build(seed, cache=CacheConfig(enabled=True, prefetch=warm,
                                             warm_placement=warm))
    started = cluster.deploy_stateless(
        "kv", _shared_kv_factory(), instances=1)
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=100_000_000)
    prefetched: List[int] = []
    if warm:
        # compile-ahead on every board that has not seen the design yet;
        # by the time the load step arrives, scale-up is a cache hit
        issued = cluster.bitplane.prefetch_service("kv")
        prefetched = sorted(issued)
        if issued:
            cluster.engine.run_until_done(
                cluster.engine.all_of(list(issued.values())),
                limit=100_000_000)
    patient = RetryPolicy(deadline=CACHE_TIMEOUT,
                          attempt_timeout=CACHE_TIMEOUT,
                          backoff_base=200, backoff_cap=2_000)
    cluster.start_frontend(max_pending=CACHE_MAX_PENDING, retry=patient)
    scaler = cluster.start_autoscaler("kv", max_replicas=CACHE_MAX_REPLICAS)
    cluster.run(until=cluster.engine.now + 5_000)

    results: List[Tuple] = []
    start = cluster.engine.now
    phases = [(phase_a, BASE_GAP, "a"),
              (phase_a + MAX_STEP, BASE_GAP // CACHE_STEP_FACTOR, "b")]
    for c in range(CACHE_CLIENTS):
        host = ClusterClient(cluster.engine, cluster.fabric, f"host{c}")
        cluster.engine.process(
            _open_loop_kv(host, c, phases, results, CACHE_TIMEOUT),
            name=f"{host.mac}.loadgen")
    cluster.run(until=start + phase_a)
    step_at = cluster.engine.now

    def first(action, after):
        hits = [t for t, a, *_rest in scaler.events
                if a == action and t >= after]
        return min(hits) if hits else None

    # run in fixed chunks until the step's scale-up replica is serving
    while cluster.engine.now < start + phase_a + MAX_STEP:
        cluster.run(until=cluster.engine.now + CHUNK)
        if first("up_ready", step_at) is not None:
            break
    for _ in range(DRAIN_CHUNKS):
        cluster.run(until=cluster.engine.now + CHUNK)

    decided_at = first("scale_up", step_at)
    ready_at = first("up_ready", step_at)
    ready_latency = (ready_at - decided_at
                     if decided_at is not None and ready_at is not None
                     else None)
    # where did the new replica land, and was that board warm?
    new_inst = max(cluster.directory.spec("kv").instances,
                   key=lambda i: i.replica)
    tele = cluster.systems[0].mgmt.telemetry()[0]
    return {
        "seed": seed,
        "warm": warm,
        "clients": CACHE_CLIENTS,
        "phase_a": phase_a,
        "prefetched_boards": prefetched,
        "scale_up_at": decided_at,
        "up_ready_at": ready_at,
        "ready_latency": ready_latency,
        "new_replica_fpga": new_inst.fpga,
        "reconfig_cycles": scaler.reconfig_cycles,
        "autoscaler_prefetches": scaler.prefetches,
        "completed": sum(1 for r in results if r[1] is not None),
        "cache": cluster.bitplane.telemetry(),
        "gauges": {k: tele[k] for k in
                   ("bitcache_hit_rate", "bitcache_prefetch_accuracy",
                    "bitcache_synth_backlog") if k in tele},
        "event_log": [list(e) for e in scaler.events],
    }


def autoscale_chaos_smoke(seed: int = 0) -> Dict[str, Any]:
    """Kill one replica's tile mid-run; the autoscaler must recover alone.

    Success means: a ``replace`` decision in the event log, a fresh
    replica serving afterwards, and requests issued after the
    replacement settles completing at (near-)unity success rate.
    """
    cluster = _build(seed)
    started = cluster.deploy_stateless(
        "kv", _shared_kv_factory(), instances=CHAOS_MIN_REPLICAS)
    cluster.engine.run_until_done(cluster.engine.all_of(started),
                                  limit=50_000_000)
    patient = RetryPolicy(deadline=CHAOS_TIMEOUT,
                          attempt_timeout=CHAOS_TIMEOUT // 3,
                          backoff_base=200, backoff_cap=2_000)
    frontend = cluster.start_frontend(max_pending=MAX_PENDING, retry=patient)
    scaler = cluster.start_autoscaler("kv", min_replicas=CHAOS_MIN_REPLICAS)
    cluster.run(until=cluster.engine.now + 5_000)

    results: List[Tuple] = []
    start = cluster.engine.now
    phases = [(CHAOS_DURATION, CHAOS_GAP, "steady")]
    for c in range(CLIENTS):
        host = ClusterClient(cluster.engine, cluster.fabric, f"host{c}")
        cluster.engine.process(
            _open_loop_kv(host, c, phases, results, CHAOS_TIMEOUT),
            name=f"{host.mac}.loadgen")

    killed: Dict[str, Any] = {}

    def kill(_arg=None):
        victim = cluster.directory.spec("kv").instances[0]
        killed["iid"] = victim.iid
        killed["at"] = cluster.engine.now
        system = cluster.systems[victim.fpga]
        tile = system.tiles[victim.node]
        err = TileFault(f"chaos: {tile.endpoint} killed")
        err.occurred_at = cluster.engine.now
        # through the fault manager, so the front-end's on_fault hook
        # fails pending work immediately (same path organic faults take)
        system.fault_manager.report(tile, "main", err)

    cluster.engine.schedule(CHAOS_KILL_AFTER, kill)
    cluster.run(until=start + CHAOS_DURATION + CHAOS_DRAIN)

    replaced = [(t, iid) for t, action, iid, *_rest in scaler.events
                if action == "replace"]
    ready_after_kill = [t for t, action, *_rest in scaler.events
                        if action == "up_ready" and t > killed.get("at", 0)]
    recovered_at = min(ready_after_kill) if ready_after_kill else None
    window = [(t, lat) for t, lat, _ph in results
              if recovered_at is not None
              and t >= recovered_at + CHAOS_SETTLE]
    window_ok = sum(1 for _t, lat in window if lat is not None)
    return {
        "seed": seed,
        "killed": killed,
        "replaced": replaced,
        "recovered_at": recovered_at,
        "replacements": scaler.replacements,
        "final_ready": len(scaler.ready_instances()),
        "completed": sum(1 for r in results if r[1] is not None),
        "failed": sum(1 for r in results if r[1] is None),
        "post_recovery_issued": len(window),
        "post_recovery_ok": window_ok,
        "event_log": [list(e) for e in scaler.events],
        "frontend_failovers": frontend.failovers,
    }
