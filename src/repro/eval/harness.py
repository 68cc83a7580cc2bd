"""Experiment harness: drive identical workloads against every system.

The D1/D2/D3 experiments all share one shape — a remote client host issues
KV RPCs over the datacenter fabric to an accelerated service — and differ
only in the system under test: Apiary (direct-attached, full OS), hosted
(Coyote-style CPU mediation, kernel or bypass stack), or bare (direct-
attached, no OS).  :func:`run_kv_workload` builds the chosen stack, runs
the workload, and returns one uniform result dict.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.kv_service import KV_PORT, deploy_kv_on_apiary, make_kv_handler
from repro.baselines.bare import BareFpgaSystem
from repro.baselines.hosted import HostedFpgaSystem
from repro.errors import ConfigError
from repro.eval.energy import EnergyModel
from repro.kernel.config import SystemConfig
from repro.kernel.system import ApiarySystem
from repro.net.frame import EthernetFabric
from repro.sim import Engine, RngPool
from repro.workloads.client import RemoteClientHost
from repro.workloads.generators import zipf_keys

__all__ = ["run_kv_workload", "SYSTEM_KINDS"]

SYSTEM_KINDS = ("apiary", "hosted", "hosted_bypass", "bare")

FABRIC_LATENCY = 500  # one-way datacenter hop in fabric cycles (~2 us)
SERVER_MAC = "server0"
CLIENT_MAC = "client0"
REQUEST_TIMEOUT = 2_000_000


def run_kv_workload(
    kind: str,
    n_requests: int = 300,
    value_bytes: int = 256,
    seed: int = 7,
    warmup_keys: int = 50,
) -> Dict[str, Any]:
    """Run one closed-loop KV GET workload against the chosen system.

    Returns a dict with latency percentiles (cycles), throughput, CPU
    cycles per request, and an energy breakdown.
    """
    if kind not in SYSTEM_KINDS:
        raise ConfigError(f"unknown system kind {kind!r}; try {SYSTEM_KINDS}")
    engine = Engine()
    rng = RngPool(seed=seed)
    # jumbo frames: the value-size sweep goes past the 1518B classic MTU
    fabric = EthernetFabric(engine, latency_cycles=FABRIC_LATENCY, jumbo=True)
    client = RemoteClientHost(engine, fabric, CLIENT_MAC)
    energy = EnergyModel()

    system_obj: Any = None
    if kind == "apiary":
        system_obj = ApiarySystem(SystemConfig.figure1().with_mac(SERVER_MAC),
                                  engine=engine, fabric=fabric)
        system_obj.boot()
        service, started = deploy_kv_on_apiary(system_obj, node=3)
        engine.run_until_done(started, limit=10_000_000)
        engine.run(until=engine.now + 5000)
    elif kind in ("hosted", "hosted_bypass"):
        system_obj = HostedFpgaSystem(
            engine, fabric, SERVER_MAC, cores=4,
            kernel_bypass=(kind == "hosted_bypass"),
            rng=rng.stream("host-jitter"))
        handler, _table = make_kv_handler()
        system_obj.register(KV_PORT, handler)
    else:  # bare
        system_obj = BareFpgaSystem(engine, fabric, SERVER_MAC)
        handler, _table = make_kv_handler()
        system_obj.register(KV_PORT, handler)

    # warm the table with PUTs, then measure GETs
    keys = zipf_keys(rng.stream("keys"), n_requests, universe=warmup_keys)
    puts = [{"op": "put", "key": k, "bytes": value_bytes}
            for k in range(warmup_keys)]
    gets = [{"op": "get", "key": k} for k in keys]

    warm = engine.process(
        client.closed_loop(SERVER_MAC, KV_PORT, puts, nbytes=value_bytes,
                           timeout=REQUEST_TIMEOUT),
        name="warmup",
    )
    engine.run_until_done(warm.done, limit=200_000_000)
    client.latency.reset()

    measure_start = engine.now
    proc = engine.process(
        client.closed_loop(SERVER_MAC, KV_PORT, gets, nbytes=64,
                           timeout=REQUEST_TIMEOUT),
        name="measure",
    )
    engine.run_until_done(proc.done, limit=2_000_000_000)
    elapsed = max(1, engine.now - measure_start)

    # energy attribution
    if kind == "apiary":
        energy.charge_apiary(system_obj, fabric=fabric)
        cpu_per_req = 0.0
        served = client.responses_received
    elif kind in ("hosted", "hosted_bypass"):
        energy.charge_hosted(system_obj, fabric=fabric)
        cpu_per_req = system_obj.cpu_cycles_per_request()
        served = system_obj.requests_served
    else:
        energy.charge_bare(system_obj, fabric=fabric)
        cpu_per_req = 0.0
        served = system_obj.requests_served

    summary = client.latency.summary()
    completed = client.latency.count
    return {
        "kind": kind,
        "requests": n_requests,
        "completed": completed,
        "served": served,
        "timeouts": client.timeouts,
        "latency": summary,
        "throughput_per_kcycle": 1000.0 * completed / elapsed,
        "cpu_cycles_per_request": cpu_per_req,
        "energy_uj_per_request": energy.breakdown.per_request_uj(
            max(1, completed)
        ),
        "energy_breakdown": energy.breakdown.as_dict(),
        "system": system_obj,
        "client": client,
    }
