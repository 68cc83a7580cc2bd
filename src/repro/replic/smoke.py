"""The R2 consistency campaign: chain-replicated KV under chaos.

One parameterized harness shared by the unit tests, the R2 benchmark,
and the CI consistency smoke — all three run the same campaign:

1. deploy a chain-replicated :class:`~repro.replic.machine.KvMachine`
   service across the cluster and start the replication manager;
2. drive sustained load: one writer per key (strictly increasing
   values — the monotone-register workload
   :mod:`repro.replic.history` checks completely), plus concurrent
   readers on seeded random keys;
3. inject chaos at fixed simulated times: ``kill_fpga`` on the board
   hosting a chain head mid-write, then a fabric *partition* of another
   head's board (the split-brain scenario — the board stays up and
   believes it is healthy), then heal it;
4. settle, read every key back end-to-end, and run the
   :class:`~repro.replic.history.HistoryChecker`.

The headline assertions: ``lost_acked_writes == 0`` and
``linearizable == True`` — no acknowledged write is ever lost and no
client observes a stale or reordered value, across a board kill *and*
a network partition.  Everything is derived from the simulated clock
and seeded streams, so same-seed runs produce byte-identical reports
(the CI job pins this).

Timeout layering matters for correctness, not just liveness: the
writer's per-request client timeout exceeds the front-end's whole
retry deadline, so when a writer re-submits (or moves on to its next
value) the front-end has provably stopped retrying the previous write
id — there is never a concurrent duplicate of the same logical write,
which is what lets the checker treat each value as written once.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.config import (
    ClusterConfig,
    ObsConfig,
    RecoveryConfig,
    ReplicationConfig,
)
from repro.kernel.config import NocConfig, SystemConfig
from repro.policy import RetryPolicy
from repro.replic.history import HistoryChecker
from repro.replic.machine import KvMachine
from repro.workloads.client import ClusterClient

__all__ = ["consistency_smoke"]


def _build(n_fpgas: int, seed: int, trace: bool) -> Cluster:
    # a 3x3 grid (7 app tiles after mem+net) leaves headroom for repair
    # splices to place replacement replicas even mid-chaos
    cluster = Cluster(ClusterConfig(
        n_fpgas=n_fpgas,
        system=SystemConfig(seed=seed, noc=NocConfig(width=3, height=3)),
        swallow_orphan_errors=True,
        recovery=RecoveryConfig(enabled=True),
        replication=ReplicationConfig(enabled=True),
        obs=ObsConfig(tracing=trace),
    ))
    cluster.boot()
    return cluster


def _reply_body(reply: Any) -> Optional[Dict[str, Any]]:
    """The backend body of a successful front-end reply, else None."""
    if isinstance(reply, dict) and reply.get("ok") \
            and isinstance(reply.get("body"), dict):
        return reply["body"]
    return None


def consistency_smoke(
    n_fpgas: int = 4,
    seed: int = 0,
    n_shards: int = 4,
    replication: int = 3,
    n_keys: int = 8,
    writes_per_key: int = 28,
    write_gap: int = 40_000,
    n_readers: int = 3,
    reads_per_reader: int = 70,
    read_gap: int = 14_000,
    kill_at: Optional[int] = 350_000,
    partition_at: Optional[int] = 1_000_000,
    heal_at: Optional[int] = 1_700_000,
    settle: int = 1_600_000,
    trace: bool = False,
) -> Dict[str, Any]:
    """Run the R2 chaos campaign; returns the deterministic report dict."""
    cluster = _build(n_fpgas, seed, trace)
    engine = cluster.engine
    started, configured = cluster.deploy_chain(
        "kv", lambda shard: KvMachine(shard),
        n_shards=n_shards, replication=replication)
    engine.run_until_done(engine.all_of(started), limit=50_000_000)
    # the front-end's whole retry deadline must cover a chain repair
    # (detection + promote), or every request in flight during a repair
    # fails instead of transparently landing on the new head/tail
    patient = RetryPolicy(deadline=250_000, attempt_timeout=25_000,
                          backoff_base=500, backoff_cap=4_000)
    cluster.start_frontend(max_pending=512, retry=patient)
    engine.run_until_done(configured, limit=50_000_000)
    cluster.run(until=engine.now + 5_000)

    checker = HistoryChecker()
    keys = [f"key{i}" for i in range(n_keys)]
    # client timeout > front-end deadline: see the module docstring
    client_timeout = 320_000
    failed_reads = [0]

    def writer(host: ClusterClient, key: str):
        for v in range(1, writes_per_key + 1):
            yield write_gap
            invoked = engine.now
            acked = False
            for _attempt in range(4):
                try:
                    reply = yield host.call_service(
                        "kv", {"op": "put", "key": key, "value": v},
                        key=key, write=True, timeout=client_timeout)
                except Exception:
                    continue
                body = _reply_body(reply)
                if body is not None and body.get("ok"):
                    acked = True
                    break
                yield 2_000  # rejected/error reply; breathe, then retry
            checker.record_write(key, v, invoked, engine.now, acked)

    def reader(host: ClusterClient, ridx: int):
        rng = random.Random((seed << 8) ^ (2654435769 * (ridx + 1)))
        for _ in range(reads_per_reader):
            yield read_gap
            k = keys[rng.randrange(len(keys))]
            invoked = engine.now
            try:
                reply = yield host.call_service(
                    "kv", {"op": "get", "key": k}, key=k,
                    timeout=client_timeout)
            except Exception:
                failed_reads[0] += 1
                continue
            body = _reply_body(reply)
            if body is None or not body.get("ok"):
                failed_reads[0] += 1
                continue
            value = body.get("value") if body.get("found") else 0
            checker.record_read(k, int(value or 0), invoked, engine.now)

    start = engine.now
    procs = []
    for i, key in enumerate(keys):
        host = ClusterClient(engine, cluster.fabric, f"w{i}")
        procs.append(engine.process(writer(host, key), name=f"w{i}.loop"))
    for i in range(n_readers):
        host = ClusterClient(engine, cluster.fabric, f"r{i}")
        procs.append(engine.process(reader(host, i), name=f"r{i}.loop"))

    # -- chaos at fixed simulated times -----------------------------------
    chaos: Dict[str, Any] = {"killed_fpga": None, "killed_at": None,
                             "partitioned_fpga": None,
                             "partitioned_at": None, "healed_at": None}
    spec = cluster.directory.spec("kv")

    def _head_fpga(excluding=()) -> Optional[int]:
        for shard in sorted(spec.chains):
            chain = spec.chains[shard]
            if not chain:
                continue
            inst = spec.instance(chain[0])
            if inst is not None and inst.fpga not in excluding \
                    and inst.fpga not in cluster.killed:
                return inst.fpga
        return None

    if kill_at is not None:
        cluster.run(until=start + kill_at)
        target = _head_fpga()
        if target is not None:
            chaos["killed_fpga"] = target
            chaos["killed_at"] = engine.now
            cluster.kill_fpga(target)
    if partition_at is not None:
        cluster.run(until=start + partition_at)
        target = _head_fpga(excluding=set(cluster.partitioned))
        if target is not None:
            chaos["partitioned_fpga"] = target
            chaos["partitioned_at"] = engine.now
            cluster.partition_fpga(target)
    if heal_at is not None and chaos["partitioned_fpga"] is not None:
        cluster.run(until=start + heal_at)
        chaos["healed_at"] = engine.now
        cluster.heal_fpga(chaos["partitioned_fpga"])

    # drain the workload, then let repair finish (post-heal fences,
    # deferred splices) before the verification reads
    engine.run_until_done(engine.all_of([p.done for p in procs]),
                          limit=60_000_000)
    cluster.run(until=engine.now + settle)

    # -- end-to-end verification reads ------------------------------------
    verify_host = ClusterClient(engine, cluster.fabric, "verify")
    final_read_failures = [0]

    def final_reads():
        for k in keys:
            for _attempt in range(5):
                try:
                    reply = yield verify_host.call_service(
                        "kv", {"op": "get", "key": k}, key=k,
                        timeout=client_timeout)
                except Exception:
                    continue
                body = _reply_body(reply)
                if body is not None and body.get("ok"):
                    value = body.get("value") if body.get("found") else 0
                    checker.record_final(k, int(value or 0))
                    break
            else:
                final_read_failures[0] += 1

    done = engine.process(final_reads(), name="verify.loop")
    engine.run_until_done(done.done, limit=30_000_000)

    # -- report ------------------------------------------------------------
    chains: Dict[str, Any] = {}
    for shard in sorted(spec.chains):
        members = []
        for iid in spec.chains[shard]:
            inst = spec.instance(iid)
            stat = None
            if inst is not None and inst.fpga not in cluster.killed:
                node = cluster.systems[inst.fpga].tiles[inst.node]
                accel = node.accelerator
                if accel is not None and hasattr(accel, "stat"):
                    stat = accel.stat()
            members.append({"iid": iid, "stat": stat})
        chains[str(shard)] = {"epoch": spec.epochs.get(shard, 0),
                              "members": members}

    consistency = checker.check()
    return {
        "n_fpgas": n_fpgas,
        "seed": seed,
        "n_shards": n_shards,
        "replication": replication,
        "keys": n_keys,
        "writes_per_key": writes_per_key,
        "readers": n_readers,
        "elapsed_cycles": engine.now - start,
        "chaos": chaos,
        "consistency": consistency,
        "failed_reads": failed_reads[0],
        "final_read_failures": final_read_failures[0],
        "chains": chains,
        "repair": cluster.replication.repair_summary(),
        "frontend": cluster.frontend.telemetry(),
    }
