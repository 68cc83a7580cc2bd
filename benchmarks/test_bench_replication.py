"""R2 — replicated state machines under chaos: zero acked-write loss.

The consistency acceptance run for the chain-replication subsystem.
One campaign, three claims:

1. **Durability** — a board kill mid-write plus a fabric partition of a
   chain head lose *zero acknowledged writes*: the linearizability
   checker's ``lost_acked_writes`` must be 0.
2. **Linearizability** — no client ever observes a stale, future, or
   re-ordered value across the whole campaign (``violations == []``),
   including the split-brain window where a partitioned ex-head still
   believes it leads its chain.
3. **Unattended repair** — the replication manager promotes survivors
   (microsecond-scale reconfiguration) and splices fresh replicas
   (checkpoint + partial reconfiguration) without operator input; every
   chain ends the campaign back at full replication, and repair
   latencies are reported.

Determinism is part of the contract: the same seeded campaign twice must
produce byte-identical reports (the CI consistency-smoke job pins this).

``BENCH_PROFILE=reduced`` shrinks the workload for the CI smoke job.
"""

import json
import os

from conftest import REDUCED
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.replic import consistency_smoke

SEED = 42
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_R2.json")


def run_campaign(seed=SEED):
    if REDUCED:
        return consistency_smoke(
            seed=seed, n_keys=4, writes_per_key=12, n_readers=2,
            reads_per_reader=30, kill_at=250_000, partition_at=800_000,
            heal_at=1_400_000, settle=1_500_000)
    return consistency_smoke(seed=seed)


def test_bench_replication_consistency():
    report = run_campaign()
    consistency = report["consistency"]

    # 1. durability: the headline number
    assert consistency["lost_acked_writes"] == 0, (
        f"acknowledged writes were lost: {consistency['violations']}")
    assert consistency["acked_writes"] > 0

    # 2. linearizability across kill + partition + heal
    assert consistency["linearizable"] is True, consistency["violations"]
    assert consistency["violations"] == []
    assert report["chaos"]["killed_fpga"] is not None
    assert report["chaos"]["partitioned_fpga"] is not None

    # 3. unattended repair: promotes fast, splices thorough, chains whole
    repair = report["repair"]
    assert repair["promotes"] >= 1 and repair["splices"] >= 1
    assert repair["fences_acked"] >= 1, "the stale head was never fenced"
    for shard, chain in report["chains"].items():
        assert len(chain["members"]) == report["replication"], (
            f"shard {shard} ended under-replicated")
        assert chain["epoch"] >= 1
    promote_lat = [e["latency"] for e in repair["events"]
                   if e["kind"] == "promote"]
    splice_lat = [e["latency"] for e in repair["events"]
                  if e["kind"] == "splice"]
    assert promote_lat and splice_lat
    assert min(promote_lat) < min(splice_lat), (
        "promotes must restore service before any splice completes")

    # the write path never silently dropped replication either
    assert report["frontend"]["writes_unreplicated"] == 0

    # determinism: byte-identical same-seed rerun
    rerun = run_campaign()
    assert json.dumps(rerun, sort_keys=True) == \
        json.dumps(report, sort_keys=True), (
        "same-seed campaigns must produce byte-identical reports")

    rows = [[
        f"{report['n_fpgas']} FPGAs",
        f"{report['n_shards']}x{report['replication']}",
        consistency["acked_writes"],
        consistency["lost_acked_writes"],
        len(consistency["violations"]),
        repair["promotes"],
        repair["splices"],
        f"{min(promote_lat):,}",
        f"{max(splice_lat):,}",
    ]]
    text = format_table(
        ["cluster", "chains", "acked writes", "lost", "violations",
         "promotes", "splices", "best promote (cyc)",
         "worst splice (cyc)"],
        rows,
        title=("Replicated state machines under chaos — board kill + "
               "fabric partition "
               f"({'reduced' if REDUCED else 'full'} config):"))
    text += (
        "\n\nChaos timeline (cycles):\n"
        f"  board kill     : fpga{report['chaos']['killed_fpga']} "
        f"at t={report['chaos']['killed_at']:,}\n"
        f"  partition      : fpga{report['chaos']['partitioned_fpga']} "
        f"at t={report['chaos']['partitioned_at']:,}\n"
        f"  heal           : t={report['chaos']['healed_at']:,}\n"
        f"  fences acked   : {repair['fences_acked']}\n"
        f"  repair latency : mean {repair['repair_latency_mean']:,} / "
        f"max {repair['repair_latency_max']:,} cycles\n"
        "\nEvery chain back at full replication; "
        f"{consistency['reads']} reads, {report['failed_reads']} failed; "
        "same-seed rerun byte-identical.\n")
    record("R2", "Zero-data-loss stateful serving under chaos", text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump({"reduced": REDUCED, "seed": SEED, "campaign": report},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
