"""Byte-identity checks: same seed, same bytes — rerun or across backends.

These are the determinism contracts CI pins per subsystem (each CI job
selects its own with ``pytest -m identity -k <name>``); they live here so
the same checks run locally under the tier-1 runner.
"""

import json

import pytest

from repro.chaos import Campaign
from repro.cluster import Cluster, ClusterConfig
from repro.kernel.config import NocConfig, SystemConfig
from repro.loadgen import ScenarioRunner, get_scenario
from repro.replic import consistency_smoke
from repro.replic.machine import KvMachine
from repro.sched.smoke import autoscale_chaos_smoke, autoscale_smoke

pytestmark = pytest.mark.identity


def _twice(run):
    first, second = run(), run()
    assert first == second
    return first


def test_chaos_campaign_reports_are_byte_identical():
    def run():
        campaign = Campaign(seed=2026, rates=(0.0, 3.0), clients=2,
                            duration=700_000)
        campaign.run()
        return campaign.report_text()

    assert _twice(run)


def test_cluster_run_stats_are_byte_identical(scale_small, kill_small):
    def run():
        return [ScenarioRunner(scenario).run().to_json()
                for scenario in (scale_small, kill_small)]

    scale, kill = map(json.loads, _twice(run))
    assert scale["totals"]["served"] > 0
    assert kill["passed"] and kill["chaos"]


def test_express_lane_share_of_a_small_cluster_run_is_pinned(scale_small):
    """Per board: NoC packets that started on the express lane, and those
    taken off it mid-flight.  The lane changes no report byte, so only
    this count shows a lost eligibility (a new mid-flight reader, a
    credit that no longer comes home) before a benchmark does."""
    runner = ScenarioRunner(scale_small)
    runner.run()
    # ISSUE 22 re-pinned (272, 33), (274, 32) once: a monitor injects from
    # the heap phase now, and one packet per board is queued ahead of the
    # ejector hop that would have emptied the network for it
    assert [(system.network.express_packets,
             system.network.express_demotions)
            for system in runner.cluster.systems] == [(271, 33), (273, 32)]


def test_autoscale_run_event_logs_are_byte_identical():
    def run():
        step = autoscale_smoke(phase_a=200_000, phase_b=1_300_000,
                               phase_c=400_000, settle_margin=150_000,
                               drain=400_000)
        chaos = autoscale_chaos_smoke()
        return json.dumps({"step": step, "chaos": chaos}, sort_keys=True)

    _twice(run)


def test_replication_chaos_reports_are_byte_identical():
    def run():
        report = consistency_smoke(
            seed=7, n_keys=4, writes_per_key=12, n_readers=2,
            reads_per_reader=30, kill_at=250_000, partition_at=800_000,
            heal_at=1_400_000, settle=1_500_000)
        return json.dumps(report, sort_keys=True)

    _twice(run)


def test_scenario_report_is_one_blob_on_three_backends(tmp_path):
    """The full flash_crowd from one seeded Scenario: one JSON blob must
    come back from every backend, with the declared verdict.  The blob is
    left in ``tmp_path`` (CI uploads it via ``--basetemp``)."""
    scenario = get_scenario("flash_crowd")
    blobs = {}
    for backend in ("shared", "sequential", "parallel"):
        report = ScenarioRunner(scenario, backend=backend).run()
        assert report.passed, f"{backend}:\n{report.text()}"
        assert report.matches_expectation()
        blobs[backend] = report.to_json()
    assert blobs["shared"] == blobs["sequential"] == blobs["parallel"], \
        "scenario reports diverged across backends"
    (tmp_path / "scenario_report.json").write_text(blobs["shared"] + "\n")


# (fpga, node, port) of every instance, captured at the commit before the
# five deploy paths were folded into ServiceDirectory._place
_PINNED_PLACEMENT = {
    "web#0": (0, 2, 7100), "web#1": (1, 2, 7101), "web#2": (2, 2, 7102),
    "web#4": (1, 8, 7118),
    "kv/s0r0": (0, 3, 7103), "kv/s0r1": (1, 3, 7104),
    "kv/s1r0": (1, 4, 7105), "kv/s1r1": (2, 3, 7106),
    "kv/s2r0": (2, 4, 7107), "kv/s2r1": (0, 4, 7108),
    "kv/s3r0": (0, 5, 7109), "kv/s3r1": (1, 5, 7110),
    "ckv/s0r0": (0, 6, 7111), "ckv/s0r1": (1, 6, 7112),
    "ckv/s0r2": (2, 5, 7113), "ckv/s1r0": (1, 7, 7114),
    "ckv/s1r1": (2, 6, 7115), "ckv/s1r2": (0, 7, 7116),
    "ckv/s0r3": (2, 7, 7119),
}


@pytest.mark.parametrize("recovery", [False, True])
def test_placement_is_pinned_across_deploy_kinds(recovery):
    """Same order, same ports, same tiles — checked directly, for every
    way an instance gets onto a board, with and without recovery."""
    cluster = Cluster(ClusterConfig(
        n_fpgas=3, system=SystemConfig(noc=NocConfig(width=3, height=3)),
        recovery=recovery))
    cluster.boot()
    directory = cluster.directory

    def handler(*_shard):
        return lambda body: (100, {"ok": True}, 32)

    started = directory.deploy_stateless("web", handler, instances=3)
    started += directory.deploy_sharded("kv", handler, n_shards=4,
                                        replication=2)
    started += directory.deploy_chain("ckv", KvMachine, n_shards=2,
                                      replication=3)
    started.append(directory.add_instance("web")[1])
    assert directory.remove_instance("web").iid == "web#3"
    started.append(directory.add_instance("web")[1])
    spliced, loading = directory.add_chain_replica("ckv", 0, 2)
    started.append(loading)
    cluster.run_until(started)

    table = directory.placement_table()
    assert {iid: (row["fpga"], row["node"], row["port"])
            for iid, row in table.items()} == _PINNED_PLACEMENT
    assert list(table) == list(_PINNED_PLACEMENT)
    assert all(inst.ready and directory.lookup(inst.iid)
               == (inst.fpga, inst.node)
               for spec in directory.services.values()
               for inst in spec.instances)
    # a spliced member is loaded but joins no chain until the manager says
    assert spliced.iid == "ckv/s0r3"
    assert directory.services["ckv"].chains == {
        0: ["ckv/s0r0", "ckv/s0r1", "ckv/s0r2"],
        1: ["ckv/s1r0", "ckv/s1r1", "ckv/s1r2"]}
    assert {name: spec.next_replica
            for name, spec in directory.services.items()} == {
        "web": 5, "kv": 0, "ckv": 4}
