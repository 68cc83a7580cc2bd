"""Byte-identity checks: same seed, same bytes — rerun or across backends.

These are the determinism contracts CI pins per subsystem (each CI job
selects its own with ``pytest -m identity -k <name>``); they live here so
the same checks run locally under the tier-1 runner.
"""

import copy
import hashlib
import json

import pytest

from repro.chaos import Campaign
from repro.cluster import CacheConfig, Cluster, ClusterConfig
from repro.kernel.config import NocConfig, SystemConfig
from repro.loadgen import ScenarioRunner, get_scenario, scenario_names
from repro.net import EthernetFabric
from repro.replic.machine import KvMachine

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
    # ejector hop that would have emptied the network for it.  Re-pinned
    # (271, 33), (273, 32) again when the probes left the NoC (a board's
    # heartbeat is answered by its network tile) and a backend's reply
    # stopped drawing a "sent" answer: half the packets, and the ones left
    # rarely meet another in flight
    assert [(system.network.express_packets,
             system.network.express_demotions)
            for system in runner.cluster.systems] == [(132, 2), (132, 2)]


#: the bitstream cache of C1's two arms, as the runner's config template
_CACHE_ARMS = {
    "cold": ClusterConfig(cache=CacheConfig(enabled=True, prefetch=False,
                                            warm_placement=False)),
    "warm": ClusterConfig(cache=CacheConfig(enabled=True)),
}

#: the autoscaler's decision logs in the S2 and C1 library scenarios on
#: the shared backend: a control-plane refactor must not change them
_S2_STEP_LOG = [
    [2360000, "scale_up", "echo#1", 2, "queue=11.0 predicted@ready=132"],
    [2360000, "scale_up", "echo#2", 3, "queue=11.0 predicted@ready=132"],
    [2360000, "scale_up", "echo#3", 4, "queue=11.0 predicted@ready=132"],
    [3169280, "up_ready", "echo#1", 4, ""],
    [3169280, "up_ready", "echo#2", 4, ""],
    [3169280, "up_ready", "echo#3", 4, ""],
    [3660000, "scale_down", "echo#3", 3, ""],
    [3750928, "down_done", "echo#3", 3, ""],
    [3810928, "scale_down", "echo#2", 2, ""],
    [3901856, "down_done", "echo#2", 2, ""],
    [3961856, "scale_down", "echo#1", 1, ""],
    [4052784, "down_done", "echo#1", 1, ""],
]
_S2_CHAOS_LOG = [
    [2420000, "replace", "echo#0", 1, "tile 2 failed"],
    [2500928, "scale_up", "echo#2", 2, "replacing echo#0"],
    [3310208, "up_ready", "echo#2", 2, ""],
]
_C1_LOGS = {
    "cold": [[6620000, "scale_up", "echo#1", 2,
              "queue=10.0 predicted@ready=374"],
             [11539616, "up_ready", "echo#1", 2, ""],
             [11540000, "scale_down", "echo#1", 1, ""],
             [11630928, "down_done", "echo#1", 1, ""]],
    "warm": [[6620000, "scale_up", "echo#1", 2,
              "queue=10.0 predicted@ready=374"],
             [7429280, "up_ready", "echo#1", 2, ""],
             [7440000, "scale_down", "echo#1", 1, ""],
             [7530928, "down_done", "echo#1", 1, ""]],
}


def _decisions(report):
    return report["autoscale"]["services"]["echo"]["events"]


def test_autoscale_scenario_logs_are_pinned():
    """S2's step and chaos runs: the same seed twice gives the same
    report bytes, and the decision logs match the literals."""
    def run():
        return json.dumps([ScenarioRunner(get_scenario(name)).run().data
                           for name in ("autoscale_step", "autoscale_chaos")],
                          sort_keys=True)

    step, chaos = json.loads(_twice(run))
    assert _decisions(step) == _S2_STEP_LOG
    assert _decisions(chaos) == _S2_CHAOS_LOG


@pytest.mark.parametrize("arm", sorted(_CACHE_ARMS))
def test_cache_scenario_logs_are_pinned(arm):
    """C1: one scenario under the cold and the warm cache template."""
    report = ScenarioRunner(get_scenario("cache_step"),
                            config=_CACHE_ARMS[arm]).run()
    assert _decisions(report.data) == _C1_LOGS[arm]


#: sha256 of the R2 library scenario's report on the shared backend (kill,
#: partition, heal): what the manager repairs, and when, must not move.
#: Re-pinned when the probe rounds and the manager's tick came to fire on
#: multiples of their interval (a down board is heard at another cycle).
_R2_SHA256 = \
    "2814946df2eb23e8e78ac078a1c5e248353690d83ac9f3c9a81d70a11b0d97ce"


def test_replication_scenario_report_is_pinned():
    def run():
        return ScenarioRunner(get_scenario("replication_chaos")).run() \
            .to_json()

    assert hashlib.sha256(_twice(run).encode()).hexdigest() == _R2_SHA256


#: the runs the autoscaler and the replication manager drive, with the
#: config template each is scored under
_CONTROL_PLANE_RUNS = {
    "autoscale_step": ClusterConfig(),
    "autoscale_chaos": ClusterConfig(),
    "cache_step": _CACHE_ARMS["warm"],
    "replication_chaos": ClusterConfig(),
}


@pytest.fixture(scope="module")
def control_plane_report():
    """Report JSON of a control-plane run on a backend, run once per
    module (the expectation check and the shared comparison share them).
    Every run must meet the scenario's declared expectation."""
    reports = {}

    def report(name, backend):
        if (name, backend) not in reports:
            run = ScenarioRunner(get_scenario(name), backend=backend,
                                 config=_CONTROL_PLANE_RUNS[name]).run()
            assert run.matches_expectation(), f"{backend}:\n{run.text()}"
            reports[name, backend] = run.to_json()
        return reports[name, backend]

    return report


@pytest.mark.parametrize("name", sorted(_CONTROL_PLANE_RUNS))
def test_control_plane_scenario_meets_its_expectation(
        name, control_plane_report):
    """S2 step, S2 chaos, C1 warm and R2 on ``sequential``: each report
    carries its scenario's declared verdict."""
    control_plane_report(name, "sequential")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: on a windowed backend an op issued inside a host "
    "window (a control-plane tick) runs at the window's barrier, on "
    "shared at once — the two part at the first scale-up or repair"))
def test_control_plane_scenarios_agree_on_shared_and_sequential(
        control_plane_report):
    for name in sorted(_CONTROL_PLANE_RUNS):
        assert control_plane_report(name, "shared") \
            == control_plane_report(name, "sequential"), name


@pytest.mark.parametrize("seed", [1, 2, 6, 7])
def test_chaos_soak_is_one_report_on_shared_and_sequential(seed):
    """chaos_soak is not saturated, so identity must hold through its kill,
    partition and heal.  Seeds 1 and 2 split while the network tile
    answered a beat with a response datagram; its transport ACK is the
    answer now, and both backends agree."""
    reports = [ScenarioRunner(get_scenario("chaos_soak", seed=seed),
                              backend=backend).run().to_json()
               for backend in ("shared", "sequential")]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name",
                         ["chaos_soak", "tenant_storm", "replication_chaos"])
def test_report_does_not_depend_on_the_boot_settle_length(name, monkeypatch):
    """The periodic timers (the front-end's probe rounds, the replication
    manager's tick) fire on multiples of their interval, so how many
    cycles boot spent settling moves no report byte."""
    boot = Cluster.boot

    def run(settle):
        monkeypatch.setattr(Cluster, "boot",
                            lambda self, extra_cycles=0: boot(self, settle))
        return ScenarioRunner(get_scenario(name, seed=1)).run().to_json()

    assert run(5_000) == run(7_000)


def test_chaos_soak_needs_no_shared_frame_objects(monkeypatch):
    """Boards on the shared engine share no state through a frame: when
    the fabric hands each receiver a deep copy of what was sent, chaos_soak
    (kill, partition, heal) gives the same report bytes."""
    def run():
        return ScenarioRunner(get_scenario("chaos_soak", seed=1),
                              backend="shared").run().to_json()

    shared_frames = run()
    transmit, copies = EthernetFabric.transmit, []

    def transmit_a_copy(self, frame):
        copies.append(frame.nbytes)
        transmit(self, copy.deepcopy(frame))

    monkeypatch.setattr(EthernetFabric, "transmit", transmit_a_copy)
    assert run() == shared_frames
    assert copies


def test_scenario_report_is_one_blob_on_both_backends(tmp_path):
    """The full flash_crowd from one seeded Scenario: one JSON blob must
    come back from every backend, with the declared verdict.  The blob is
    left in ``tmp_path`` (CI uploads it via ``--basetemp``)."""
    scenario = get_scenario("flash_crowd")
    blobs = {}
    for backend in ("shared", "sequential"):
        report = ScenarioRunner(scenario, backend=backend).run()
        assert report.passed, f"{backend}:\n{report.text()}"
        assert report.matches_expectation()
        blobs[backend] = report.to_json()
    assert blobs["shared"] == blobs["sequential"], \
        "scenario reports diverged across backends"
    (tmp_path / "scenario_report.json").write_text(blobs["shared"] + "\n")


#: sha256 of every library scenario's seed-1 report, per backend.  The four
#: control-plane scenarios part across the backends (a windowed backend runs
#: a control-plane op at the window's barrier; ROADMAP item 3).  A change
#: that claims to be behaviour-neutral leaves all 24 where they are; one
#: that is not moves each digest once, visibly.  replication_chaos and
#: tenant_storm were re-pinned when the front-end's probe rounds and the
#: replication manager's tick came to fire on multiples of their interval
#: instead of one interval after setup ended; tenant_storm became one
#: report on both backends then.
_LIBRARY_SHA256 = {
    ("autoscale_chaos", "shared"):
        "fd52889f146d992f82c0d7db4d13131685bd96d3b91437b5d51d58c637e59a46",
    ("autoscale_chaos", "sequential"):
        "fcc42298d2541c521593ae43f84667745798642348976f7da31fef2d63400936",
    ("autoscale_step", "shared"):
        "6bc1afa3cd587d67b8238bf132fd8d16696ff3d2edc2015e908920817ca8eb7d",
    ("autoscale_step", "sequential"):
        "f8824dd363c6628c43b1b826aae744887815098ba4c2ef3c0eeca9a155a651b0",
    ("board_kill", "shared"):
        "804b8778dfc3ac4e1d74d5f7f6249a3bf2d078ca61d49c475629c83fef76f11b",
    ("board_kill", "sequential"):
        "804b8778dfc3ac4e1d74d5f7f6249a3bf2d078ca61d49c475629c83fef76f11b",
    ("cache_step", "shared"):
        "b6287ff3e76fec47c1b2c2f61301f496183aa989627f9efc4cfb79a87844c214",
    ("cache_step", "sequential"):
        "6cbe0e2cd425596cce55f799e88b4080cf607654a0269f91dfb33f940f9a4012",
    ("chaos_soak", "shared"):
        "e495117a34e8f1be6eae8e81fcf551ed671463d9c1582c444cc00ee909eaf5e6",
    ("chaos_soak", "sequential"):
        "e495117a34e8f1be6eae8e81fcf551ed671463d9c1582c444cc00ee909eaf5e6",
    ("diurnal_day", "shared"):
        "7d63462265d1a1f20fb6f9d52a31a025209a64e53045621be88c4a98b8f66b4e",
    ("diurnal_day", "sequential"):
        "7d63462265d1a1f20fb6f9d52a31a025209a64e53045621be88c4a98b8f66b4e",
    ("flash_crowd", "shared"):
        "d23d74cb6b2ebea7dbaf509c9dacc1a32dc7f2f37ccc9bc50a511f69e784947a",
    ("flash_crowd", "sequential"):
        "d23d74cb6b2ebea7dbaf509c9dacc1a32dc7f2f37ccc9bc50a511f69e784947a",
    ("overload_probe", "shared"):
        "df469a194ff5010fbe2d2d28782fa4a0f6d57fdf4f758b5ee8072136a40c1528",
    ("overload_probe", "sequential"):
        "df469a194ff5010fbe2d2d28782fa4a0f6d57fdf4f758b5ee8072136a40c1528",
    ("replication_chaos", "shared"):
        "f186a7f9ff726dd6d62ded4100d46873a4d7e67b8bc0f9c814d4d63c82bc80a1",
    ("replication_chaos", "sequential"):
        "91cabb784bda829cd60e5d6286618b7205e6c90593f2964931f61cb73a2c1d1e",
    ("scale_out", "shared"):
        "07ced5669304007197339d90667ac53c72a123998d39be9336927796953b07f9",
    ("scale_out", "sequential"):
        "07ced5669304007197339d90667ac53c72a123998d39be9336927796953b07f9",
    ("steady_state", "shared"):
        "0aca1db7a2e22b562ac9b7d267d085b538ba83da2bb5d4cf18caf0bb880efb1f",
    ("steady_state", "sequential"):
        "0aca1db7a2e22b562ac9b7d267d085b538ba83da2bb5d4cf18caf0bb880efb1f",
    ("tenant_storm", "shared"):
        "a7fc6fae4be4e7bf401c60050af29af42fbe39b2b5530e140183b23a44a79a04",
    ("tenant_storm", "sequential"):
        "a7fc6fae4be4e7bf401c60050af29af42fbe39b2b5530e140183b23a44a79a04",
}


def test_library_scenario_reports_are_pinned_at_seed_1():
    assert sorted({name for name, _backend in _LIBRARY_SHA256}) \
        == scenario_names()
    digests = {
        (name, backend): hashlib.sha256(
            ScenarioRunner(get_scenario(name, seed=1), backend=backend)
            .run().to_json().encode()).hexdigest()
        for name, backend in _LIBRARY_SHA256}
    assert digests == _LIBRARY_SHA256


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
    way an instance gets onto a board, with and without recovery, on the
    shared engine and on per-board engines."""
    for backend in ("shared", "sequential"):
        _check_pinned_placement(recovery, backend)


def _check_pinned_placement(recovery, backend):
    cluster = Cluster(ClusterConfig(
        n_fpgas=3, system=SystemConfig(noc=NocConfig(width=3, height=3)),
        recovery=recovery, backend=backend))
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
