"""Byte-identity checks: same seed, same bytes — rerun or across backends.

These are the determinism contracts CI pins per subsystem (each CI job
selects its own with ``pytest -m identity -k <name>``); they live here so
the same checks run locally under the tier-1 runner.
"""

import json

import pytest

from repro.chaos import Campaign
from repro.loadgen import ScenarioRunner, get_scenario
from repro.replic import consistency_smoke
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
    assert [(system.network.express_packets,
             system.network.express_demotions)
            for system in runner.cluster.systems] == [(272, 33), (274, 32)]


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
