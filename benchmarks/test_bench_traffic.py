"""T2 — the traffic & scenario engine: SLO verdicts and report identity.

Two canned scenarios against a 4-board cluster, three claims:

* **flash_crowd** — a 4× crowd spike rides through admission control
  and sharded capacity: every SLO target passes, exactly as the
  scenario declares (``expect_pass=True``);
* **chaos_soak** — a board kill, a network partition, and a heal land
  mid-run; replication leaves every shard a live replica, failovers
  absorb the faults, and the run still passes;
* **identity** — both scenarios produce a byte-identical
  :class:`~repro.loadgen.report.ScenarioReport` on the shared engine and
  the sequential windowed backend — the chaos plan included.  A reduced ``overload_probe`` additionally
  witnesses the open-loop contract: offered load far exceeds served
  goodput, and the bounded backlog drops (distinct from rejects).

The CI ``scenario-smoke`` job runs the reduced configuration
(``BENCH_PROFILE=reduced``), asserts the same verdicts + identity, and uploads
the flash_crowd report JSON as an artifact.
"""

import hashlib
import json
import os

from conftest import REDUCED, scale_timeline
from repro.eval import format_table
from repro.eval.report import RESULTS_DIR, record
from repro.loadgen import ScenarioRunner, get_scenario

BACKENDS = ("shared", "sequential")
JSON_PATH = os.path.join(os.path.abspath(RESULTS_DIR), "BENCH_T2.json")


def _run_everywhere(name):
    """One scenario on every backend -> (report, per-backend sha256)."""
    scn = scale_timeline(get_scenario(name))
    digests = {}
    report = None
    for backend in BACKENDS:
        report = ScenarioRunner(scn, backend=backend).run()
        digests[backend] = hashlib.sha256(
            report.to_json().encode()).hexdigest()
    return scn, report, digests


def run_all():
    out = {}
    for name in ("flash_crowd", "chaos_soak"):
        scn, report, digests = _run_everywhere(name)
        out[name] = {"scenario": scn, "report": report,
                     "digests": digests}
    probe = scale_timeline(get_scenario("overload_probe"))
    out["overload_probe"] = {
        "scenario": probe,
        "report": ScenarioRunner(probe, backend="shared").run(),
    }
    return out


def test_bench_traffic(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # verdicts: each pinned scenario lands exactly where it declares
    for name in ("flash_crowd", "chaos_soak"):
        report = results[name]["report"]
        scn = results[name]["scenario"]
        assert report.passed is True, (
            f"{name} failed its SLOs:\n{report.text()}")
        assert report.matches_expectation()
        # identity: one digest across shared/sequential
        digests = set(results[name]["digests"].values())
        assert len(digests) == 1, (
            f"{name} report diverged across backends: "
            f"{results[name]['digests']}")
        assert report.data["totals"]["unresolved"] == 0
        if scn.chaos:
            assert len(report.chaos_timeline) == len(scn.chaos)

    # the chaos plan actually bit: the soak failed over, served through
    soak = results["chaos_soak"]["report"]
    assert [e["action"] for e in soak.chaos_timeline] == [
        "kill", "partition", "heal"]

    # open loop: offered load is a pure function of the spec, so a
    # drowning cluster cannot slow the generator — offered must dwarf
    # served, and the bounded backlog must drop
    probe = results["overload_probe"]["report"]
    row = probe.tenants["firehose"]
    assert row["offered"] > 2 * row["served"]
    assert row["dropped"] > 0
    assert probe.passed is False and probe.matches_expectation()

    crowd = results["flash_crowd"]["report"]
    rows = [
        ["flash_crowd verdict", "PASS", "declared expect_pass=True"],
        ["chaos_soak verdict", "PASS", "kill+partition+heal absorbed"],
        ["report identity", "yes", "shared == sequential (sha256)"],
        ["crowd p99 latency",
         f"{crowd.tenants['crowd']['latency_p99']:.0f} cyc",
         "under the 60k SLO bound"],
        ["overload offered vs served",
         f"{row['offered']} vs {row['served']}",
         "open loop: offered >> served"],
        ["overload drops (vs rejects)",
         f"{row['dropped']} (vs {row['rejected']})",
         "> 0, counted distinctly"],
    ]
    text = format_table(
        ["measure", "value", "bound"], rows,
        title=(f"T2 traffic & scenario engine "
               f"({'reduced' if REDUCED else 'full'} config):"))
    record("T2", "Scenario engine: SLO verdicts, identity, open loop",
           text)

    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    payload = {
        "reduced": REDUCED,
        "backends": list(BACKENDS),
        "scenarios": {
            name: {
                "passed": results[name]["report"].passed,
                "digests": results[name]["digests"],
                "byte_identical":
                    len(set(results[name]["digests"].values())) == 1,
                "slo_verdicts": {
                    r["name"]: r["verdict"]
                    for r in results[name]["report"].slo_rows},
                "totals": results[name]["report"].data["totals"],
            }
            for name in ("flash_crowd", "chaos_soak")
        },
        "overload_probe": {
            "passed": probe.passed,
            "offered": row["offered"],
            "served": row["served"],
            "rejected": row["rejected"],
            "dropped": row["dropped"],
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
