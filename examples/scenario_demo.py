"""Declarative scenario runs: flash_crowd, scored against its SLOs.

Runs the canned ``flash_crowd`` scenario — a 4x crowd spike against a
4-board sharded KV cluster — and prints its ScenarioReport: per-tenant
offered/served/latency rows, SLO verdicts, and the final pass/fail.
Then cranks the same spike up to 16x so the hot shard drowns, and runs
it again: the error budget burns, the SLO engine pages, and the report
shows drops (backlog overflow) counted apart from rejects (admission
control) while the open-loop generator keeps firing.

Run:
    PYTHONPATH=src python examples/scenario_demo.py
"""

import argparse
from dataclasses import replace

from repro.loadgen import ScenarioRunner, get_scenario


def crank_spike(scenario, high):
    """The same scenario with the spike envelope peaking at ``high``x."""
    tenants = []
    for tenant in scenario.tenants:
        envelopes = tuple(
            replace(e, high=high) if e.shape == "spike" else e
            for e in tenant.arrival.envelopes)
        tenants.append(replace(
            tenant, arrival=replace(tenant.arrival, envelopes=envelopes)))
    return replace(scenario, name=f"{scenario.name}_x{high:g}",
                   tenants=tuple(tenants), expect_pass=False)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run flash_crowd, then overdrive it until it pages")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="shared",
                        choices=("shared", "sequential"))
    parser.add_argument("--crank", type=float, default=16.0,
                        help="spike peak multiplier for the overdriven "
                             "run (default 16x)")
    args = parser.parse_args(argv)

    scenario = get_scenario("flash_crowd", seed=args.seed)

    print("=== flash_crowd: a survivable 4x spike ===")
    report = ScenarioRunner(scenario, backend=args.backend).run()
    print(report.text())
    print(f"declared expect_pass={scenario.expect_pass}, "
          f"matches: {report.matches_expectation()}")

    print()
    print(f"=== the same crowd at {args.crank:g}x: budget burns, "
          f"alerts fire ===")
    cranked = crank_spike(scenario, args.crank)
    report = ScenarioRunner(cranked, backend=args.backend).run()
    print(report.text())

    crowd = report.tenants["crowd"]
    print(f"open loop under overload: offered={crowd['offered']} "
          f"served={crowd['served']} rejected={crowd['rejected']} "
          f"dropped={crowd['dropped']}")
    pages = [a for a in report.alerts if a["severity"] == "page"]
    tickets = [a for a in report.alerts if a["severity"] == "ticket"]
    print(f"burn-rate alerts: {len(pages)} page(s), "
          f"{len(tickets)} ticket(s)")
    if not report.alerts:
        raise SystemExit("expected the cranked run to fire burn alerts")


if __name__ == "__main__":
    main()
