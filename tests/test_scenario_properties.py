"""Scenario-level properties of drawn scenarios on the ``shared`` backend.

At quiescence every offered request has resolved exactly once, and a
scenario is a pure function of its dict: a rerun gives the same report
bytes.
"""

from hypothesis import given, settings

from repro.loadgen import Scenario, ScenarioRunner
from tests.strategies import small_scenarios


def _report(scenario):
    return ScenarioRunner(Scenario.from_dict(scenario), backend="shared").run()


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_every_offered_request_resolves_and_a_rerun_is_identical(scenario):
    # the default drain outlasts the queue and retry deadlines: quiescence
    scenario = dict(scenario, drain=None)
    report = _report(scenario)
    for name, row in report.tenants.items():
        assert row["offered"] == (row["served"] + row["rejected"]
                                  + row["dropped"] + row["failed"]), name
        assert row["unresolved"] == 0, name
    assert _report(scenario).to_json() == report.to_json()
