"""Tier-1 shapes of the two S1 library scenarios.

A short run mostly simulates idle probing: the default ``start_at`` parks
a deployed cluster for ~0.6M cycles and the default drain for another
0.42M.  These variants open traffic right after deploy settles (~1.42M
cycles), size the drain to the run and compress the timelines — rates,
services and front-end fields are the library's — so the tests that run
them a dozen times stay inside the tier-1 budget.
"""

from dataclasses import replace

import pytest

from repro.loadgen import ChaosAction, get_scenario


@pytest.fixture(scope="session")
def scale_small():
    """``scale_out`` on 2 boards, a third of the window (~370 offered)."""
    return replace(get_scenario("scale_out"), duration=100_000,
                   start_at=1_500_000, drain=100_000)


@pytest.fixture(scope="session")
def kill_small():
    """``board_kill`` compressed 4x: board 1 dies at 50k of 150k cycles."""
    return replace(get_scenario("board_kill"), duration=150_000,
                   start_at=1_500_000, drain=100_000,
                   chaos=(ChaosAction(at=50_000, action="kill", board=1),))
