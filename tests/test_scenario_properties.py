"""Scenario-level properties of drawn scenarios on the ``shared`` backend.

At quiescence every offered request has resolved exactly once, and a
scenario is a pure function of its dict: a rerun gives the same report
bytes, in this interpreter or in one with another string-hash seed.  All
through the traffic phase, express lane on or off, every board's NoC
holds each buffer slot exactly once: as a credit, or as a flit buffered
or on its way to the slot.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.loadgen import Scenario, ScenarioRunner
from repro.noc import network as network_module
from repro.noc.topology import Port
from tests.conftest import credits_with_the_wire, inject_credits_with_the_wire
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


#: the child's half of the hash-seed check: a scenario dict on stdin, the
#: sha256 of its report on stdout
_CHILD = """\
import hashlib, json, sys
from repro.loadgen import Scenario, ScenarioRunner
scenario = Scenario.from_dict(json.load(sys.stdin))
report = ScenarioRunner(scenario, backend="shared").run()
print(hashlib.sha256(report.to_json().encode()).hexdigest())
"""


@settings(max_examples=5, deadline=None)
@given(small_scenarios())
def test_a_report_does_not_depend_on_the_string_hash_seed(scenario):
    scenario = Scenario.from_dict(scenario)
    report = ScenarioRunner(scenario, backend="shared").run()
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                           input=json.dumps(scenario.to_dict()),
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == digest


def _held_downstream(net, router, port):
    """Per VC, the flits ``router`` sent out of ``port`` that still hold
    a slot past it: on the wire or buffered at the far router, or at the
    far interface on the wire, in its ejection buffer or held as the tail
    the delivery channel has yet to accept."""
    held = [0] * net.num_vcs
    out = router._out[port]
    if out.down is None:
        ni = net.interface(router.node)
        for _landing, flit in ni._flits_in:
            held[flit.vc] += 1
        for flit in ni._eject_buffer:
            held[flit.vc] += 1
        if ni._held_vc is not None:
            held[ni._held_vc] += 1
        return held
    for ivc in out.down._in[out.down_port]:
        held[ivc.vc] += len(ivc.buffer)
    for _landing, in_port, flit in out.down._flits_in:
        if in_port is out.down_port:
            held[flit.vc] += 1
    return held


def _assert_credits_conserved(net):
    """Every output's credits plus the credit rows on the wire plus the
    flits downstream, per VC, are one buffer's depth; so are every
    interface's injection credits plus what its router's LOCAL input
    holds."""
    net.total_flits_forwarded()  # a packet on the express lane, as flits
    full = [net.buffer_depth] * net.num_vcs
    for node in net.topo.nodes():
        router = net.router(node)
        for port in router._out:
            counted = [c + h for c, h in zip(
                credits_with_the_wire(router, port),
                _held_downstream(net, router, port))]
            assert counted == full, (router.name, port.name)
        local = [c + len(ivc.buffer) for c, ivc in zip(
            inject_credits_with_the_wire(net.interface(node)),
            router._in[Port.LOCAL])]
        assert local == full, (router.name, "injection")


#: cycles between two conservation checks of a run's traffic phase: a
#: prime, so the checks fall on every phase of the periodic timers
_CHECK_EVERY = 4_999


@settings(max_examples=60, deadline=None)
@given(small_scenarios(), st.booleans())
def test_flits_and_credits_are_conserved_throughout_a_run(scenario, lane):
    """Checked every ``_CHECK_EVERY`` cycles of the traffic phase and at
    the end cycle.  No drain: the run ends with the load still on, so
    some boards end with flits and credits on the wires.  With the express
    lane off (report-neutral) every packet crosses as flits; with it on,
    a check takes the lane's packet off it, as any reader does."""
    scenario = dict(scenario, drain=0)
    runner = ScenarioRunner(Scenario.from_dict(scenario), backend="shared")
    build = runner._build
    checks = []

    def check(cluster):
        for system in cluster.systems:
            _assert_credits_conserved(system.network)
        checks.append(cluster.now)

    def build_then_step():
        cluster = build()
        run = cluster.run

        def stepped(until):
            while cluster.now + _CHECK_EVERY < until:
                run(until=cluster.now + _CHECK_EVERY)
                check(cluster)
            run(until=until)
            check(cluster)

        cluster.run = stepped
        return cluster

    runner._build = build_then_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_LANE", lane)
        runner.run()
    assert len(checks) >= scenario["duration"] // _CHECK_EVERY


#: one board's every router stalled from the traffic's first cycle on:
#: packets start before the horizon, on routes that are not idle
_STALLED_ECHO = {
    "name": "random", "seed": 0, "duration": 20_000, "n_fpgas": 2,
    "start_at": 1_500_000, "drain": 60_000,
    "services": [{"name": "svc", "kind": "echo", "instances": 1,
                  "work_cycles": 500}],
    "tenants": [{"name": "t0", "service": "svc", "read_fraction": 0.0,
                 "arrival": {"process": "poisson", "rate_per_kcycle": 0.3}}],
    "chaos": [],
    "slos": [{"name": "availability", "service": "svc", "objective": 0.5}],
}


@settings(max_examples=15, deadline=None)
@given(small_scenarios(), st.lists(
    st.tuples(st.integers(0, 59_999), st.integers(0, 2),
              st.one_of(st.none(), st.integers(0, 63)),
              st.integers(1, 5_000)),
    max_size=6))
@example(_STALLED_ECHO, [(1, 0, None, 1_438)])
def test_the_quiet_rule_admits_no_packet_the_per_router_check_refuses(
        scenario, stalls):
    """A packet that finds the network empty takes the express lane on the
    network's quiet horizon alone — past the end of the latest router
    stall; before it, on the check of every router on its route.  With
    router stalls drawn on top of the scenario's chaos (``(cycle after
    start, board, router, cycles)``; a router of ``None`` stalls every
    router of the board), whenever the horizon admits a packet the
    per-router check does too, and before the horizon the lane is open
    exactly when that check passes."""
    runner = ScenarioRunner(Scenario.from_dict(scenario), backend="shared")
    build = runner._build
    admitted = []

    def build_then_stall():
        cluster = build()
        for at, board, node, cycles in stalls:
            if board >= len(cluster.systems):
                continue
            routers = cluster.systems[board].network._routers
            if node is not None:
                routers = [routers[node % len(routers)]]
            at += scenario["start_at"]
            if at > cluster.engine.now:
                cluster.engine.schedule(
                    at - cluster.engine.now,
                    lambda _arg, rs=routers, c=cycles: [
                        r.stall(c) for r in rs])
        return cluster

    open_route = network_module.Network._open_route

    def checked(net, ni, pkt):
        now = net.engine.now
        held = net.interface(pkt.dst)._held_vc is not None
        route = open_route(net, ni, pkt)
        path = net._lane_routes[pkt.src, pkt.dst][0]
        if held:
            assert route is None
        elif now >= net._quiet_from:
            assert route is not None
            assert net._route_idle(ni, path, now), (now, pkt)
            admitted.append(now)
        else:
            assert (route is not None) == net._route_idle(ni, path, now)
        return route

    runner._build = build_then_stall
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module.Network, "_open_route", checked)
        runner.run()
    assert admitted, "no packet found the network quiet"
