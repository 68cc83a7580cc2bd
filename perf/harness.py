"""Run one workload repetition and stamp it, through public calls only.

A repetition is *construct -> seal -> run -> report*.  The harness
never reaches into the layers: it wraps ``Cluster.boot`` /
``run_until`` / ``seal`` / ``run`` (``Engine.run`` for the flood) to
take ``perf_counter`` stamps, and reads results from the
``ScenarioReport``, ``merged_stats()``, ``FrontEnd.telemetry()`` and
the NoC's public counters.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.cluster.cluster import Cluster
from repro.loadgen import Scenario, ScenarioRunner
from repro.noc import Mesh2D, Network
from repro.sim import Engine

from perf.slicing import SliceClock, slice_stops
from perf.workloads import FloodSpec, Workload

__all__ = ["run_repetition"]


class _SetupDone(Exception):
    """Raised from the seal hook to end a build-only repetition."""


def _digest(document: Dict[str, Any]) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def _cluster_hooks(clock: SliceClock, marks: Dict[str, float],
                   sliced: bool, on_seal: Optional[Callable[[], None]],
                   stop_at_seal: bool) -> Iterator[None]:
    """Stamp the set-up phases and (optionally) slice ``Cluster.run``."""
    orig_boot, orig_run_until = Cluster.boot, Cluster.run_until
    orig_seal, orig_run = Cluster.seal, Cluster.run

    def boot(self, *args, **kwargs):
        orig_boot(self, *args, **kwargs)
        marks["boot"] = time.perf_counter()

    def run_until(self, *args, **kwargs):
        orig_run_until(self, *args, **kwargs)
        marks["deploy"] = time.perf_counter()

    def seal(self):
        orig_seal(self)
        clock.start(self.now)
        if stop_at_seal:
            raise _SetupDone()
        if on_seal is not None:
            on_seal()

    def run(self, until=None):
        if not clock.started or until is None:
            orig_run(self, until)
            return
        for stop in slice_stops(self.now, until, clock.origin, clock.width):
            orig_run(self, until=stop)
            if clock.is_boundary(stop):
                clock.cross(self.engine.pending_events())

    Cluster.boot, Cluster.run_until, Cluster.seal = boot, run_until, seal
    if sliced:
        Cluster.run = run
    try:
        yield
    finally:
        Cluster.boot, Cluster.run_until = orig_boot, orig_run_until
        Cluster.seal, Cluster.run = orig_seal, orig_run


def _weighted(rows: List[Dict[str, Any]], field: str) -> float:
    served = sum(row["served"] for row in rows)
    return sum(row[field] * row["served"] for row in rows
               if row[field] is not None) / max(served, 1)


def _scenario_facts(report, cluster: Cluster) -> Dict[str, Any]:
    """Simulated results of one scenario run, from public surfaces."""
    data = report.data
    totals = data["totals"]
    rows = list(data["tenants"].values())
    stats = cluster.merged_stats()
    counters = stats.snapshot()["counters"]
    telemetry = cluster.frontend.telemetry()
    return {
        "attempted": totals["offered"],
        "served": totals["served"],
        "failed": (totals["rejected"] + totals["dropped"]
                   + totals["failed"] + totals["unresolved"]),
        "resolved_exactly": totals["offered"] == (
            totals["served"] + totals["rejected"] + totals["dropped"]
            + totals["failed"]) and totals["unresolved"] == 0,
        "passed": bool(data["passed"]),
        "kcycles": (data["window"]["end"] - data["window"]["start"]) / 1000,
        # per-tenant sketches are the runner's own; the report publishes
        # each tenant's percentiles, combined here weighted by served
        "p50_cycles": _weighted(rows, "latency_p50"),
        "p99_cycles": _weighted(rows, "latency_p99"),
        "counts": {
            "noc.packets_delivered": int(counters["noc.packets_delivered"]),
            "noc.flits_forwarded": sum(
                s.network.total_flits_forwarded() for s in cluster.systems),
            "noc.packet_latency_p99_cycles":
                stats.sketch("noc.packet_latency").percentile(99),
            "kernel.monitor_messages":
                int(counters["monitor.messages_sent"]),
            "net.frames_sent": sum(
                s.mac.frames_sent for s in cluster.systems
                if s.mac is not None),
            "cluster.requests_admitted": telemetry["requests_admitted"],
            "cluster.requests_refused": (telemetry["requests_rejected"]
                                         + telemetry["requests_dropped"]),
            "cluster.batches_sent": telemetry["batches_sent"],
            "cluster.probes_sent": sum(
                row["probes_sent"] for row in telemetry["health"].values()),
            "cluster.failovers": telemetry["failovers"],
        },
    }


def _run_scenario(workload: Workload, scenario: Scenario, sliced: bool,
                  on_seal: Optional[Callable[[], None]],
                  stop_at_seal: bool) -> Dict[str, Any]:
    clock = SliceClock(workload.slice_cycles)
    marks: Dict[str, float] = {}
    report = runner = None
    with _cluster_hooks(clock, marks, sliced, on_seal, stop_at_seal):
        gc.collect()
        t0 = time.perf_counter()
        runner = ScenarioRunner(scenario, backend=workload.backend)
        try:
            report = runner.run()
        except _SetupDone:
            pass
        clock.finish()
    rep = _stamped(clock, t0, marks)
    if report is not None:
        rep["digest"] = _digest(report.data)
        rep.update(_scenario_facts(report, runner.cluster))
    return rep


def _run_flood(workload: Workload, spec: FloodSpec, sliced: bool,
               on_seal: Optional[Callable[[], None]],
               stop_at_seal: bool) -> Dict[str, Any]:
    clock = SliceClock(workload.slice_cycles)
    marks: Dict[str, float] = {}
    gc.collect()
    t0 = time.perf_counter()
    engine = Engine()
    network = Network(engine, Mesh2D(spec.width, spec.height))
    marks["boot"] = time.perf_counter()

    def sender(node: int):
        interface = network.interface(node)
        for dst in spec.destinations[node]:
            yield interface.send(dst, payload_bytes=spec.payload_bytes)

    def sink(node: int):
        interface = network.interface(node)
        while True:
            yield interface.recv()

    for node in range(spec.width * spec.height):
        engine.process(sender(node), name=f"send{node}")
        engine.process(sink(node), name=f"sink{node}")
    marks["deploy"] = time.perf_counter()
    clock.start(0)
    if stop_at_seal:
        clock.finish()
        return _stamped(clock, t0, marks)
    if on_seal is not None:
        on_seal()
    if sliced:
        for stop in slice_stops(0, spec.cycles, 0, clock.width):
            engine.run(until=stop)
            if clock.is_boundary(stop):
                clock.cross(engine.pending_events())
    else:
        engine.run(until=spec.cycles)
    counters = network.stats.snapshot()["counters"]
    latency = network.stats.sketch("noc.packet_latency")
    injected = int(counters["noc.packets_injected"])
    delivered = int(counters["noc.packets_delivered"])
    report = {
        "injected": injected,
        "delivered": delivered,
        "in_flight": network.in_flight_packets(),
        "flits_forwarded": network.total_flits_forwarded(),
        "latency": latency.summary(),
    }
    clock.finish()
    rep = _stamped(clock, t0, marks)
    rep.update({
        "digest": _digest(report),
        "attempted": injected,
        "served": delivered,
        "failed": 0,
        "resolved_exactly": injected - delivered == report["in_flight"],
        "passed": True,
        "kcycles": spec.cycles / 1000,
        "p50_cycles": latency.percentile(50),
        "p99_cycles": latency.percentile(99),
        "counts": {
            "noc.packets_delivered": delivered,
            "noc.flits_forwarded": report["flits_forwarded"],
            "noc.packet_latency_p99_cycles": latency.percentile(99),
        },
    })
    return rep


def _stamped(clock: SliceClock, t0: float, marks: Dict[str, float]
             ) -> Dict[str, Any]:
    sealed = clock.sealed_at
    return {
        "setup_s": sealed - t0,
        "setup_boot_s": marks["boot"] - t0,
        "setup_deploy_s": marks["deploy"] - marks["boot"],
        "setup_frontend_seal_s": sealed - marks["deploy"],
        "slices": clock.slice_times(),
        "pending": clock.pending,
        "calibration": clock.calibration,
    }


def run_repetition(workload: Workload, inputs: Union[Scenario, FloodSpec],
                   sliced: bool = True,
                   on_seal: Optional[Callable[[], None]] = None,
                   stop_at_seal: bool = False) -> Dict[str, Any]:
    """One fresh repetition of ``workload`` on ``inputs`` (what
    ``workload.build(seed)`` returned).

    Returns the stamps (``setup_s`` and its three-way split, ``slices``,
    ``pending``, ``calibration``) and — unless ``stop_at_seal`` — the
    report digest and the simulated facts.  ``on_seal`` fires when
    set-up ends.
    """
    run = _run_flood if isinstance(inputs, FloodSpec) else _run_scenario
    return run(workload, inputs, sliced, on_seal, stop_at_seal)
