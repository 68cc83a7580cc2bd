"""D6 — fault blast radius across execution models (Section 4.4).

One accelerator crashes mid-service.  We measure what a *co-resident but
unrelated* service experiences, and what the victim's own clients
experience, under three models:

* no OS (bare, hand-wired): the crash wedges the whole board;
* Apiary fail-stop: the victim's tile drains, peers get prompt errors,
  the unrelated service is untouched;
* Apiary preemptible: only the faulting context dies — even the victim's
  *other* streams keep being served.
"""

import pytest

from repro.accel import Accelerator, CrashingAccel, EchoAccel, PreemptibleVideoEncoder
from repro.baselines import BareFpgaSystem
from repro.errors import DeadlineExceeded, TileFault
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    FaultPolicy,
    NocConfig,
    SystemConfig,
)
from repro.net import EthernetFabric
from repro.sim import Engine
from repro.workloads import RemoteClientHost

PROBES = 12
GAP = 4000


class PacedCaller(Accelerator):
    def __init__(self, name, target, op="ping", payload=None, count=PROBES):
        super().__init__(name)
        self.target = target
        self.op = op
        self.payload_factory = payload or (lambda i: i)
        self.count = count
        self.ok = 0
        self.failed = 0

    def main(self, shell):
        for i in range(self.count):
            yield GAP
            try:
                yield shell.call(self.target, self.op,
                                 payload=self.payload_factory(i),
                                 timeout=200_000)
                self.ok += 1
            except Exception:
                self.failed += 1


def run_bare():
    """No OS: crash after 4 requests wedges the unrelated service too."""
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=100)
    board = BareFpgaSystem(engine, fabric, "board0")
    calls = {"n": 0}

    def crashing(body):
        calls["n"] += 1
        if calls["n"] > 4:
            raise TileFault("crash")
        return 50, "ok", 16

    board.register(1, crashing)
    board.register(2, lambda body: (50, "ok", 16))  # unrelated service
    outcomes = {"victim_ok": 0, "victim_failed": 0,
                "unrelated_ok": 0, "unrelated_failed": 0}
    client = RemoteClientHost(engine, fabric, "client0")

    def script():
        for i in range(PROBES):
            yield GAP
            for port, prefix in ((1, "victim"), (2, "unrelated")):
                try:
                    yield client.request("board0", port, i, timeout=200_000)
                    outcomes[f"{prefix}_ok"] += 1
                except DeadlineExceeded:
                    outcomes[f"{prefix}_failed"] += 1

    proc = engine.process(script())
    engine.run_until_done(proc.done, limit=500_000_000)
    return outcomes


def run_apiary(policy):
    """Apiary: victim + unrelated echo; crash contained per policy."""
    system = ApiarySystem(SystemConfig(
        noc=NocConfig(width=3, height=2), fault=FaultConfig(policy=policy)))
    system.boot()
    if policy == FaultPolicy.PREEMPT:
        victim = PreemptibleVideoEncoder("victim")
        victim_op = "encode"

        def payload(i):
            return {"stream": "s0", "seq": i, "frames": 1, "bytes": 5_000}
    else:
        victim = CrashingAccel("victim", crash_after=4, service_cycles=50)
        victim_op = "ping"
        payload = None
    system.run_until(system.start_app(2, victim, endpoint="app.victim"))
    unrelated = EchoAccel("unrelated", cost=50)
    system.run_until(system.start_app(3, unrelated, endpoint="app.unrelated"))

    caller = PacedCaller("caller", "app.victim", op=victim_op, payload=payload)
    bystander = PacedCaller("bystander", "app.unrelated")
    started_events = []
    for node, accel, target in ((4, caller, "app.victim"),
                                (5, bystander, "app.unrelated")):
        started_events.append(system.start_app(node, accel))
        system.mgmt.grant_send(f"tile{node}", target)
    system.run_until(system.engine.all_of(started_events))
    if policy == FaultPolicy.PREEMPT:
        # trigger the context fault once the victim demonstrably serves
        deadline = system.engine.now + 20_000_000
        while victim.chunks_encoded < 4 and system.engine.now < deadline:
            system.run(until=system.engine.now + 20_000)
        victim.inject_fault_after = 0
    system.run(until=system.engine.now + 10_000_000)
    return {
        "victim_ok": caller.ok, "victim_failed": caller.failed,
        "unrelated_ok": bystander.ok, "unrelated_failed": bystander.failed,
        "tile_failed": system.tiles[2].failed,
        "records": [r.action for r in system.fault_manager.records],
    }


def run_all():
    return {
        "bare (no OS)": run_bare(),
        "apiary fail-stop": run_apiary(FaultPolicy.FAIL_STOP),
        "apiary preempt": run_apiary(FaultPolicy.PREEMPT),
    }


def test_bench_fault_containment(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    bare = results["bare (no OS)"]
    failstop = results["apiary fail-stop"]
    preempt = results["apiary preempt"]

    # no OS: the unrelated service is collateral damage
    assert bare["unrelated_failed"] > 0
    # Apiary (either policy): the unrelated service never misses a beat
    assert failstop["unrelated_failed"] == 0
    assert failstop["unrelated_ok"] == PROBES
    assert preempt["unrelated_failed"] == 0
    # fail-stop: the victim tile is down...
    assert failstop["tile_failed"]
    assert "drained" in failstop["records"]
    # ...preempt: the tile survives, only a context died
    assert not preempt["tile_failed"]
    assert "context-killed" in preempt["records"]
    assert preempt["victim_ok"] > failstop["victim_ok"]

    rows = []
    for name, r in results.items():
        rows.append([name, r["victim_ok"], r["victim_failed"],
                     r["unrelated_ok"], r["unrelated_failed"]])
    record("D6", f"Fault blast radius ({PROBES} paced probes to the victim "
                 "and to an unrelated co-resident service)",
           format_table(["model", "victim ok", "victim failed",
                         "unrelated ok", "unrelated failed"], rows))
