"""A3 — message-dependent deadlock on the raw NoC, and Apiary's answer.

Section 4.5 inherits the NoC literature's concern: request-reply protocols
over finite endpoint queues can deadlock even on a routing-deadlock-free
fabric (replies stuck behind requests that can't drain).  Three runs:

1. raw NoC, both endpoints send-before-receive with tiny queues — the
   classic protocol deadlock; the progress watchdog reports it;
2. raw NoC with concurrent consumption — no deadlock (the protocol fix);
3. the same mutual request-reply pattern through Apiary monitors — the
   monitor's OS-side buffering decouples ejection from the application,
   so the pattern completes without the application being deadlock-aware.
"""

import pytest

from repro.accel import Accelerator
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import ApiarySystem, MemConfig, NocConfig, SystemConfig
from repro.noc import Mesh2D, Network, ProgressWatchdog
from repro.sim import Engine

N_MSGS = 40


def run_raw(concurrent_consumer: bool):
    """Two nodes exchange N requests each over a deliberately tiny NoC."""
    engine = Engine()
    net = Network(engine, Mesh2D(2, 1), num_vcs=1, buffer_depth=2,
                  delivery_queue_depth=2)
    stalls = []
    dog = ProgressWatchdog(engine, net, interval=2000,
                           on_stall=lambda t: stalls.append(t))
    received = {0: 0, 1: 0}

    def sender(node, peer):
        ni = net.interface(node)
        for i in range(N_MSGS):
            yield ni.send(peer, payload=("req", i), payload_bytes=64)

    def receiver(node):
        ni = net.interface(node)
        for _ in range(N_MSGS):
            yield ni.recv()
            received[node] += 1

    eng_procs = [engine.process(sender(0, 1)), engine.process(sender(1, 0))]
    if concurrent_consumer:
        # the protocol fix: consume while sending
        eng_procs += [engine.process(receiver(0)),
                      engine.process(receiver(1))]

        def run():
            engine.run(until=2_000_000)
    else:
        # send-before-receive: receivers start only after senders finish,
        # which they never do — the deadlock
        def gated(node):
            yield eng_procs[node].done
            yield from receiver(node)

        engine.process(gated(0))
        engine.process(gated(1))

        def run():
            engine.run(until=200_000)

    run()
    return {
        "stalled": bool(stalls),
        "stall_at": stalls[0] if stalls else None,
        "delivered": sum(received.values()),
        "in_flight": net.in_flight_packets(),
    }


class MutualTalker(Accelerator):
    """Sends N requests to a peer while serving the peer's requests."""

    def __init__(self, name, peer):
        super().__init__(name)
        self.peer = peer
        self.sent_ok = 0
        self.served = 0

    def main(self, shell):
        shell.spawn("client", self._client(shell))
        while True:
            msg = yield shell.recv()
            self.served += 1
            yield shell.reply(msg, payload="ok")

    def _client(self, shell):
        for i in range(N_MSGS):
            yield shell.call(self.peer, "chat", payload=i, payload_bytes=64,
                             timeout=10_000_000)
            self.sent_ok += 1


def run_apiary():
    system = ApiarySystem(SystemConfig(
        noc=NocConfig(width=2, height=1, buffer_depth=2),
        mem=MemConfig(enabled=False)))
    system.boot()
    a = MutualTalker("a", "app.b")
    b = MutualTalker("b", "app.a")
    started = [system.start_app(0, a, endpoint="app.a"),
               system.start_app(1, b, endpoint="app.b")]
    system.mgmt.connect("tile0", "app.b")
    system.mgmt.connect("tile1", "app.a")
    for ev in started:
        system.run_until(ev)
    system.run(until=system.engine.now + 50_000_000)
    return {"a_ok": a.sent_ok, "b_ok": b.sent_ok,
            "served": a.served + b.served}


def test_bench_deadlock(benchmark):
    def run_all():
        return run_raw(False), run_raw(True), run_apiary()

    deadlocked, healthy, apiary = benchmark.pedantic(run_all, rounds=1,
                                                     iterations=1)

    # 1. send-before-receive on tiny queues deadlocks, and the watchdog
    #    reports it instead of the run hanging silently
    assert deadlocked["stalled"]
    assert deadlocked["in_flight"] > 0
    assert deadlocked["delivered"] < 2 * N_MSGS
    # 2. concurrent consumption completes the identical traffic
    assert not healthy["stalled"]
    assert healthy["delivered"] == 2 * N_MSGS
    # 3. through Apiary, the naive pattern completes: the monitor drains
    #    the NI continuously, so replies never jam behind requests
    assert apiary["a_ok"] == N_MSGS and apiary["b_ok"] == N_MSGS
    assert apiary["served"] == 2 * N_MSGS

    rows = [
        ["raw NoC, send-before-receive", "DEADLOCK "
         f"(stall at cycle {deadlocked['stall_at']:,}, "
         f"{deadlocked['delivered']}/{2 * N_MSGS} delivered)"],
        ["raw NoC, concurrent consumer",
         f"completes ({healthy['delivered']}/{2 * N_MSGS})"],
        ["same pattern through Apiary monitors",
         f"completes ({apiary['served']}/{2 * N_MSGS} served)"],
    ]
    record("A3", "Message-dependent deadlock: mutual request-reply over "
                 "2-deep queues",
           format_table(["configuration", "outcome"], rows))
