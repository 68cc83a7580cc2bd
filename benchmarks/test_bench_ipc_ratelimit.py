"""D5 — IPC rate limiting: containing a resource-exhaustion attack.

Section 4.5: "having permissioned access and rate limiting are necessary to
prevent malicious accelerators from ... causing resource exhaustion."

Setup: a legitimate client and a flooding accelerator share one victim
service.  Without a rate limit the flood starves the client; with the
management plane throttling the flooder's monitor, the client's latency
recovers while the flood is contained at the attacker's own tile.
"""

import pytest

from repro.accel import Accelerator, FloodingAccel, SinkAccel
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import ApiarySystem, SystemConfig


class ProbeClient(Accelerator):
    """Sends paced requests to the victim, recording latency."""

    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, victim, count=10, gap=2000):
        super().__init__("probe")
        self.victim = victim
        self.count = count
        self.gap = gap
        self.latencies = []
        self.failures = 0

    def main(self, shell):
        for i in range(self.count):
            yield self.gap
            t0 = shell.engine.now
            try:
                yield shell.call(self.victim, "probe", payload=i,
                                 payload_bytes=64, timeout=3_000_000)
                self.latencies.append(shell.engine.now - t0)
            except Exception:
                self.failures += 1


def run_scenario(flood_rate_limit):
    """Returns (client median latency, flood messages admitted)."""
    system = ApiarySystem(SystemConfig.figure1())
    system.boot()
    victim = SinkAccel("victim", service_cycles=30)
    flooder = FloodingAccel("flooder", victim="app.victim",
                            message_bytes=112)
    client = ProbeClient("app.victim")
    started = [system.start_app(2, victim, endpoint="app.victim"),
               system.start_app(4, flooder),
               system.start_app(5, client)]
    system.mgmt.grant_send("tile4", "app.victim")
    system.mgmt.grant_send("tile5", "app.victim")
    if flood_rate_limit is not None:
        system.mgmt.set_rate_limit(4, flood_rate_limit, burst=16)
    system.run_until(system.engine.all_of(started))
    system.run(until=system.engine.now + 120_000)
    import numpy as np

    median = float(np.median(client.latencies)) if client.latencies else float("inf")
    return {
        "client_median": median,
        "client_completed": len(client.latencies),
        "client_failures": client.failures,
        "flood_sent": flooder.sent,
        "victim_consumed": victim.consumed,
    }


def run_all():
    baseline = run_scenario(flood_rate_limit=None)
    limited = run_scenario(flood_rate_limit=0.01)  # ~1 flit / 100 cycles
    return baseline, limited


def test_bench_ipc_ratelimit(benchmark):
    baseline, limited = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # the attack works without the limit: client latency inflated badly
    assert baseline["client_median"] > 5 * limited["client_median"]
    # the limit contains the flood at the source...
    assert limited["flood_sent"] < baseline["flood_sent"] / 5
    # ...and the client completes its probes promptly
    assert limited["client_completed"] == 10
    assert limited["client_failures"] == 0

    rows = [
        ["no rate limit", baseline["client_median"],
         baseline["client_completed"], baseline["client_failures"],
         baseline["flood_sent"]],
        ["flooder throttled", limited["client_median"],
         limited["client_completed"], limited["client_failures"],
         limited["flood_sent"]],
    ]
    record("D5", "Rate limiting a flooding accelerator (victim shared with "
                 "a paced client; 120k-cycle window)",
           format_table(["configuration", "client p50 (cyc)",
                         "client done", "client failed",
                         "flood msgs admitted"], rows))
