#!/usr/bin/env python3
"""Quickstart: boot Apiary, run an accelerator, use OS memory.

Builds a 3x2-tile Apiary system on a simulated VU29P, boots the memory
service, loads a tiny accelerator that allocates a segment through the
standard shell API, writes and reads it back (every access capability-
checked by the tile's monitor), and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.accel import Accelerator
from repro.kernel import ApiarySystem, SystemConfig
from repro.obs import export_chrome_trace


class HelloAccel(Accelerator):
    """Allocate -> write -> read -> free, through the portable shell API."""

    def __init__(self):
        super().__init__("hello")
        self.readback = None

    def main(self, shell):
        # every one of these calls is a message through this tile's monitor,
        # over the NoC, to the memory-service tile
        seg = yield shell.alloc(16 * 1024, label="hello-buffer")
        print(f"[{shell.engine.now:>8} cyc] allocated segment "
              f"sid={seg.sid} size={seg.size}")
        yield shell.mem_write(seg, 0, b"hello, apiary!", 14)
        print(f"[{shell.engine.now:>8} cyc] wrote 14 bytes (DRAM time paid)")
        resp = yield shell.mem_read(seg, 0, 14)
        self.readback = resp.payload
        print(f"[{shell.engine.now:>8} cyc] read back: {self.readback!r}")
        yield shell.free(seg)
        print(f"[{shell.engine.now:>8} cyc] freed (capability revoked)")


def main():
    system = ApiarySystem(SystemConfig.figure1())
    system.enable_tracing()  # causal spans; zero-cost unless enabled
    system.boot()
    print("Booted Apiary:")
    print(system.describe())
    print()

    app = HelloAccel()
    started = system.start_app(4, app, endpoint="app.hello")
    system.run_until(started)  # waits out partial reconfiguration
    print(f"[{system.engine.now:>8} cyc] accelerator loaded into tile 4\n")

    system.run(until=system.engine.now + 2_000_000)
    assert app.readback == b"hello, apiary!"

    print()
    print("Final state:")
    print(system.describe())
    print(f"\nApiary's static framework uses "
          f"{system.apiary_overhead_fraction():.1%} of the device's logic.")
    print(f"NoC carried {system.network.total_flits_forwarded()} flits; "
          f"monitors passed "
          f"{sum(t.monitor.messages_sent for t in system.tiles)} messages, "
          f"denied {sum(t.monitor.denials for t in system.tiles)}.")

    # where did each request's time go? (causal spans, aggregated)
    index = system.span_index()
    total = sum(index.aggregate_stages().values())
    print("\nRequest time by stage (all traced requests):")
    for stage, cycles in sorted(index.aggregate_stages().items(),
                                key=lambda kv: -kv[1]):
        print(f"  {stage:<20} {cycles:>6} cyc ({cycles / total:.0%})")
    export_chrome_trace("quickstart_trace.json", system.spans)
    print("\nWrote quickstart_trace.json — load it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
