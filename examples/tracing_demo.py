#!/usr/bin/env python3
"""Causal tracing demo: span trees, stage breakdowns, and Perfetto export.

Boots a 3x2 Apiary system with tracing and telemetry enabled, runs a small
accelerator workload against the memory service, then shows everything the
observability layer reconstructs:

* the causal span tree of each request (shell -> monitor -> NoC -> service
  -> DRAM -> reply), whose per-stage cycle sums equal the measured
  end-to-end latency exactly;
* the aggregate where-does-time-go breakdown across all requests;
* the telemetry sampler's NoC utilization heatmap and counter series;
* a Chrome trace-event JSON file loadable in Perfetto or chrome://tracing.

Run:  python examples/tracing_demo.py [--out trace_demo.json]
"""

import argparse

from repro.accel import Accelerator
from repro.kernel import ApiarySystem, SystemConfig
from repro.obs import SpanIndex, export_chrome_trace, run_report, validate_chrome_trace


class TracedWorker(Accelerator):
    """Allocate a segment, then do a few write/read round-trips."""

    def __init__(self, rounds: int = 3):
        super().__init__("traced-worker")
        self.rounds = rounds
        self.completed = 0

    def main(self, shell):
        seg = yield shell.alloc(64 * 1024, label="traced-buffer")
        for i in range(self.rounds):
            payload = bytes([i % 256]) * 256
            yield shell.mem_write(seg, i * 256, payload, 256)
            yield shell.mem_read(seg, i * 256, 256)
            self.completed += 1
        yield shell.free(seg)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace_demo.json",
                        help="Chrome trace-event JSON output path")
    parser.add_argument("--rounds", type=int, default=3,
                        help="write/read round-trips to run")
    args = parser.parse_args(argv)

    system = ApiarySystem(SystemConfig.figure1())
    system.enable_tracing()
    system.enable_telemetry(interval=500)
    system.boot()

    app = TracedWorker(rounds=args.rounds)
    started = system.start_app(4, app, endpoint="app.traced")
    system.run_until(started)
    system.run(until=system.engine.now + 2_000_000)
    assert app.completed == args.rounds, "workload did not finish"

    index = system.span_index()
    complete = index.complete_traces()
    events = len(list(system.spans.events()))
    print(f"Recorded {len(system.spans) - events} spans across "
          f"{len(index.trace_ids())} traces ({len(complete)} complete) "
          f"and {events} events.\n")

    # the tentpole invariant: per-stage cycles partition end-to-end latency
    for tid in complete:
        breakdown = index.stage_breakdown(tid)
        latency = index.latency(tid)
        assert sum(breakdown.values()) == latency, (tid, breakdown, latency)
    print("Invariant holds: every trace's stage cycles sum to its "
          "end-to-end latency.\n")

    print(run_report(index, sampler=system.sampler, stats=system.stats))

    export_chrome_trace(args.out, system.spans, sampler=system.sampler)
    import json
    with open(args.out) as fh:
        n_events = validate_chrome_trace(json.load(fh))
    print(f"\nWrote {args.out} ({n_events} events) — open it at "
          "https://ui.perfetto.dev or chrome://tracing.")


if __name__ == "__main__":
    main()
