"""A5 — ablation: memory technology under the memory service (DDR4 vs HBM).

Modern boards offer DDR4 or HBM (Section 2's I/O diversity); the Apiary
memory service hides the difference behind the same segment API.  This
ablation measures what the choice buys: HBM's channel parallelism under
concurrent accelerators vs DDR4's lower single-stream latency — and shows
applications are untouched by the swap (portability again).
"""

import pytest

from repro.accel import Accelerator
from repro.eval import format_table
from repro.eval.report import record
from repro.hw.resources import ResourceVector
from repro.kernel import ApiarySystem, MemConfig, NocConfig, SystemConfig
from repro.mem import DDR4_TIMING, HBM2_TIMING

N_READERS = 6
READS_PER_READER = 8
READ_BYTES = 8_192
#: wide (Versal-class) NoC flits, so the fabric isn't the bottleneck and
#: the memory technologies can actually differentiate
FLIT_BYTES = 64


class StreamReader(Accelerator):
    """Allocates a buffer and streams reads from it."""

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, name):
        super().__init__(name)
        self.elapsed = None

    def main(self, shell):
        seg = yield shell.alloc(READ_BYTES)
        t0 = shell.engine.now
        for _ in range(READS_PER_READER):
            yield shell.mem_read(seg, 0, READ_BYTES)
        self.elapsed = shell.engine.now - t0


def run_memory_real(kind):
    if kind == "DDR4 x1ch":
        timing, channels = DDR4_TIMING, 1
    else:
        timing, channels = HBM2_TIMING, 8
    system = ApiarySystem(SystemConfig(
        noc=NocConfig(width=4, height=2, flit_bytes=FLIT_BYTES),
        mem=MemConfig(dram_timing=timing, dram_channels=channels)))
    system.boot()
    readers = [StreamReader(f"reader{i}") for i in range(N_READERS)]
    started = [system.start_app(i + 1, readers[i]) for i in range(N_READERS)]
    system.run_until(system.engine.all_of(started))
    t0 = system.engine.now
    system.run(until=system.engine.now + 300_000_000)
    assert all(r.elapsed is not None for r in readers)
    elapsed = [r.elapsed for r in readers]
    totals = system.dram.totals()
    total_bytes = N_READERS * READS_PER_READER * READ_BYTES
    # aggregate throughput: bytes over the span all readers were active
    span = max(elapsed)
    return {
        "mean_stream_cycles": sum(elapsed) / len(elapsed),
        "agg_bytes_per_cycle": total_bytes / span,
        "row_hits": totals["row_hits"],
        "row_conflicts": totals["row_conflicts"],
    }


def test_bench_memory_tech(benchmark):
    def run_all():
        return {kind: run_memory_real(kind)
                for kind in ("DDR4 x1ch", "HBM2 x8ch")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    ddr = results["DDR4 x1ch"]
    hbm = results["HBM2 x8ch"]
    # channel parallelism wins under concurrency despite HBM's slower
    # per-access timing: higher aggregate bandwidth, shorter streams
    assert hbm["agg_bytes_per_cycle"] > 1.5 * ddr["agg_bytes_per_cycle"]
    assert hbm["mean_stream_cycles"] < ddr["mean_stream_cycles"]

    rows = [[kind, round(r["mean_stream_cycles"]),
             round(r["agg_bytes_per_cycle"], 1), r["row_hits"],
             r["row_conflicts"]]
            for kind, r in results.items()]
    record("A5", f"Memory technology under svc.mem: {N_READERS} concurrent "
                 f"streaming readers ({READ_BYTES}B reads)",
           format_table(["memory", "mean stream cycles", "agg B/cyc",
                         "row hits", "row conflicts"], rows))
