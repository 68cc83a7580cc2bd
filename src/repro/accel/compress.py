"""Compression accelerator — the "third-party accelerator" of Section 2.

"Since compression is a common function, we might want to use a third-party
accelerator.  This accelerator would not be designed to participate in a
bespoke memory partitioning setup and would require memory isolation."

The model compresses byte streams at a fixed throughput (cycles per KB) and
optionally stages its dictionary in an OS-allocated segment — obtained via
the standard shell API, never via a bespoke partitioning arrangement, which
is exactly what makes it composable with anyone's pipeline (D9).
"""

from __future__ import annotations

from typing import Optional

from repro.accel.base import Accelerator
from repro.hw.resources import ResourceVector

__all__ = ["Compressor", "COMPRESS_CYCLES_PER_KB"]

#: Throughput model: a few GB/s of compression => ~60 cycles per KB.
COMPRESS_CYCLES_PER_KB = 60

#: Output bytes per input byte.
COMPRESS_RATIO = 0.62


class Compressor(Accelerator):
    """Compresses payloads; accepts both direct requests and pipeline input.

    Ops:
    * ``compress`` — request/response: ``{"bytes": n}`` -> ``{"bytes": m}``.
    * ``encode.out`` — pipeline input from an upstream encoder; compressed
      and forwarded to ``downstream`` if set, else just acknowledged.
    """

    COST = ResourceVector(logic_cells=60_000, bram_kb=512, dsp_slices=8)
    PRIMITIVES = {"lut_logic": 48_000, "bram": 128}

    def __init__(self, name: str, downstream: Optional[str] = None,
                 use_dram_dictionary: bool = False):
        super().__init__(name)
        self.downstream = downstream
        self.use_dram_dictionary = use_dram_dictionary
        self.dictionary_seg = None
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def main(self, shell):
        if self.use_dram_dictionary:
            # third-party module using OS memory like any other tenant
            self.dictionary_seg = yield shell.alloc(64 * 1024,
                                                    label=f"{self.name}.dict")
        while True:
            msg = yield shell.recv()
            if msg.op in ("compress", "encode.out"):
                yield from self._compress(shell, msg)
            else:
                yield shell.reply(msg, payload=f"unknown op {msg.op!r}",
                                  error=True)

    def _compress(self, shell, msg):
        body = msg.payload if isinstance(msg.payload, dict) else {}
        nbytes = int(body.get("bytes", msg.payload_bytes))
        if self.use_dram_dictionary and self.dictionary_seg is not None:
            # dictionary lookups touch DRAM: one small read per 4KB of input
            reads = max(1, nbytes // 4096)
            for _ in range(min(reads, 4)):  # cap modelled lookups per chunk
                yield shell.mem_read(self.dictionary_seg, 0, 256)
        yield from self._work(max(1, nbytes * COMPRESS_CYCLES_PER_KB // 1024))
        out_bytes = max(32, int(nbytes * COMPRESS_RATIO))
        self.chunks_compressed += 1
        self.bytes_in += nbytes
        self.bytes_out += out_bytes
        result = dict(body)
        result["bytes"] = out_bytes
        if self.downstream is not None:
            yield shell.call(self.downstream, "compress.out", payload=result,
                             payload_bytes=out_bytes)
        yield shell.reply(msg, payload=result, payload_bytes=32)
