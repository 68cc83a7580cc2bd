"""Misbehaving accelerators — the adversaries the isolation story is for.

Section 2: "This could occur due to misbehavior from a bug or maliciously,
if the KV-store is attempting to interfere or snoop on the computation of
the encoder."  Each class here is one concrete misbehaviour; the isolation
tests and D5/D6 experiments run them against victims and check the blast
radius.
"""

from __future__ import annotations

from typing import Any

from repro.accel.base import Accelerator
from repro.errors import (
    AccessDenied,
    SegmentFault,
    ServiceError,
    ServiceUnavailable,
    TileFault,
)
from repro.hw.resources import ResourceVector
from repro.kernel.message import MemAccess

__all__ = ["FloodingAccel", "SnoopingAccel", "CrashingAccel", "WildWriterAccel"]

#: out-of-bounds writes a :class:`WildWriterAccel` attempts
WILD_PROBES = 8


class FloodingAccel(Accelerator):
    """Floods a victim endpoint with back-to-back events (resource
    exhaustion).  The D5 experiment shows the monitor's token bucket
    bounding its damage."""

    COST = ResourceVector(logic_cells=5_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 4_000}
    TOGGLE_RATE = 0.5

    def __init__(self, name: str, victim: str, message_bytes: int = 256):
        super().__init__(name)
        self.victim = victim
        self.message_bytes = message_bytes
        self.sent = 0
        self.denied = 0

    def main(self, shell):
        while True:
            try:
                yield shell.notify(self.victim, "flood", payload=self.sent,
                                   payload_bytes=self.message_bytes)
                self.sent += 1
            except (AccessDenied, ServiceUnavailable, TileFault):
                self.denied += 1
                yield 100  # back off a little and try again


class SnoopingAccel(Accelerator):
    """Tries to reach endpoints and memory it was never authorized for.

    Logs every outcome; a correct Apiary build shows denials only.
    """

    COST = ResourceVector(logic_cells=5_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 4_000}

    def __init__(self, name: str, target_endpoint: str,
                 stolen_cap: Any = None):
        super().__init__(name)
        self.target_endpoint = target_endpoint
        self.stolen_cap = stolen_cap  # a CapabilityRef leaked from a victim
        self.outcomes = []

    def main(self, shell):
        # 1. message an endpoint without a SEND capability
        try:
            yield shell.call(self.target_endpoint, "kv.get",
                             payload={"key": "secret"}, timeout=50_000)
            self.outcomes.append(("send-unauthorized", "SUCCEEDED"))
        except (AccessDenied, ServiceError, ServiceUnavailable) as err:
            self.outcomes.append(("send-unauthorized", type(err).__name__))
        # 2. replay a capability reference leaked from another tile
        if self.stolen_cap is not None:
            try:
                yield shell.call(shell.mem_service, "mem.read",
                                 payload=MemAccess(offset=0, nbytes=64),
                                 cap=self.stolen_cap, timeout=50_000)
                self.outcomes.append(("stolen-cap", "SUCCEEDED"))
            except (AccessDenied, ServiceError, ServiceUnavailable) as err:
                self.outcomes.append(("stolen-cap", type(err).__name__))
        # 3. behave: allocate own memory and stay inside it
        seg = yield shell.alloc(4096)
        try:
            yield shell.mem_read(seg, 0, 64)
            self.outcomes.append(("own-memory", "ok"))
        except Exception as err:  # pragma: no cover - should not happen
            self.outcomes.append(("own-memory", type(err).__name__))
        # 4. overrun own segment bounds
        try:
            yield shell.mem_read(seg, 4090, 64)
            self.outcomes.append(("overrun", "SUCCEEDED"))
        except (SegmentFault, ServiceError) as err:
            self.outcomes.append(("overrun", type(err).__name__))


class CrashingAccel(Accelerator):
    """Serves requests normally, then hits a hardware fault mid-request.

    The workhorse of the fault-containment experiment (D6): wraps a normal
    request loop with fault injection after ``crash_after`` items.
    """

    COST = ResourceVector(logic_cells=10_000, bram_kb=32, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 8_000}

    def __init__(self, name: str, crash_after: int = 10,
                 service_cycles: int = 50):
        super().__init__(name)
        self.service_cycles = service_cycles
        self.inject_fault_after = crash_after
        self.served = 0

    def main(self, shell):
        while True:
            msg = yield shell.recv()
            yield from self._work(self.service_cycles)
            self.served += 1
            yield shell.reply(msg, payload="ok")


class WildWriterAccel(Accelerator):
    """Allocates a segment, then probes addresses outside it.

    Models the Section 2 DRAM-sharing problem: without isolation these
    writes land in a neighbour's buffer; with segments+caps every probe
    faults at the monitor.
    """

    COST = ResourceVector(logic_cells=5_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 4_000}

    def __init__(self, name: str):
        super().__init__(name)
        self.faults = 0
        self.landed = 0

    def main(self, shell):
        seg = yield shell.alloc(4096)
        for i in range(WILD_PROBES):
            offset = seg.size + i * 4096  # always out of bounds
            try:
                yield shell.mem_write(seg, offset, b"junk", 64)
                self.landed += 1
            except (SegmentFault, ServiceError):
                self.faults += 1
