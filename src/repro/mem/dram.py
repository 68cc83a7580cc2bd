"""DRAM timing model: channels, banks, row buffers.

The memory service's backing store.  The model captures the performance
structure accelerators specialize against (Section 4.6: "Accelerators often
gain much of their performance from specializing to their memory access
patterns"): row-buffer hits are fast, row conflicts pay precharge+activate,
banks operate in parallel within a channel, and each channel has finite
data-bus bandwidth.

Timing parameters default to DDR4-ish values expressed in 250 MHz fabric
cycles; an HBM-ish preset widens the channel count and narrows per-channel
bandwidth, matching how HBM trades channel width for parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.span import SpanRecorder
from repro.sim import Engine, Resource

__all__ = ["DramTiming", "DramBank", "DramChannel", "Dram", "DDR4_TIMING", "HBM2_TIMING"]


@dataclass(frozen=True)
class DramTiming:
    """Timing in fabric cycles.

    row_hit: CAS-only access (row already open).
    row_miss: activate + CAS (bank idle / precharged).
    row_conflict: precharge + activate + CAS (wrong row open).
    burst_bytes: data moved per burst.
    burst_cycles: data-bus occupancy per burst.
    """

    row_hit: int = 8
    row_miss: int = 14
    row_conflict: int = 20
    burst_bytes: int = 64
    burst_cycles: int = 2

    def __post_init__(self) -> None:
        if not (0 < self.row_hit <= self.row_miss <= self.row_conflict):
            raise ConfigError("timing must satisfy hit <= miss <= conflict")
        if self.burst_bytes < 1 or self.burst_cycles < 1:
            raise ConfigError("burst parameters must be positive")


DDR4_TIMING = DramTiming()
HBM2_TIMING = DramTiming(row_hit=10, row_miss=16, row_conflict=24,
                         burst_bytes=32, burst_cycles=1)


class DramBank:
    """One bank: tracks the open row for hit/miss/conflict classification."""

    __slots__ = ("open_row", "hits", "misses", "conflicts")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.conflicts = 0

    def access_kind(self, row: int) -> str:
        if self.open_row is None:
            return "miss"
        if self.open_row == row:
            return "hit"
        return "conflict"

    def touch(self, row: int) -> str:
        kind = self.access_kind(row)
        if kind == "hit":
            self.hits += 1
        elif kind == "miss":
            self.misses += 1
        else:
            self.conflicts += 1
        self.open_row = row
        return kind


class DramChannel:
    """One channel: banks sharing a data bus.

    The bus is a single-slot :class:`Resource`; bank-level parallelism shows
    up as overlap of the row-access portion, while burst transfers serialize
    on the bus — the first-order DRAM behaviour.
    """

    def __init__(self, engine: Engine, timing: DramTiming, banks: int,
                 row_bytes: int, name: str):
        if banks < 1:
            raise ConfigError(f"channel needs >= 1 bank, got {banks}")
        if row_bytes < timing.burst_bytes:
            raise ConfigError("row must hold at least one burst")
        self.engine = engine
        self.timing = timing
        self.row_bytes = row_bytes
        self.name = name
        # row-state -> latency, resolved once: the access loop previously
        # paid a getattr(timing, f"row_{kind}") string build per access
        self._row_latency = {
            "hit": timing.row_hit,
            "miss": timing.row_miss,
            "conflict": timing.row_conflict,
        }
        self.banks = [DramBank() for _ in range(banks)]
        self.bus = Resource(engine, slots=1, name=f"{name}.bus")
        self.bytes_moved = 0

    def locate(self, addr: int) -> Tuple[int, int]:
        """(bank index, row index) for a channel-local address.

        Consecutive rows map to different banks (bank interleaving), so
        streaming access gets bank-level parallelism.
        """
        row_global = addr // self.row_bytes
        bank = row_global % len(self.banks)
        row = row_global // len(self.banks)
        return bank, row

    def access(self, addr: int, nbytes: int):
        """Process generator: one read/write of ``nbytes`` at ``addr``.

        Yields until complete; returns the latency in cycles.
        """
        if nbytes < 1:
            raise ConfigError(f"access needs >= 1 byte, got {nbytes}")
        start = self.engine.now
        remaining = nbytes
        cursor = addr
        while remaining > 0:
            bank_idx, row = self.locate(cursor)
            # bytes available in this row before crossing into the next
            row_offset = cursor % self.row_bytes
            chunk = min(remaining, self.row_bytes - row_offset)
            kind = self.banks[bank_idx].touch(row)
            yield self._row_latency[kind]
            bursts = (chunk + self.timing.burst_bytes - 1) // self.timing.burst_bytes
            grant = yield self.bus.acquire()
            yield bursts * self.timing.burst_cycles
            self.bus.release(grant)
            self.bytes_moved += chunk
            remaining -= chunk
            cursor += chunk
        return self.engine.now - start


class Dram:
    """A multi-channel DRAM device with flat physical addressing.

    Addresses interleave across channels at row granularity, so large
    streams use all channels.  ``access`` is a process generator; callers
    run it with ``yield from`` (same-process) or via ``engine.process``.
    """

    def __init__(
        self,
        engine: Engine,
        channels: int = 2,
        banks_per_channel: int = 8,
        row_bytes: int = 4096,
        capacity_bytes: int = 1 << 30,
        timing: DramTiming = DDR4_TIMING,
        name: str = "dram",
    ):
        if channels < 1:
            raise ConfigError(f"need >= 1 channel, got {channels}")
        if capacity_bytes < channels * row_bytes:
            raise ConfigError("capacity smaller than one row per channel")
        self.engine = engine
        self.capacity_bytes = capacity_bytes
        self.row_bytes = row_bytes
        self.name = name
        self.channels = [
            DramChannel(engine, timing, banks_per_channel, row_bytes,
                        name=f"{name}.ch{i}")
            for i in range(channels)
        ]
        self.reads = 0
        self.writes = 0
        #: causal-span recorder; ApiarySystem replaces this with the shared
        #: system-wide recorder.  Disabled by default, so standalone Dram
        #: instances pay nothing.
        self.spans = SpanRecorder()

    def channel_of(self, addr: int) -> Tuple[DramChannel, int]:
        """(channel, channel-local address) for a physical address."""
        if not 0 <= addr < self.capacity_bytes:
            raise ConfigError(
                f"address {addr:#x} outside {self.capacity_bytes:#x}-byte DRAM"
            )
        row_global = addr // self.row_bytes
        ch = row_global % len(self.channels)
        local_row = row_global // len(self.channels)
        return self.channels[ch], local_row * self.row_bytes + addr % self.row_bytes

    def access(self, addr: int, nbytes: int, is_write: bool = False,
               trace_id: int = 0, parent_span: int = 0):
        """Process generator for one access, split across channels."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        span = 0
        if trace_id and self.spans.enabled:
            span = self.spans.open(
                trace_id, "dram.access", "dram", self.name, self.engine.now,
                parent_id=parent_span, nbytes=nbytes, write=is_write)
        start = self.engine.now
        remaining = nbytes
        cursor = addr
        try:
            while remaining > 0:
                channel, local = self.channel_of(cursor)
                # bytes to the end of this channel's current row
                row_offset = cursor % self.row_bytes
                chunk = min(remaining, self.row_bytes - row_offset)
                yield from channel.access(local, chunk)
                remaining -= chunk
                cursor += chunk
        finally:
            if span:
                self.spans.close(span, self.engine.now)
        return self.engine.now - start

    def totals(self) -> Dict[str, int]:
        hits = sum(b.hits for ch in self.channels for b in ch.banks)
        misses = sum(b.misses for ch in self.channels for b in ch.banks)
        conflicts = sum(b.conflicts for ch in self.channels for b in ch.banks)
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": hits,
            "row_misses": misses,
            "row_conflicts": conflicts,
            "bytes_moved": sum(ch.bytes_moved for ch in self.channels),
        }
