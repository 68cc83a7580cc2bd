"""Partial-reconfiguration regions.

Each Apiary tile's accelerator slot is a dynamically reconfigurable region
(Section 4.1: "these untrusted tile slots are dynamically instantiated
regions, while Apiary's framework resides in the static area").  A
:class:`ReconfigRegion` models the slot: it holds at most one bitstream,
loading takes time proportional to bitstream size (ICAP/PCAP bandwidth is
the bottleneck on real parts), and loads go through the design-rule checker.

The paper explicitly *omits* scheduling of what gets configured into slots
(deferring to AmorphOS/Coyote); we match that scope: regions expose
load/unload mechanics and the management plane calls them, but no placement
policy lives here.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReconfigError
from repro.hw.bitstream import Bitstream, DesignRuleChecker
from repro.hw.resources import ResourceVector
from repro.sim import Engine, Event

__all__ = [
    "ReconfigRegion",
    "RECONFIG_CYCLES_PER_CELL",
    "RECONFIG_CYCLES_PER_BRAM_KB",
    "RECONFIG_CYCLES_PER_DSP",
    "reconfig_duration",
]

#: Reconfiguration cost in fabric cycles per logic cell.  ICAP moves
#: ~400 MB/s = ~1.6 B per 250 MHz cycle = ~13 config bits/cycle; at ~100
#: bits of configuration per logic cell that is ~8 cycles per cell —
#: loading a 120k-cell accelerator takes ~1M cycles (~4 ms), matching
#: published partial-reconfiguration times.
RECONFIG_CYCLES_PER_CELL = 8

#: BRAM configuration frames at the same ~13 config bits/cycle: one KB of
#: block RAM is 8192 content bits, ~640 cycles through the config port.
#: Memory-heavy bitstreams honestly pay for their initialization frames
#: instead of hiding behind the per-cell constant.
RECONFIG_CYCLES_PER_BRAM_KB = 640

#: A DSP slice carries ~2.6k configuration bits (opmode, pipeline
#: registers, cascade routing) — ~200 cycles each at 13 bits/cycle.
RECONFIG_CYCLES_PER_DSP = 200


def reconfig_duration(cost: ResourceVector) -> int:
    """Cycles to stream a partial bitstream of ``cost`` through the
    config port.  Scales with the *full* resource vector — logic frames,
    BRAM initialization frames, DSP configuration — so a memory-heavy
    accelerator pays more than a LUT-only one of equal cell count.  The
    single source of truth for reconfiguration time: regions, the
    autoscaler's jump-scaling prediction, and the compile pipeline's
    warm-path accounting all call this."""
    return max(
        1,
        cost.logic_cells * RECONFIG_CYCLES_PER_CELL
        + cost.bram_kb * RECONFIG_CYCLES_PER_BRAM_KB
        + cost.dsp_slices * RECONFIG_CYCLES_PER_DSP,
    )


class ReconfigRegion:
    """One reconfigurable slot with a capacity and an optional DRC screen."""

    def __init__(
        self,
        engine: Engine,
        capacity: ResourceVector,
        drc: Optional[DesignRuleChecker] = None,
        name: str = "slot",
        stats=None,
    ):
        self.engine = engine
        self.capacity = capacity
        self.drc = drc
        self.name = name
        self.stats = stats
        self.loaded: Optional[Bitstream] = None
        self._busy = False
        self.loads_completed = 0
        self.loads_rejected = 0
        self.unloads_completed = 0
        #: cycles the config port spent streaming frames (loads + unloads) —
        #: the reconfiguration overhead the scheduler's decisions cost
        self.busy_cycles_total = 0

    @property
    def reconfig_count(self) -> int:
        """Completed reconfiguration operations (loads + unloads)."""
        return self.loads_completed + self.unloads_completed

    def _account(self, duration: int) -> None:
        """Record one completed reconfiguration of ``duration`` cycles."""
        self.busy_cycles_total += duration
        if self.stats is not None:
            self.stats.gauge(f"region.{self.name}.busy_cycles").add(duration)
            self.stats.counter(f"region.{self.name}.reconfigs").inc()

    @property
    def occupied(self) -> bool:
        return self.loaded is not None

    @property
    def reconfiguring(self) -> bool:
        return self._busy

    def load_duration(self, bitstream: Bitstream) -> int:
        """Cycles to stream the partial bitstream through the config port."""
        return reconfig_duration(bitstream.cost)

    def load(self, bitstream: Bitstream, precleared: bool = False) -> Event:
        """Begin loading; the event succeeds when the region is live.

        Rejections (DRC, capacity, busy) fail the event with
        :class:`ReconfigError` rather than raising synchronously, because the
        management plane treats them as runtime outcomes, not caller bugs.

        ``precleared=True`` skips the per-load DRC screen: the caller holds
        a :class:`~repro.hw.compile.BitstreamArtifact` whose design rules
        were checked once at synthesis time, so re-screening every load of
        the same artifact would double-count (and double-charge) the check.
        Capacity and busy checks still apply — they are per-slot, not
        per-design.
        """
        done = self.engine.event(f"{self.name}.load")
        if self._busy:
            done.fail(ReconfigError(f"{self.name} is mid-reconfiguration"))
            return done
        if self.loaded is not None:
            done.fail(ReconfigError(
                f"{self.name} already holds {self.loaded.name!r}; unload first"
            ))
            return done
        if not bitstream.cost.fits_in(self.capacity):
            self.loads_rejected += 1
            done.fail(ReconfigError(
                f"{bitstream.name!r} needs {bitstream.cost}, slot capacity is "
                f"{self.capacity}"
            ))
            return done
        if self.drc is not None and not precleared:
            try:
                self.drc.check(bitstream)
            except Exception as err:  # BitstreamRejected
                self.loads_rejected += 1
                done.fail(err)
                return done
        self._busy = True
        duration = self.load_duration(bitstream)

        def finish(_arg) -> None:
            self._busy = False
            self.loaded = bitstream
            self.loads_completed += 1
            self._account(duration)
            done.succeed(bitstream)

        self.engine.schedule(duration, finish)
        return done

    def unload(self) -> Event:
        """Clear the region (fast: just blanks the slot's frames)."""
        done = self.engine.event(f"{self.name}.unload")
        if self._busy:
            done.fail(ReconfigError(f"{self.name} is mid-reconfiguration"))
            return done
        if self.loaded is None:
            done.fail(ReconfigError(f"{self.name} is already empty"))
            return done
        previous = self.loaded
        self._busy = True
        duration = max(1, self.load_duration(previous) // 10)

        def finish(_arg) -> None:
            self._busy = False
            self.loaded = None
            self.unloads_completed += 1
            self._account(duration)
            done.succeed(previous)

        self.engine.schedule(duration, finish)
        return done
