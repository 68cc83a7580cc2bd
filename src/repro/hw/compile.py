"""Bitstream compilation: logical designs -> content-addressed artifacts.

The reconfiguration tax S2 measures has two very different parts.  The
partial-reconfiguration *write* (~hundreds of kilocycles, ICAP-bound,
:func:`~repro.hw.region.reconfig_duration`) is physics — every load pays
it.  *Synthesis* — place-and-route of the design into a region-shaped
partial bitstream — is minutes of CPU on real tools, megacycles here, and
is pure waste when the same design is rebuilt for every replica.  SYNERGY
kills that waste by virtualizing bitstreams; FOS by pre-building
shell-compatible modules.  This module is our equivalent:

* :func:`artifact_digest` content-addresses a design: the digest covers
  the design family, resource cost (which doubles as the region-shape
  envelope the artifact was floorplanned for), primitive histogram,
  toggle declaration, and signer — *not* the per-instance name, so every
  replica of one service class maps to one artifact;
* :class:`BitstreamArtifact` is the immutable compiled output, carrying
  the digest, the canonical bitstream, and the fact that design rules
  were screened at build time (``drc_clean`` — loads of the artifact skip
  the per-load DRC re-check);
* :class:`CompileService` is one deterministic synthesis worker: a FIFO
  queue, realistic per-design cost, in-flight deduplication by digest
  (ten replicas requested mid-build coalesce onto one run), and the DRC
  screen applied exactly once per artifact — "bitstream analysis after
  the build process" (Section 3.1), where vendors actually run it.

Everything is driven by the simulation engine and seeded state only, so
identically-seeded runs compile identically — the per-board caches built
on top (:mod:`repro.cluster.bitcache`) inherit that determinism, which is
what lets the PDES backends fork a compile pipeline per partition and
still merge byte-identical stats.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.bitstream import Bitstream, DesignRuleChecker

__all__ = [
    "SYNTH_CYCLES_PER_CELL",
    "SYNTH_CYCLES_PER_BRAM_KB",
    "SYNTH_CYCLES_PER_DSP",
    "synthesis_duration",
    "artifact_digest",
    "BitstreamArtifact",
    "CompileService",
]

#: Synthesis cost in fabric cycles per logic cell.  Place-and-route of a
#: 60k-cell service shell is minutes of CPU time; against a 250 MHz
#: fabric clock even a deliberately conservative 64 cycles/cell puts one
#: compile (~4M cycles) at ~5x the partial-reconfiguration write — the
#: gap the artifact cache exists to close.
SYNTH_CYCLES_PER_CELL = 64

#: BRAM placement/init generation is cheaper per bit than logic routing.
SYNTH_CYCLES_PER_BRAM_KB = 512

#: DSP slices route through dedicated columns; modest per-slice cost.
SYNTH_CYCLES_PER_DSP = 1_024


def synthesis_duration(cost) -> int:
    """Cycles one synthesis run of a design of ``cost`` takes."""
    return max(1, cost.logic_cells * SYNTH_CYCLES_PER_CELL
               + cost.bram_kb * SYNTH_CYCLES_PER_BRAM_KB
               + cost.dsp_slices * SYNTH_CYCLES_PER_DSP)


def artifact_digest(bitstream: Bitstream) -> str:
    """Content address of the *design* a bitstream instantiates.

    Covers the design family (never the per-instance name), the resource
    cost — which is also the region-shape envelope the artifact is
    floorplanned against, so any region with capacity >= cost can host it
    — the primitive histogram, the declared toggle rate, and the signer.
    Two replicas of one service class digest identically and share a
    cache entry; changing any design-visible property changes the digest.
    """
    payload = repr((
        bitstream.design_family,
        (bitstream.cost.logic_cells, bitstream.cost.bram_kb,
         bitstream.cost.dsp_slices),
        bitstream.primitives,
        bitstream.max_toggle_rate,
        bitstream.signed_by,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BitstreamArtifact:
    """One compiled, content-addressed partial bitstream.

    ``bitstream`` is the canonical copy the artifact was synthesized from
    (the first instance submitted); every same-digest request receives
    this artifact.  ``drc_clean`` records that the design-rule screen ran
    at build time, which is what authorizes
    :meth:`~repro.hw.region.ReconfigRegion.load` to skip its per-load
    re-check (``precleared=True``).
    """

    digest: str
    bitstream: Bitstream
    #: synthesis cycles this artifact cost to build (provenance/metrics)
    synth_cycles: int
    drc_clean: bool = True

    @property
    def size_cells(self) -> int:
        """Cache-accounting size: the logic-cell envelope of the design."""
        return self.bitstream.cost.logic_cells


class CompileService:
    """One deterministic synthesis worker with a FIFO queue.

    ``compile()`` returns an event that succeeds with the
    :class:`BitstreamArtifact` (or fails with the DRC rejection).
    Requests for a digest already being built coalesce onto the in-flight
    run — the queue never holds two builds of the same design.  All
    timing comes from :func:`synthesis_duration` and the engine clock, so
    two identically-seeded runs compile in identical order at identical
    cycles.
    """

    def __init__(
        self,
        engine,
        drc: Optional[DesignRuleChecker] = None,
        stats=None,
        name: str = "synth",
    ):
        self.engine = engine
        self.drc = drc
        self.stats = stats
        self.name = name
        #: FIFO of (digest, bitstream) waiting for the worker
        self._queue: List[Tuple[str, Bitstream]] = []
        #: digest -> completion event for queued + running builds
        self._in_flight: Dict[str, object] = {}
        self._busy = False
        self.compiles_started = 0
        self.compiles_completed = 0
        self.compiles_rejected = 0
        self.compiles_coalesced = 0
        self.synth_busy_cycles = 0

    @property
    def backlog(self) -> int:
        """Queued + running builds — the synthesis-backlog gauge."""
        return len(self._queue) + (1 if self._busy else 0)

    def compile(self, bitstream: Bitstream):
        """Submit a design; returns the (possibly shared) build event."""
        digest = artifact_digest(bitstream)
        pending = self._in_flight.get(digest)
        if pending is not None:
            self.compiles_coalesced += 1
            self._count("coalesced")
            return pending
        done = self.engine.event(f"{self.name}.compile")
        if self.drc is not None:
            # screened once per artifact, at build submission — loads of
            # the resulting artifact are precleared and never re-check
            try:
                self.drc.check(bitstream)
            except Exception as err:  # BitstreamRejected
                self.compiles_rejected += 1
                self._count("rejected")
                done.fail(err)
                return done
        self._in_flight[digest] = done
        self._queue.append((digest, bitstream))
        self.compiles_started += 1
        self._count("started")
        self._pump()
        return done

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        digest, bitstream = self._queue.pop(0)
        duration = synthesis_duration(bitstream.cost)

        def finish(_arg, d=digest, bs=bitstream, took=duration) -> None:
            self._busy = False
            self.compiles_completed += 1
            self.synth_busy_cycles += took
            self._count("completed")
            if self.stats is not None:
                self.stats.gauge(f"{self.name}.busy_cycles").add(took)
            artifact = BitstreamArtifact(
                digest=d, bitstream=bs, synth_cycles=took,
                drc_clean=True)
            done = self._in_flight.pop(d)
            done.succeed(artifact)
            self._pump()

        self.engine.schedule(duration, finish)

    def _count(self, what: str) -> None:
        if self.stats is not None:
            self.stats.counter(f"{self.name}.{what}").inc()
