"""FPGA resource accounting.

Section 6, open question 1: *"It is important for scalability that this
monitor's resource utilization remain low since the amount of FPGA logic
resources devoted to Apiary grows with the number of tiles."*

This module is the ledger that question is answered against: every Apiary
component (router, monitor, service, accelerator slot) declares a
:class:`ResourceVector` cost, and a :class:`ResourceBudget` for a given part
tracks allocation and computes the OS overhead share reported in D4.

Cost models are parameterised, not hard numbers: e.g. the monitor's logic
cost grows with its capability-table size, matching how CAM/BRAM-backed
tables scale in real RTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError, ResourceExhausted
from repro.hw.device import FpgaPart

__all__ = [
    "ResourceVector",
    "ResourceBudget",
    "router_cost",
    "monitor_cost",
    "noc_overhead",
]


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of FPGA resources: logic cells, BRAM (KB), DSP slices."""

    logic_cells: int = 0
    bram_kb: int = 0
    dsp_slices: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.logic_cells + other.logic_cells,
            self.bram_kb + other.bram_kb,
            self.dsp_slices + other.dsp_slices,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.logic_cells - other.logic_cells,
            self.bram_kb - other.bram_kb,
            self.dsp_slices - other.dsp_slices,
        )

    def scale(self, factor: int) -> "ResourceVector":
        return ResourceVector(
            self.logic_cells * factor,
            self.bram_kb * factor,
            self.dsp_slices * factor,
        )

    def fits_in(self, other: "ResourceVector") -> bool:
        return (
            self.logic_cells <= other.logic_cells
            and self.bram_kb <= other.bram_kb
            and self.dsp_slices <= other.dsp_slices
        )

    @property
    def nonnegative(self) -> bool:
        return self.logic_cells >= 0 and self.bram_kb >= 0 and self.dsp_slices >= 0


class ResourceBudget:
    """Tracks resource allocation against one FPGA part."""

    def __init__(self, part: FpgaPart):
        self.part = part
        self.total = ResourceVector(part.logic_cells, part.bram_kb, part.dsp_slices)
        self._allocated: Dict[str, ResourceVector] = {}

    @property
    def used(self) -> ResourceVector:
        used = ResourceVector()
        for vec in self._allocated.values():
            used = used + vec
        return used

    @property
    def free(self) -> ResourceVector:
        return self.total - self.used

    def allocate(self, owner: str, cost: ResourceVector) -> None:
        """Reserve ``cost`` for ``owner``; raises when the part is too small."""
        if owner in self._allocated:
            raise ConfigError(f"owner {owner!r} already holds an allocation")
        if not cost.nonnegative:
            raise ConfigError(f"negative resource request from {owner!r}")
        if not cost.fits_in(self.free):
            raise ResourceExhausted(
                f"{owner!r} needs {cost} but only {self.free} free on "
                f"{self.part.name}"
            )
        self._allocated[owner] = cost

    def release(self, owner: str) -> ResourceVector:
        if owner not in self._allocated:
            raise ConfigError(f"owner {owner!r} holds no allocation")
        return self._allocated.pop(owner)

    def owners(self) -> List[str]:
        return sorted(self._allocated)

    def share_of_device(self, owners_prefix: str) -> float:
        """Fraction of the part's logic cells held by owners whose name
        starts with ``owners_prefix`` (e.g. ``"apiary."`` for OS overhead)."""
        held = sum(
            vec.logic_cells
            for name, vec in self._allocated.items()
            if name.startswith(owners_prefix)
        )
        return held / self.total.logic_cells


# -- cost models ---------------------------------------------------------------
#
# Grounded in published FPGA NoC / shell numbers: a 5-port VC wormhole router
# in soft logic costs on the order of 1-2k LUTs (≈2-4k logic cells); shell
# logic for per-accelerator management in Coyote-class systems runs a few
# thousand LUTs.  The *absolute* numbers matter less than how they scale
# with configuration, which is what D4 sweeps.

ROUTER_BASE_CELLS = 1_800
ROUTER_PORTS = 5                  # four mesh neighbours plus the local tile
ROUTER_CELLS_PER_VC_BUFFER = 160  # per (port, VC) buffer slot group
MONITOR_BASE_CELLS = 2_400
MONITOR_CELLS_PER_CAP = 12       # capability-table entry (CAM-ish)
MONITOR_CELLS_PER_SERVICE = 40   # service name-table entry
MONITOR_RATELIMIT_CELLS = 350    # token-bucket datapath
MONITOR_BRAM_KB_PER_64_CAPS = 4


def router_cost(num_vcs: int = 2, buffer_depth: int = 4,
                hardened: bool = False) -> ResourceVector:
    """Soft-logic cost of one NoC router; ~zero when the NoC is hardened.

    Hardened NoCs (Versal, Agilex-M) burn dedicated silicon, not fabric —
    the advantage the paper cites for building Apiary on a NoC.
    """
    if hardened:
        return ResourceVector(logic_cells=120)  # just the fabric-side adapters
    cells = ROUTER_BASE_CELLS + (
        ROUTER_CELLS_PER_VC_BUFFER * ROUTER_PORTS * num_vcs * buffer_depth // 4
    )
    return ResourceVector(logic_cells=cells)


def monitor_cost(cap_table_size: int = 64, service_table_size: int = 16,
                 rate_limited: bool = True) -> ResourceVector:
    """Logic + BRAM cost of one per-tile Apiary monitor.

    Grows linearly in the capability-table size — the knob the D4 sweep
    turns to answer "what is the overhead of the per-tile monitor?".
    """
    if cap_table_size < 1 or service_table_size < 1:
        raise ConfigError("monitor tables need at least one entry")
    cells = (
        MONITOR_BASE_CELLS
        + MONITOR_CELLS_PER_CAP * cap_table_size
        + MONITOR_CELLS_PER_SERVICE * service_table_size
        + (MONITOR_RATELIMIT_CELLS if rate_limited else 0)
    )
    bram = MONITOR_BRAM_KB_PER_64_CAPS * ((cap_table_size + 63) // 64)
    return ResourceVector(logic_cells=cells, bram_kb=bram)


def noc_overhead(part: FpgaPart, tiles: int) -> Dict[str, float]:
    """The D4 headline: Apiary's share of a part as tile count grows.

    Returns the per-tile costs and the fraction of the device's logic cells
    Apiary's static framework (routers + monitors) consumes.
    """
    r = router_cost(hardened=part.hardened_noc)
    m = monitor_cost()
    total_cells = tiles * (r.logic_cells + m.logic_cells)
    return {
        "router_cells": float(r.logic_cells),
        "monitor_cells": float(m.logic_cells),
        "tiles": float(tiles),
        "total_overhead_cells": float(total_cells),
        "device_cells": float(part.logic_cells),
        "overhead_fraction": total_cells / part.logic_cells,
        "cells_per_tile_slot": (part.logic_cells - total_cells) / tiles,
    }
