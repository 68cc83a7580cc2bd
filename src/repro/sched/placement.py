"""Resource-aware placement: bin-packing bitstreams onto tile slots.

A placement decision answers "which free reconfigurable region can host
this bitstream?" — capacity (:class:`~repro.hw.resources.ResourceVector`
``fits_in``), design rules (the per-region or system DRC), and policy:

* ``FIRST_FIT`` — lowest feasible tile number.  Deterministic and fast;
  what the service directory's ``_place`` already does implicitly.
* ``BEST_FIT`` — the feasible tile whose capacity leaves the least
  slack, so big slots stay open for big bitstreams (classic bin-packing;
  only differs from first-fit on heterogeneous region capacities).
* ``LOCALITY`` — the feasible tile with the fewest NoC hops
  (``Mesh2D.hop_distance``) to an anchor tile, e.g. a memory-heavy
  accelerator next to the DRAM service tile.  Falls back to first-fit
  when no anchor is given.

Failures are typed: :class:`~repro.errors.PlacementFailed` carries a
per-tile reason list so callers (and tests) see *why* nothing fit.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, PlacementFailed
from repro.hw.bitstream import Bitstream, DesignRuleChecker

__all__ = ["Placer", "PlacementPolicy"]


class PlacementPolicy(enum.Enum):
    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    LOCALITY = "locality"


class Placer:
    """Stateless placement engine over one system's tiles."""

    def __init__(
        self,
        tiles,
        topo,
        drc: Optional[DesignRuleChecker] = None,
        policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
        reserved: Iterable[int] = (),
    ):
        if not isinstance(policy, PlacementPolicy):
            raise ConfigError(f"unknown placement policy {policy!r}")
        self.tiles = tiles
        self.topo = topo
        self.drc = drc
        self.policy = policy
        #: tiles placement must never touch (OS service tiles, spares...)
        self.reserved = frozenset(reserved)

    # -- feasibility -------------------------------------------------------

    def reject_reason(self, node: int, bitstream: Bitstream) -> Optional[str]:
        """Why ``bitstream`` cannot go on tile ``node`` (None = feasible)."""
        if node in self.reserved:
            return "reserved"
        tile = self.tiles[node]
        if tile.occupied:
            return f"occupied by {tile.accelerator.name!r}"
        if not tile.free:
            return "slot busy (loading, unloading or reserved by a load)"
        return self.misfit_reason(node, bitstream)

    def misfit_reason(self, node: int, bitstream: Bitstream) -> Optional[str]:
        """Why ``bitstream`` could not go in ``node``'s slot even once it
        is vacated: capacity and design rules (None = it would fit)."""
        region = self.tiles[node].region
        if not bitstream.cost.fits_in(region.capacity):
            return (f"needs {bitstream.cost.logic_cells} cells, slot has "
                    f"{region.capacity.logic_cells}")
        drc = region.drc if region.drc is not None else self.drc
        if drc is not None:
            violations = drc.violations(bitstream)
            if violations:
                return "DRC: " + "; ".join(v.rule for v in violations)
        return None

    # -- selection ---------------------------------------------------------

    def place(
        self,
        bitstream: Bitstream,
        near: Optional[int] = None,
        exclude: Iterable[int] = (),
    ) -> int:
        """Pick the tile for ``bitstream`` under the configured policy.

        Raises :class:`PlacementFailed` (with per-tile reasons) when no
        tile is feasible.  Ties always break toward the lowest tile
        number, so placement is deterministic under every policy.
        """
        skip = set(exclude)
        candidates: List[int] = []
        reasons: Dict[int, str] = {}
        for tile in self.tiles:
            if tile.node in skip:
                reasons[tile.node] = "excluded"
                continue
            why = self.reject_reason(tile.node, bitstream)
            if why is None:
                candidates.append(tile.node)
            else:
                reasons[tile.node] = why
        if not candidates:
            detail = ", ".join(f"t{n}: {why}" for n, why in sorted(reasons.items()))
            err = PlacementFailed(
                f"no tile fits {bitstream.name!r} "
                f"({bitstream.cost.logic_cells} cells) [{detail}]"
            )
            err.reasons = reasons
            raise err
        return min(candidates, key=self._key(bitstream, near))

    def _key(self, bitstream: Bitstream, near: Optional[int]):
        if self.policy is PlacementPolicy.BEST_FIT:
            def key(node: int) -> Tuple:
                left = self.tiles[node].region.capacity - bitstream.cost
                return (left.logic_cells, left.bram_kb, left.dsp_slices, node)
        elif self.policy is PlacementPolicy.LOCALITY and near is not None:
            def key(node: int) -> Tuple:
                return (self.topo.hop_distance(near, node), node)
        else:  # FIRST_FIT (and LOCALITY without an anchor)
            def key(node: int) -> Tuple:
                return (node,)
        return key
