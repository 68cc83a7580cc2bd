"""Resource-aware placement: bin-packing bitstreams onto tile slots.

A placement decision answers "which free reconfigurable region can host
this bitstream?" — capacity (:class:`~repro.hw.resources.ResourceVector`
``fits_in``) and design rules (the per-region or system DRC) — and picks
the lowest feasible tile number (first fit): deterministic, and what the
service directory's ``_place`` does too.

Failures are typed: :class:`~repro.errors.PlacementFailed` carries a
per-tile reason list so callers (and tests) see *why* nothing fit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import PlacementFailed
from repro.hw.bitstream import Bitstream, DesignRuleChecker

__all__ = ["Placer"]


class Placer:
    """Stateless placement engine over one system's tiles."""

    def __init__(self, tiles, drc: Optional[DesignRuleChecker] = None):
        self.tiles = tiles
        self.drc = drc

    # -- feasibility -------------------------------------------------------

    def reject_reason(self, node: int, bitstream: Bitstream) -> Optional[str]:
        """Why ``bitstream`` cannot go on tile ``node`` (None = feasible)."""
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
        exclude: Iterable[int] = (),
    ) -> int:
        """The lowest-numbered tile that can host ``bitstream``.

        Raises :class:`PlacementFailed` (with per-tile reasons) when no
        tile is feasible.
        """
        skip = set(exclude)
        reasons: Dict[int, str] = {}
        for tile in self.tiles:
            if tile.node in skip:
                reasons[tile.node] = "excluded"
                continue
            why = self.reject_reason(tile.node, bitstream)
            if why is None:
                return tile.node
            reasons[tile.node] = why
        detail = ", ".join(f"t{n}: {why}" for n, why in sorted(reasons.items()))
        err = PlacementFailed(
            f"no tile fits {bitstream.name!r} "
            f"({bitstream.cost.logic_cells} cells) [{detail}]"
        )
        err.reasons = reasons
        raise err
