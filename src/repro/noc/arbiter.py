"""Arbiters: who wins when several requesters want one resource this cycle.

Routers arbitrate per output port among competing input VCs.  Round-robin
gives fairness; the weighted variant implements the QoS differentiation the
paper wants from prior NoC work ("quality of service guarantees", Section
4.5 citations [18, 34]).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError

__all__ = ["RoundRobinArbiter", "WeightedArbiter", "PriorityArbiter"]


class RoundRobinArbiter:
    """Rotating-priority arbiter over a fixed slot count.

    The winner is the first requesting slot at-or-after the pointer,
    wrapping to the lowest, and the pointer moves past it — the standard
    hardware round-robin cell.  :meth:`grant` is that rule on a request
    bitmask (what the router's switch allocator builds); :meth:`pick`
    takes dense request lines.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ConfigError(f"arbiter needs >= 1 slot, got {slots}")
        self.slots = slots
        self._pointer = 0

    def grant(self, mask: int) -> int:
        """The winning slot of a non-zero request mask (bit ``i`` = slot
        ``i`` requests)."""
        pointer = self._pointer
        ahead = mask >> pointer << pointer or mask
        slot = (ahead & -ahead).bit_length() - 1
        self._pointer = (slot + 1) % self.slots
        return slot

    def pick(self, requests: Sequence[bool]) -> Optional[int]:
        """Index of the winning slot, or ``None`` if nobody requests."""
        if len(requests) != self.slots:
            raise ConfigError(
                f"expected {self.slots} request lines, got {len(requests)}"
            )
        mask = 0
        for idx, requested in enumerate(requests):
            if requested:
                mask |= 1 << idx
        return self.grant(mask) if mask else None


class PriorityArbiter:
    """Fixed-priority arbiter: lowest index wins.  Used for escape VCs."""

    def __init__(self, slots: int):
        if slots < 1:
            raise ConfigError(f"arbiter needs >= 1 slot, got {slots}")
        self.slots = slots

    def pick(self, requests: Sequence[bool]) -> Optional[int]:
        for idx in range(min(self.slots, len(requests))):
            if requests[idx]:
                return idx
        return None


class WeightedArbiter:
    """Deficit-weighted round robin.

    Each slot accumulates ``weight`` credits per grant opportunity and the
    requesting slot with the largest deficit wins, so long-run grant shares
    converge to the weight ratios even under persistent contention.
    """

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise ConfigError("weighted arbiter needs at least one weight")
        if any(w <= 0 for w in weights):
            raise ConfigError(f"weights must be positive, got {list(weights)}")
        self.weights = list(weights)
        self.slots = len(weights)
        self._deficit = [0.0] * self.slots
        self._rr = RoundRobinArbiter(self.slots)

    def pick(self, requests: Sequence[bool]) -> Optional[int]:
        if len(requests) != self.slots:
            raise ConfigError(
                f"expected {self.slots} request lines, got {len(requests)}"
            )
        if not any(requests):
            return None
        for idx, req in enumerate(requests):
            if req:
                self._deficit[idx] += self.weights[idx]
        best: Optional[int] = None
        best_deficit = float("-inf")
        for idx, req in enumerate(requests):
            if req and self._deficit[idx] > best_deficit:
                best = idx
                best_deficit = self._deficit[idx]
        assert best is not None
        total = sum(self.weights)
        self._deficit[best] -= total
        # Bound the counters like a hardware DWRR cell: an arbitrary service
        # history must not bank unbounded (anti-)credit against the future.
        for idx in range(self.slots):
            if self._deficit[idx] > total:
                self._deficit[idx] = total
            elif self._deficit[idx] < -total:
                self._deficit[idx] = -total
        return best
