"""Arbiters: who wins when several requesters want one resource this cycle.

Routers arbitrate per output port among competing input VCs with a
round-robin cell, which gives fairness.  The monitor's QoS knob is the token
bucket in :mod:`repro.noc.qos`, not the arbiter.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["RoundRobinArbiter"]


class RoundRobinArbiter:
    """Rotating-priority arbiter over a fixed slot count.

    The winner is the first requesting slot at-or-after the pointer,
    wrapping to the lowest, and the pointer moves past it — the standard
    hardware round-robin cell.  :meth:`grant` is that rule on a request
    bitmask (what the router's switch allocator builds).
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
