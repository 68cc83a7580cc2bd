"""Capabilities: unforgeable tokens of authority.

Section 4.6: "Capabilities are stored in a partitioned manner by having the
Apiary monitor manage the capability list, so the accelerator can only
obtain a reference to the capability and not the capability itself."

Two types live here:

* :class:`Capability` — the full record (rights + target), held **only** by
  the OS (the per-tile monitor / the capability store).
* :class:`CapabilityRef` — the opaque handle an accelerator sees: a slot
  index plus a nonce.  A ref is meaningless outside its holder's partition,
  so leaking one to another tile grants nothing (tested explicitly).

The design follows Dennis & Van Horn [15]: rights are a monotone lattice
(derivation can only shrink them) and revocation is recursive over the
derivation tree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError

__all__ = ["Rights", "Capability", "CapabilityRef"]


class Rights(enum.IntFlag):
    """Access rights carried by a capability."""

    NONE = 0
    READ = 1 << 0       # read a memory segment
    WRITE = 1 << 1      # write a memory segment
    SEND = 1 << 2       # send messages to an endpoint
    GRANT = 1 << 3      # derive sub-capabilities for other holders
    MANAGE = 1 << 4     # management-plane operations (load/unload tiles)

    @classmethod
    def rw(cls) -> "Rights":
        return cls.READ | cls.WRITE


@dataclass(frozen=True)
class CapabilityRef:
    """What the accelerator holds: an opaque (slot, nonce) pair.

    The nonce makes stale refs detectable after revocation reuses a slot;
    it carries no authority by itself.
    """

    slot: int
    nonce: int

    def __repr__(self) -> str:
        return f"capref({self.slot}:{self.nonce:08x})"


@dataclass
class Capability:
    """The OS-side record.  Never handed to accelerators."""

    cid: int
    holder: str
    rights: Rights
    #: target: exactly one of segment_id / endpoint is set
    segment_id: Optional[int] = None
    endpoint: Optional[str] = None
    revoked: bool = False
    parent_cid: Optional[int] = None
    children: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if (self.segment_id is None) == (self.endpoint is None):
            raise ConfigError(
                "capability must target exactly one of segment or endpoint"
            )
        if self.rights == Rights.NONE:
            raise ConfigError("capability with no rights is meaningless")

    @property
    def is_memory(self) -> bool:
        return self.segment_id is not None

    @property
    def is_endpoint(self) -> bool:
        return self.endpoint is not None

    def allows(self, needed: Rights) -> bool:
        # on plain ints: ``Rights & Rights`` enters three enum frames
        needed = int(needed)
        return not self.revoked and int(self.rights) & needed == needed
