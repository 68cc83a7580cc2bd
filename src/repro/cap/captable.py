"""The partitioned capability store.

One :class:`CapabilityStore` serves a whole Apiary system.  It is
partitioned by *holder* (tile/process identity): a ref only resolves inside
the partition it was minted into, which realises the paper's "partitioned
manner" storage — accelerators exchange refs as plain data without being
able to exercise each other's authority.

Operations:

* :meth:`mint` — create a root capability (OS services only).
* :meth:`derive` — create a child capability for another holder with a
  subset of rights (requires GRANT on the parent).  This is how the memory
  service shares a segment between accelerators (Section 2's composition
  scenario).
* :meth:`revoke` — recursively revoke a capability and everything derived
  from it; slots are reused with fresh nonces so stale refs fail closed.
* :meth:`lookup` — the hot-path check monitors run per message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AccessDenied, CapabilityError, CapabilityRevoked, ConfigError
from repro.cap.capability import Capability, CapabilityRef, Rights

__all__ = ["CapabilityStore"]

#: the nonce generator's start state; every store draws the same sequence
NONCE_SEED = 0x5EED

#: the SEND bit as a plain int (see :meth:`CapabilityStore.may_send`)
_SEND = int(Rights.SEND)


class CapabilityStore:
    """Partitioned capability storage with derivation and revocation."""

    def __init__(self, slots_per_holder: int = 64):
        if slots_per_holder < 1:
            raise ConfigError("need at least one capability slot per holder")
        self.slots_per_holder = slots_per_holder
        self._partitions: Dict[str, Dict[int, Tuple[CapabilityRef, Capability]]] = {}
        self._by_cid: Dict[int, Tuple[str, int]] = {}  # cid -> (holder, slot)
        self._next_cid = 1
        self._nonce_state = NONCE_SEED
        self.lookups = 0
        self.denials = 0

    # -- internals ---------------------------------------------------------

    def _next_nonce(self) -> int:
        # xorshift: cheap, deterministic, never zero
        x = self._nonce_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._nonce_state = x or 0xDEAD
        return self._nonce_state

    def _partition(self, holder: str) -> Dict[int, Tuple[CapabilityRef, Capability]]:
        return self._partitions.setdefault(holder, {})

    def _free_slot(self, holder: str) -> int:
        partition = self._partition(holder)
        for slot in range(self.slots_per_holder):
            if slot not in partition:
                return slot
        raise CapabilityError(
            f"holder {holder!r} capability table full "
            f"({self.slots_per_holder} slots)"
        )

    def _install(self, cap: Capability) -> CapabilityRef:
        slot = self._free_slot(cap.holder)
        ref = CapabilityRef(slot=slot, nonce=self._next_nonce())
        self._partition(cap.holder)[slot] = (ref, cap)
        self._by_cid[cap.cid] = (cap.holder, slot)
        return ref

    # -- public API -----------------------------------------------------------

    def mint(
        self,
        holder: str,
        rights: Rights,
        segment_id: Optional[int] = None,
        endpoint: Optional[str] = None,
    ) -> CapabilityRef:
        """Create a root capability in ``holder``'s partition."""
        cap = Capability(
            cid=self._next_cid,
            holder=holder,
            rights=rights,
            segment_id=segment_id,
            endpoint=endpoint,
        )
        self._next_cid += 1
        return self._install(cap)

    def lookup(self, holder: str, ref: CapabilityRef, needed: Rights) -> Capability:
        """Resolve a ref inside ``holder``'s partition and check rights.

        This is the per-message hot path the monitor runs.
        """
        self.lookups += 1
        entry = self._partition(holder).get(ref.slot)
        if entry is None or entry[0].nonce != ref.nonce:
            self.denials += 1
            raise AccessDenied(
                f"holder {holder!r} presented invalid ref {ref}"
            )
        cap = entry[1]
        if cap.revoked:
            self.denials += 1
            raise CapabilityRevoked(f"capability {cap.cid} revoked")
        if not cap.allows(needed):
            self.denials += 1
            raise AccessDenied(
                f"capability {cap.cid} lacks {needed!r} (has {cap.rights!r})"
            )
        return cap

    def derive(
        self,
        holder: str,
        parent_ref: CapabilityRef,
        new_holder: str,
        rights: Rights,
    ) -> CapabilityRef:
        """Create a child capability for ``new_holder`` with subset rights.

        Requires GRANT on the parent; the child's rights must be a subset of
        the parent's (minus nothing added) — the Dennis–Van Horn monotone
        attenuation rule.
        """
        parent = self.lookup(holder, parent_ref, Rights.GRANT)
        if (rights & ~parent.rights) != Rights.NONE:
            self.denials += 1
            raise AccessDenied(
                f"derivation would amplify rights: parent has {parent.rights!r}, "
                f"requested {rights!r}"
            )
        child = Capability(
            cid=self._next_cid,
            holder=new_holder,
            rights=rights,
            segment_id=parent.segment_id,
            endpoint=parent.endpoint,
            parent_cid=parent.cid,
        )
        self._next_cid += 1
        parent.children.append(child.cid)
        return self._install(child)

    def revoke(self, cid: int) -> int:
        """Revoke capability ``cid`` and its whole derivation subtree.

        Returns the number of capabilities revoked.  Slots are freed so the
        holder can receive new capabilities; old refs fail via nonce
        mismatch or the revoked flag.
        """
        location = self._by_cid.get(cid)
        if location is None:
            raise CapabilityError(f"unknown capability id {cid}")
        holder, slot = location
        entry = self._partition(holder).get(slot)
        if entry is None:
            raise CapabilityError(f"capability {cid} already removed")
        _ref, cap = entry
        count = 1
        cap.revoked = True
        for child_cid in list(cap.children):
            if child_cid in self._by_cid:
                count += self.revoke(child_cid)
        del self._partition(holder)[slot]
        del self._by_cid[cid]
        return count

    def revoke_holder(self, holder: str) -> int:
        """Revoke every capability a holder owns (tile teardown)."""
        partition = self._partition(holder)
        count = 0
        for slot in list(partition):
            entry = partition.get(slot)
            if entry is not None:
                count += self.revoke(entry[1].cid)
        return count

    def may_send(self, holder: str, endpoint: str) -> bool:
        """Whether ``holder`` holds a live SEND capability for ``endpoint``
        — the monitor's per-egress-message check, scanned in place (SEND
        is one bit: :meth:`Capability.allows` inline, on plain ints)."""
        partition = self._partitions.get(holder)
        if partition:
            for _ref, cap in partition.values():
                if cap.endpoint == endpoint and not cap.revoked \
                        and int(cap.rights) & _SEND:
                    return True
        return False

    def holder_caps(self, holder: str) -> List[Capability]:
        return [cap for _ref, cap in self._partition(holder).values()]

    def holder_count(self, holder: str) -> int:
        return len(self._partition(holder))
