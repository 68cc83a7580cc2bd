"""Unit tests for the capability system: partitioning, derivation, revocation."""

import pytest

from repro.cap import Capability, CapabilityRef, CapabilityStore, Rights
from repro.errors import (
    AccessDenied,
    CapabilityError,
    CapabilityRevoked,
    ConfigError,
)


def store():
    return CapabilityStore(slots_per_holder=8)


class TestMintAndLookup:
    def test_mint_memory_cap_and_lookup(self):
        s = store()
        ref = s.mint("tile0", Rights.rw(), segment_id=7)
        cap = s.lookup("tile0", ref, Rights.READ)
        assert cap.segment_id == 7
        assert cap.is_memory and not cap.is_endpoint

    def test_mint_endpoint_cap(self):
        s = store()
        ref = s.mint("tile0", Rights.SEND, endpoint="svc.mem")
        cap = s.lookup("tile0", ref, Rights.SEND)
        assert cap.endpoint == "svc.mem"

    def test_cap_must_target_exactly_one_thing(self):
        with pytest.raises(ConfigError):
            Capability(cid=1, holder="t", rights=Rights.READ)
        with pytest.raises(ConfigError):
            Capability(cid=1, holder="t", rights=Rights.READ,
                       segment_id=1, endpoint="x")

    def test_cap_needs_some_rights(self):
        with pytest.raises(ConfigError):
            Capability(cid=1, holder="t", rights=Rights.NONE, segment_id=1)

    def test_missing_rights_denied(self):
        s = store()
        ref = s.mint("tile0", Rights.READ, segment_id=1)
        with pytest.raises(AccessDenied):
            s.lookup("tile0", ref, Rights.WRITE)
        assert s.denials == 1

    def test_combined_rights_check(self):
        s = store()
        ref = s.mint("tile0", Rights.rw(), segment_id=1)
        s.lookup("tile0", ref, Rights.READ | Rights.WRITE)
        with pytest.raises(AccessDenied):
            s.lookup("tile0", ref, Rights.rw() | Rights.GRANT)


class TestPartitioning:
    def test_ref_useless_in_another_partition(self):
        """The paper's partitioned storage: a leaked ref grants nothing."""
        s = store()
        ref = s.mint("tile0", Rights.rw(), segment_id=1)
        with pytest.raises(AccessDenied):
            s.lookup("tile1", ref, Rights.READ)

    def test_forged_ref_rejected(self):
        s = store()
        s.mint("tile0", Rights.rw(), segment_id=1)
        forged = CapabilityRef(slot=0, nonce=0x12345678)
        with pytest.raises(AccessDenied):
            s.lookup("tile0", forged, Rights.READ)

    def test_slot_exhaustion(self):
        s = CapabilityStore(slots_per_holder=2)
        s.mint("t", Rights.READ, segment_id=1)
        s.mint("t", Rights.READ, segment_id=2)
        with pytest.raises(CapabilityError):
            s.mint("t", Rights.READ, segment_id=3)

    def test_partitions_do_not_share_slots(self):
        s = CapabilityStore(slots_per_holder=1)
        s.mint("a", Rights.READ, segment_id=1)
        s.mint("b", Rights.READ, segment_id=2)  # fine: different partition
        assert s.holder_count("a") == 1
        assert s.holder_count("b") == 1


class TestDerivation:
    def test_derive_subset_for_other_holder(self):
        s = store()
        parent = s.mint("mem_svc", Rights.rw() | Rights.GRANT, segment_id=5)
        child = s.derive("mem_svc", parent, "tile3", Rights.READ)
        cap = s.lookup("tile3", child, Rights.READ)
        assert cap.segment_id == 5
        assert cap.parent_cid is not None

    def test_derive_requires_grant_right(self):
        s = store()
        parent = s.mint("tile0", Rights.rw(), segment_id=5)
        with pytest.raises(AccessDenied):
            s.derive("tile0", parent, "tile1", Rights.READ)

    def test_derive_cannot_amplify(self):
        s = store()
        parent = s.mint("svc", Rights.READ | Rights.GRANT, segment_id=5)
        with pytest.raises(AccessDenied):
            s.derive("svc", parent, "tile1", Rights.WRITE)

    def test_derived_cap_keeps_target(self):
        s = store()
        parent = s.mint("svc", Rights.SEND | Rights.GRANT, endpoint="svc.net")
        child = s.derive("svc", parent, "tile1", Rights.SEND)
        assert s.lookup("tile1", child, Rights.SEND).endpoint == "svc.net"


class TestRevocation:
    def test_revoke_single(self):
        s = store()
        ref = s.mint("tile0", Rights.rw(), segment_id=1)
        cap = s.lookup("tile0", ref, Rights.READ)
        assert s.revoke(cap.cid) == 1
        with pytest.raises(AccessDenied):
            s.lookup("tile0", ref, Rights.READ)

    def test_revoke_cascades_to_children(self):
        s = store()
        root = s.mint("svc", Rights.rw() | Rights.GRANT, segment_id=1)
        child1 = s.derive("svc", root, "a", Rights.READ)
        child2 = s.derive("svc", root, "b", Rights.rw())
        root_cap = s.lookup("svc", root, Rights.READ)
        assert s.revoke(root_cap.cid) == 3
        for holder, ref in (("a", child1), ("b", child2)):
            with pytest.raises(AccessDenied):
                s.lookup(holder, ref, Rights.READ)

    def test_revoke_grandchildren(self):
        s = store()
        root = s.mint("svc", Rights.rw() | Rights.GRANT, segment_id=1)
        mid = s.derive("svc", root, "a", Rights.READ | Rights.GRANT)
        leaf = s.derive("a", mid, "b", Rights.READ)
        assert s.revoke(s.lookup("svc", root, Rights.READ).cid) == 3
        with pytest.raises(AccessDenied):
            s.lookup("b", leaf, Rights.READ)

    def test_revoke_child_leaves_parent_alive(self):
        s = store()
        root = s.mint("svc", Rights.rw() | Rights.GRANT, segment_id=1)
        child = s.derive("svc", root, "a", Rights.READ)
        child_cid = s.lookup("a", child, Rights.READ).cid
        assert s.revoke(child_cid) == 1
        s.lookup("svc", root, Rights.READ)  # still fine

    def test_revoked_slot_reuse_gets_fresh_nonce(self):
        s = CapabilityStore(slots_per_holder=1)
        old_ref = s.mint("t", Rights.READ, segment_id=1)
        s.revoke(s.lookup("t", old_ref, Rights.READ).cid)
        new_ref = s.mint("t", Rights.READ, segment_id=2)
        assert new_ref.slot == old_ref.slot
        assert new_ref.nonce != old_ref.nonce
        with pytest.raises(AccessDenied):
            s.lookup("t", old_ref, Rights.READ)

    def test_revoke_unknown_cid(self):
        with pytest.raises(CapabilityError):
            store().revoke(999)

    def test_revoke_holder_clears_partition(self):
        s = store()
        s.mint("t", Rights.READ, segment_id=1)
        s.mint("t", Rights.READ, segment_id=2)
        assert s.revoke_holder("t") == 2
        assert s.holder_count("t") == 0

    def test_revoke_holder_cascades_to_grants(self):
        """Tearing down a tile revokes everything it delegated onward."""
        s = store()
        root = s.mint("victim", Rights.rw() | Rights.GRANT, segment_id=1)
        delegated = s.derive("victim", root, "peer", Rights.READ)
        s.revoke_holder("victim")
        with pytest.raises(AccessDenied):
            s.lookup("peer", delegated, Rights.READ)


class TestEgressSendCheck:
    """The monitor's per-message SEND check scans the store in place."""

    def test_may_send_sees_only_live_send_caps_of_the_holder(self):
        s = store()
        assert not s.may_send("t", "svc")  # no partition yet: none created
        assert s.holder_count("t") == 0
        s.mint("t", Rights.READ, endpoint="svc")      # wrong right
        s.mint("t", Rights.SEND, endpoint="other")    # wrong endpoint
        s.mint("peer", Rights.SEND, endpoint="svc")   # wrong holder
        assert not s.may_send("t", "svc")
        s.mint("t", Rights.SEND | Rights.GRANT, endpoint="svc")
        assert s.may_send("t", "svc")

    def test_grant_revoke_remint_message_by_message(self):
        from repro.kernel import Message, Monitor
        from repro.mem import SegmentTable
        from repro.noc import Mesh2D, Network
        from repro.sim import Engine

        engine = Engine()
        network = Network(engine, Mesh2D(2, 1))
        caps = CapabilityStore(slots_per_holder=1)
        names = {"left": 0, "right": 1}
        left, _right = (Monitor(engine, name, network.interface(node), caps,
                                SegmentTable(), names)
                        for name, node in names.items())

        def send():
            admitted = left.submit(Message(src="left", dst="right", op="x"))
            engine.run(until=engine.now + 100)
            return "denied" if admitted.failed else "sent"

        assert send() == "denied"
        ref = caps.mint("left", Rights.SEND, endpoint="right")
        assert send() == "sent"  # granted: allowed
        caps.revoke(caps.lookup("left", ref, Rights.SEND).cid)
        assert send() == "denied"  # the very next message
        fresh = caps.mint("left", Rights.SEND, endpoint="right")
        assert (fresh.slot, fresh.nonce != ref.nonce) == (ref.slot, True)
        assert send() == "sent"  # the re-minted slot is honoured
        assert (left.messages_sent, left.denials) == (2, 2)
