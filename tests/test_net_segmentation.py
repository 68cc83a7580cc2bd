"""Tests for transport-layer segmentation (payloads above the frame MTU)."""

from repro.net import EthernetFabric
from repro.net.transport import MAX_SEGMENT
from repro.sim import Engine, RngPool
from tests.conftest import attach_mux


def make_loop(eng, loss=0.0, seed=7, fabric_latency=50):
    """A sends to B over the fabric, each side a ``ReliableMux`` at a bare
    ``ReliableEndpoint``'s window and timeout; the second value is A's
    connection to B, the third the list B's receiver appends every
    payload it is handed to."""
    fabric = EthernetFabric(
        eng, latency_cycles=fabric_latency, loss_rate=loss,
        rng=RngPool(seed=seed).stream("loss") if loss else None,
    )
    received = []
    a = attach_mux(eng, fabric, "A", lambda _peer, _payload: None,
                   window=8, timeout=5_000)
    attach_mux(eng, fabric, "B",
               lambda _peer, payload: received.append(payload),
               window=8, timeout=5_000)
    return fabric, a.peer("B"), received


def transfer(eng, a, received, payloads_with_sizes, limit=50_000_000):
    """Send each payload from A in turn; what B was handed meanwhile."""
    start = len(received)

    def sender():
        for payload, nbytes in payloads_with_sizes:
            acked = eng.event()
            a.send(payload, payload_bytes=nbytes, on_acked=acked.succeed)
            yield acked

    # the sender ends on its last ACK: B was handed everything
    p = eng.process(sender())
    eng.run_until_done(p.done, limit=limit)
    return received[start:]


def test_large_payload_is_segmented_and_reassembled():
    eng = Engine()
    fabric, a, received = make_loop(eng)
    got = transfer(eng, a, received, [("big-object", 10_000)])
    assert got == ["big-object"]
    assert a.fragments_sent > 0
    # ceil(10000 / (1518-16)) = 7 datagrams
    assert a.datagrams_sent == 7


def test_small_payloads_not_fragmented():
    eng = Engine()
    fabric, a, received = make_loop(eng)
    transfer(eng, a, received, [("x", 100), ("y", 1400)])
    assert a.fragments_sent == 0
    assert a.datagrams_sent == 2


def test_no_frame_ever_exceeds_mtu():
    eng = Engine()
    sizes = []
    fabric, a, received = make_loop(eng)
    original = fabric.transmit

    def spy(frame):
        sizes.append(frame.nbytes)
        original(frame)

    a.send_frame = spy
    transfer(eng, a, received, [("blob", 100_000)])
    assert max(sizes) <= 1518


def test_interleaved_large_and_small_payloads_stay_ordered():
    eng = Engine()
    fabric, a, received = make_loop(eng)
    payloads = [("big0", 5000), ("small0", 64), ("big1", 20_000),
                ("small1", 64)]
    got = transfer(eng, a, received, payloads)
    assert got == ["big0", "small0", "big1", "small1"]


def test_segmentation_survives_loss():
    eng = Engine()
    fabric, a, received = make_loop(eng, loss=0.15, seed=3)
    got = transfer(eng, a, received, [(f"blob{i}", 6000) for i in range(5)],
                   limit=200_000_000)
    assert got == [f"blob{i}" for i in range(5)]
    assert a.retransmissions > 0


def test_segment_boundary_is_exact():
    """A payload of exactly one full segment goes as one datagram; one
    byte more takes a second."""
    eng = Engine()
    fabric, a, received = make_loop(eng)
    got = transfer(eng, a, received, [("full", MAX_SEGMENT),
                                      ("over", MAX_SEGMENT + 1)])
    assert got == ["full", "over"]
    assert a.datagrams_sent == 3
    assert a.fragments_sent == 2


def test_transfer_time_scales_with_payload():
    eng = Engine()
    fabric, a, received = make_loop(eng)
    t0 = eng.now
    transfer(eng, a, received, [("small", 64)])
    small_time = eng.now - t0
    t1 = eng.now
    transfer(eng, a, received, [("large", 50_000)])
    large_time = eng.now - t1
    assert large_time > 2 * small_time
