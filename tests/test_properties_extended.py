"""Extended property-based tests: torus routing, token-bucket debt,
transport segmentation, message format, table rendering."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval import format_table, format_value
from repro.kernel import MESSAGE_HEADER_BYTES, Message
from repro.net import ReliableEndpoint
from repro.net.transport import MAX_SEGMENT
from repro.noc import Mesh2D, TokenBucket, Torus2D, TorusXYRouting
from repro.noc.flit import flits_for_bytes
from repro.sim import Engine

SETTINGS = settings(max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow],
                    deadline=None)


@SETTINGS
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_torus_routing_is_minimal_everywhere(width, height, data):
    """Following TorusXYRouting hop by hop always takes exactly the torus
    hop distance — shortest-direction choice never overshoots."""
    topo = Torus2D(width, height)
    routing = TorusXYRouting()
    src = data.draw(st.integers(0, topo.node_count - 1))
    dst = data.draw(st.integers(0, topo.node_count - 1))
    node, hops = src, 0
    while node != dst:
        port = routing.route(topo, node, dst)
        node = topo.neighbor(node, port)
        hops += 1
        assert hops <= width + height, "route loops"
    assert hops == topo.hop_distance(src, dst)


@SETTINGS
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_torus_route_crosses_wrap_at_most_once_per_dimension(width, height,
                                                             data):
    """The dateline argument's premise: shortest-direction routing crosses
    each dimension's wrap edge at most once."""
    topo = Torus2D(width, height)
    routing = TorusXYRouting()
    src = data.draw(st.integers(0, topo.node_count - 1))
    dst = data.draw(st.integers(0, topo.node_count - 1))
    wraps = {"x": 0, "y": 0}
    node = src
    while node != dst:
        port = routing.route(topo, node, dst)
        if TorusXYRouting.crosses_wrap(topo, node, port):
            wraps[TorusXYRouting.dimension(port)] += 1
        node = topo.neighbor(node, port)
    assert wraps["x"] <= 1 and wraps["y"] <= 1


@SETTINGS
@given(st.floats(0.05, 2.0), st.integers(1, 32),
       st.integers(1, 200), st.integers(1, 500))
def test_token_bucket_debt_preserves_long_run_rate(rate, burst, amount,
                                                   tries):
    """Jumbo requests (amount > burst) drive the balance negative but can
    never push long-run admissions past burst + rate * elapsed tokens."""
    tb = TokenBucket(rate_per_cycle=rate, burst=burst)
    now = 0
    admitted_tokens = 0.0
    for _ in range(tries):
        now += 3
        if tb.consume(now, amount):
            admitted_tokens += amount
    assert admitted_tokens <= burst + rate * now + amount


@SETTINGS
@given(st.integers(0, 200_000))
def test_segmentation_fragment_count_and_sizes(payload_bytes):
    """Segments cover the payload exactly; every segment fits the MTU."""
    eng = Engine()
    endpoint = ReliableEndpoint(eng, lambda f: None, "A", "B",
                                lambda payload: None)
    segments = endpoint._segment("obj", payload_bytes)
    assert sum(nbytes for _p, nbytes in segments) == payload_bytes
    assert all(nbytes <= MAX_SEGMENT for _p, nbytes in segments)
    # only the final segment carries the payload object
    assert segments[-1][0] == "obj"
    assert all(p is None for p, _n in segments[:-1])
    expected = max(1, -(-payload_bytes // MAX_SEGMENT)
                   if payload_bytes else 1)
    assert len(segments) == expected


@SETTINGS
@given(st.integers(0, 10_000), st.integers(1, 256))
def test_flit_count_matches_wire_bytes(payload_bytes, flit_bytes):
    n = flits_for_bytes(payload_bytes, flit_bytes)
    assert n >= 1
    # the data flits cover the payload with less than one flit of slack
    assert (n - 1) * flit_bytes >= payload_bytes - flit_bytes + 1 or n == 1
    assert (n - 1) * flit_bytes - payload_bytes < flit_bytes


@SETTINGS
@given(st.text(min_size=1, max_size=20).filter(lambda s: s.strip()),
       st.integers(0, 1 << 20))
def test_message_response_roundtrip_properties(op, payload_bytes):
    msg = Message(src="a", dst="b", op=op, payload_bytes=payload_bytes)
    assert msg.wire_bytes == MESSAGE_HEADER_BYTES + payload_bytes
    resp = msg.make_response(payload="x", payload_bytes=8)
    assert resp.mid == msg.mid
    assert (resp.src, resp.dst) == (msg.dst, msg.src)
    assert resp.op == msg.op


@SETTINGS
@given(st.lists(
    st.lists(st.one_of(st.integers(-10**9, 10**9),
                       st.floats(allow_nan=False, allow_infinity=False,
                                 width=32),
                       st.text(max_size=12)),
             min_size=2, max_size=2),
    min_size=1, max_size=10))
def test_format_table_always_aligns(rows):
    out = format_table(["a", "b"], rows)
    lines = out.split("\n")
    assert len(lines) == 2 + len(rows)
    assert len({len(line) for line in lines}) == 1


@SETTINGS
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_never_crashes_on_floats(value):
    assert isinstance(format_value(value), str)
