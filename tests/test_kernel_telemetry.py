"""Monitor telemetry and closed-loop policing tests."""

import pytest

from repro.accel import Accelerator, EchoAccel, FloodingAccel, SinkAccel
from repro.kernel import ApiarySystem, SystemConfig


def booted():
    system = ApiarySystem(SystemConfig.figure1())
    system.boot()
    return system


class Chatter(Accelerator):
    """Sends paced messages to a sink.  Tiny bitstream: loads fast, so
    tests that overlap it with live traffic stay cheap."""

    from repro.hw.resources import ResourceVector

    COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 3_000}

    def __init__(self, target, count=20, gap=500, nbytes=64):
        super().__init__("chatter")
        self.target = target
        self.count = count
        self.gap = gap
        self.nbytes = nbytes

    def main(self, shell):
        for i in range(self.count):
            yield shell.notify(self.target, "tick", payload=i,
                               payload_bytes=self.nbytes)
            yield self.gap


def test_telemetry_counts_traffic():
    system = booted()
    sink = SinkAccel("sink", service_cycles=1)
    system.run_until(system.start_app(2, sink, endpoint="app.sink"))
    chatter = Chatter("app.sink", count=20)
    started = system.start_app(3, chatter)
    system.mgmt.grant_send("tile3", "app.sink")
    system.run_until(started)
    system.run(until=system.engine.now + 100_000)
    snaps = {s["tile"]: s for s in system.mgmt.telemetry()}
    assert snaps["tile3"]["messages_sent"] == 20
    assert snaps["tile2"]["messages_received"] == 20
    assert snaps["tile3"]["denials"] == 0
    assert snaps["tile3"]["drained"] == 0


def test_tx_meter_reflects_live_rate():
    system = booted()
    sink = SinkAccel("sink", service_cycles=1)
    system.run_until(system.start_app(2, sink, endpoint="app.sink"))
    chatter = Chatter("app.sink", count=200, gap=100)
    started = system.start_app(3, chatter)
    system.mgmt.grant_send("tile3", "app.sink")
    system.run_until(started)
    system.run(until=system.engine.now + 15_000)
    rate = system.tiles[3].monitor.telemetry()["tx_flits_per_cycle"]
    # ~1 message (7 flits) per 100 cycles = 0.07 flits/cycle
    assert 0.02 < rate < 0.2
    # after the chatter stops, the window decays back toward zero
    system.run(until=system.engine.now + 100_000)
    assert system.tiles[3].monitor.telemetry()["tx_flits_per_cycle"] < rate


def test_police_rates_throttles_the_flooder_only():
    system = booted()
    sink = SinkAccel("victim", service_cycles=5)
    flooder = FloodingAccel("flooder", victim="app.victim", message_bytes=64)
    polite = Chatter("app.victim", count=30, gap=2000)
    # load everything concurrently so the flooder doesn't get a huge
    # unobserved head start while other bitstreams stream in
    started = [system.start_app(2, sink, endpoint="app.victim"),
               system.start_app(4, flooder),
               system.start_app(5, polite)]
    system.mgmt.grant_send("tile4", "app.victim")
    system.mgmt.grant_send("tile5", "app.victim")
    system.run_until(system.engine.all_of(started))
    system.run(until=system.engine.now + 12_000)

    throttled = system.mgmt.police_rates(tx_threshold=0.05,
                                         limit_flits_per_cycle=0.01)
    assert throttled == ["tile4"], "only the flooder crosses the budget"
    assert system.tiles[4].monitor.bucket is not None
    assert system.tiles[5].monitor.bucket is None

    # the flood rate collapses after policing
    before = flooder.sent
    system.run(until=system.engine.now + 30_000)
    flood_rate_after = (flooder.sent - before) / 30_000
    assert flood_rate_after < 0.01  # throttled to ~1 msg per 700 cycles


def test_police_rates_exempts_os_services():
    """svc.net forwards tenants' traffic; policing must not strangle it."""
    system = booted()
    # make svc.mem's monitor look busy by hammering allocations
    class Allocator(Accelerator):
        def main(self, shell):
            for _ in range(30):
                seg = yield shell.alloc(256)
                yield shell.free(seg)

    started = system.start_app(3, Allocator("alloc-heavy"))
    system.run_until(started)
    system.run(until=system.engine.now + 200_000)
    throttled = system.mgmt.police_rates(tx_threshold=0.0001,
                                         limit_flits_per_cycle=0.01)
    assert "tile0" not in throttled  # svc.mem's tile is exempt


def test_telemetry_shows_drained_tile():
    system = booted()
    echo = EchoAccel("echo")
    system.run_until(system.start_app(2, echo, endpoint="app.echo"))
    system.mgmt.fail_stop(2)
    snap = {s["tile"]: s for s in system.mgmt.telemetry()}
    assert snap["tile2"]["drained"] == 1.0


def test_telemetry_returns_full_shape_for_every_tile():
    """Operators key dashboards off these fields; pin the contract."""
    system = booted()
    snaps = system.mgmt.telemetry()
    assert len(snaps) == system.topo.node_count
    required = {"tile", "messages_sent", "messages_received", "denials",
                "drained", "tx_flits_per_cycle", "rate_limited"}
    for node, snap in enumerate(snaps):
        assert required <= set(snap), f"tile{node} missing {required - set(snap)}"
        assert snap["tile"] == f"tile{node}"


def test_police_rates_no_trigger_below_threshold():
    """Idle tiles must never be throttled, whatever the limit."""
    system = booted()
    throttled = system.mgmt.police_rates(tx_threshold=0.5,
                                         limit_flits_per_cycle=0.01)
    assert throttled == []
    assert all(t.monitor.bucket is None for t in system.tiles)


def test_telemetry_merges_sampler_series_when_enabled():
    system = ApiarySystem(SystemConfig.figure1())
    sampler = system.enable_telemetry(interval=500)
    system.boot()
    snaps = system.mgmt.telemetry()
    for snap in snaps:
        # sampled gauges ride along with the live monitor snapshot
        assert "inject_backlog" in snap
        assert "buffered_flits" in snap
        assert snap["sampled_at"] > 0
    assert sampler is system.mgmt.sampler
