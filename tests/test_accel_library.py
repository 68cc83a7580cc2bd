"""Tests for the accelerator library running on Apiary systems."""

import pytest

from repro.accel import (
    Accelerator,
    Compressor,
    CryptoAccel,
    FloodingAccel,
    KvStore,
    SnoopingAccel,
    VideoEncoder,
    WildWriterAccel,
)
from repro.accel import kvstore
from repro.accel.faulty import WILD_PROBES
from repro.kernel import ApiarySystem, SystemConfig


def booted():
    system = ApiarySystem(SystemConfig.figure1())
    system.boot()
    return system


def start(system, node, accel, endpoint=None):
    started = system.start_app(node, accel, endpoint=endpoint)
    system.run_until(started)
    return accel


class Driver(Accelerator):
    """Runs a scripted sequence of calls against one endpoint."""

    def __init__(self, target, calls):
        super().__init__("driver")
        self.target = target
        self.calls = calls  # list of (op, payload, payload_bytes)
        self.responses = []
        self.errors = []

    def main(self, shell):
        for op, payload, nbytes in self.calls:
            try:
                resp = yield shell.call(self.target, op, payload=payload,
                                        payload_bytes=nbytes, timeout=2_000_000)
                self.responses.append(resp.payload)
            except Exception as err:
                self.errors.append(f"{type(err).__name__}: {err}")


def drive(system, node, target, calls):
    driver = Driver(target, calls)
    started = system.start_app(node, driver)
    system.mgmt.grant_send(f"tile{node}", target)
    system.run_until(started)
    system.run(until=system.engine.now + 30_000_000)
    assert not driver.errors, driver.errors
    return driver.responses


class TestVideoEncoder:
    def test_encode_reduces_bytes(self):
        system = booted()
        start(system, 2, VideoEncoder("enc"), endpoint="app.enc")
        responses = drive(system, 3, "app.enc", [
            ("encode", {"stream": "a", "seq": 0, "frames": 2,
                        "bytes": 100_000}, 64),
        ])
        assert responses[0]["bytes"] < 100_000 * 0.2

    def test_encoder_keeps_per_stream_state(self):
        system = booted()
        enc = VideoEncoder("enc")
        start(system, 2, enc, endpoint="app.enc")
        drive(system, 3, "app.enc", [
            ("encode", {"stream": "a", "seq": i, "frames": 1, "bytes": 50_000}, 64)
            for i in range(3)
        ] + [
            ("encode", {"stream": "b", "seq": 0, "frames": 1, "bytes": 50_000}, 64)
        ])
        assert enc.streams["a"]["chunks"] == 3
        assert enc.streams["b"]["chunks"] == 1
        assert enc.streams["a"]["last_seq"] == 2

    def test_encode_cost_scales_with_frames(self):
        system = booted()
        enc = VideoEncoder("enc")
        start(system, 2, enc, endpoint="app.enc")

        class Timer(Accelerator):
            def __init__(self):
                super().__init__("timer")
                self.durations = []

            def main(self, shell):
                for frames in (1, 8):
                    t0 = shell.engine.now
                    yield shell.call("app.enc", "encode",
                                     payload={"stream": "x", "frames": frames,
                                              "bytes": 10_000})
                    self.durations.append(shell.engine.now - t0)

        timer = Timer()
        started = system.start_app(3, timer)
        system.mgmt.grant_send("tile3", "app.enc")
        system.run_until(started)
        system.run(until=system.engine.now + 10_000_000)
        assert timer.durations[1] > 4 * timer.durations[0]

    def test_bad_request_rejected(self):
        system = booted()
        start(system, 2, VideoEncoder("enc"), endpoint="app.enc")
        driver = Driver("app.enc", [("encode", {"nonsense": 1}, 8)])
        started = system.start_app(3, driver)
        system.mgmt.grant_send("tile3", "app.enc")
        system.run_until(started)
        system.run(until=system.engine.now + 1_000_000)
        assert driver.errors


class TestCompressor:
    def test_compress_ratio(self):
        system = booted()
        comp = Compressor("zip")
        start(system, 2, comp, endpoint="app.zip")
        responses = drive(system, 3, "app.zip", [
            ("compress", {"bytes": 10_000}, 64),
        ])
        assert 5000 < responses[0]["bytes"] < 8000
        assert comp.bytes_in == 10_000

    def test_third_party_compressor_uses_os_memory(self):
        system = booted()
        comp = Compressor("zip", use_dram_dictionary=True)
        start(system, 2, comp, endpoint="app.zip")
        drive(system, 3, "app.zip", [("compress", {"bytes": 20_000}, 64)])
        assert comp.dictionary_seg is not None
        assert len(system.segments.live_segments("tile2")) == 1


class TestKvStore:
    def test_put_get_delete_cycle(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        responses = drive(system, 3, "app.kv", [
            ("kv.put", {"key": "k1", "bytes": 128, "value": "v1"}, 128),
            ("kv.get", {"key": "k1"}, 16),
            ("kv.delete", {"key": "k1"}, 16),
            ("kv.get", {"key": "k1"}, 16),
        ])
        assert responses[0]["stored"]
        assert responses[1] == {"found": True, "bytes": 128, "value": "v1"}
        assert responses[2]["deleted"]
        assert responses[3]["found"] is False
        assert kv.misses == 1

    def test_stats_op(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        responses = drive(system, 3, "app.kv", [
            ("kv.put", {"key": i, "bytes": 64}, 64) for i in range(5)
        ] + [("kv.stats", {}, 8)])
        assert responses[-1]["keys"] == 5
        assert responses[-1]["puts"] == 5

    def test_retried_put_is_not_double_applied(self):
        """At-most-once regression: a client that timed out and resends
        the same logical write (same ``client``/``seq``) gets the original
        ack back, and the store applies the put exactly once."""
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        put = {"key": "k", "bytes": 64, "value": "v1",
               "client": "h0", "seq": 7}
        responses = drive(system, 3, "app.kv", [
            ("kv.put", dict(put), 64),
            ("kv.put", dict(put), 64),          # the timeout retry
            ("kv.put", {**put, "seq": 8, "value": "v2"}, 64),  # a new write
            ("kv.get", {"key": "k"}, 16),
        ])
        assert responses[0]["stored"] and responses[1]["stored"]
        assert kv.puts == 2, "the duplicate must not re-apply"
        assert kv.dupes_suppressed == 1
        assert responses[3]["value"] == "v2"

    def test_retried_delete_replays_original_outcome(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        responses = drive(system, 3, "app.kv", [
            ("kv.put", {"key": "k", "bytes": 64, "value": "v"}, 64),
            ("kv.delete", {"key": "k", "client": "h0", "seq": 1}, 16),
            # retry after timeout: without the dedup window this would
            # observe deleted=False and confuse the client
            ("kv.delete", {"key": "k", "client": "h0", "seq": 1}, 16),
        ])
        assert responses[1]["deleted"] is True
        assert responses[2]["deleted"] is True
        assert kv.deletes == 1

    def test_dedup_window_is_bounded_per_client(self, monkeypatch):
        monkeypatch.setattr(kvstore, "DEDUP_WINDOW", 4)
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        drive(system, 3, "app.kv", [
            ("kv.put", {"key": i, "bytes": 64, "client": "h0", "seq": i},
             64)
            for i in range(1, 11)
        ])
        assert len(kv._dedup["h0"]) == 4
        assert sorted(kv._dedup["h0"]) == [7, 8, 9, 10]

    def test_writes_without_identity_never_dedup(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        drive(system, 3, "app.kv", [
            ("kv.put", {"key": "k", "bytes": 64, "value": 1}, 64),
            ("kv.put", {"key": "k", "bytes": 64, "value": 2}, 64),
        ])
        assert kv.puts == 2 and kv.dupes_suppressed == 0


class TestCrypto:
    def test_session_lifecycle(self):
        system = booted()
        start(system, 2, CryptoAccel("aes"), endpoint="app.aes")
        responses = drive(system, 3, "app.aes", [
            ("crypto.open", {"session": "s1"}, 16),
            ("crypto.encrypt", {"session": "s1", "bytes": 1024}, 1024),
        ])
        assert responses[0]["opened"]
        assert responses[1]["bytes"] == 1024

    def test_unknown_session_rejected(self):
        system = booted()
        start(system, 2, CryptoAccel("aes"), endpoint="app.aes")
        driver = Driver("app.aes", [
            ("crypto.encrypt", {"session": "ghost", "bytes": 64}, 64),
        ])
        started = system.start_app(3, driver)
        system.mgmt.grant_send("tile3", "app.aes")
        system.run_until(started)
        system.run(until=system.engine.now + 1_000_000)
        assert driver.errors


class TestMisbehavers:
    def test_snooper_denied_everywhere_but_its_own_memory(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        # leak a capability from a victim
        leak = {}

        class Victim(Accelerator):
            def main(self, shell):
                seg = yield shell.alloc(4096)
                leak["cap"] = seg.cap

        start(system, 4, Victim("victim"))
        system.run(until=system.engine.now + 200_000)
        snoop = SnoopingAccel("snoop", target_endpoint="app.kv",
                              stolen_cap=leak["cap"])
        start(system, 3, snoop)
        system.run(until=system.engine.now + 2_000_000)
        outcomes = dict(snoop.outcomes)
        assert outcomes["send-unauthorized"] == "AccessDenied"
        assert outcomes["stolen-cap"] == "AccessDenied"
        assert outcomes["own-memory"] == "ok"
        assert outcomes["overrun"] == "SegmentFault"
        assert kv.gets == 0, "no request may reach the victim"

    def test_wild_writer_never_lands(self):
        system = booted()
        writer = WildWriterAccel("wild")
        start(system, 3, writer)
        system.run(until=system.engine.now + 2_000_000)
        assert writer.faults == WILD_PROBES
        assert writer.landed == 0

    def test_flooder_without_cap_sends_nothing(self):
        system = booted()
        kv = KvStore("kv")
        start(system, 2, kv, endpoint="app.kv")
        flood = FloodingAccel("flood", victim="app.kv")
        start(system, 3, flood)
        system.run(until=system.engine.now + 500_000)
        assert flood.sent == 0
        assert flood.denied > 0
