"""Application-level integration tests: pipelines, scale-out,
multi-tenant KV, and the Figure-1 configuration."""

import pytest

from repro.accel import Accelerator, VideoEncoder
from repro.apps import (
    deploy_kv_on_apiary,
    deploy_pipeline,
    deploy_replicated_encoder,
)
from repro.kernel import ApiarySystem, NetConfig, SystemConfig, build_figure1
from repro.net import EthernetFabric
from repro.sim import Engine
from repro.workloads import RemoteClientHost, video_chunks
from repro.sim import RngPool


def booted():
    system = ApiarySystem()
    system.boot()
    return system


class FeedClient(Accelerator):
    """Feeds requests to an endpoint and records reply payloads."""

    def __init__(self, target, op, payloads, payload_bytes=64, gap=1000):
        super().__init__("feeder")
        self.target = target
        self.op = op
        self.payloads = payloads
        self.payload_bytes = payload_bytes
        self.gap = gap
        self.replies = []
        self.errors = []

    def main(self, shell):
        for payload in self.payloads:
            try:
                resp = yield shell.call(self.target, self.op, payload=payload,
                                        payload_bytes=self.payload_bytes,
                                        timeout=30_000_000)
                self.replies.append(resp.payload)
            except Exception as err:
                self.errors.append(type(err).__name__)
            yield self.gap


def feed(system, node, target, op, payloads, **kwargs):
    client = FeedClient(target, op, payloads, **kwargs)
    started = system.start_app(node, client)
    system.mgmt.grant_send(f"tile{node}", target)
    system.run_until(started)
    system.run(until=system.engine.now + 200_000_000)
    assert not client.errors, client.errors
    return client


class TestVideoPipeline:
    def test_encode_compress_pipeline_end_to_end(self):
        system = booted()
        stages, started = deploy_pipeline(system, nodes=[4, 5])
        for ev in started:
            system.run_until(ev)
        chunks = video_chunks(RngPool(seed=1).stream("video"), 3)
        client = feed(system, 8, "app.pipe.enc", "encode",
                      [dict(c, stream="s0") for c in chunks])
        encoder, compressor = stages
        assert encoder.chunks_encoded == 3
        assert compressor.chunks_compressed == 3
        # encoded output went through compression: bytes shrank end to end
        assert compressor.bytes_out < compressor.bytes_in

    def test_three_stage_pipeline_with_crypto(self):
        system = booted()
        stages, started = deploy_pipeline(system, nodes=[4, 5, 6],
                                          with_crypto=True)
        for ev in started:
            system.run_until(ev)
        chunks = video_chunks(RngPool(seed=2).stream("video"), 2)
        feed(system, 8, "app.pipe.enc", "encode",
             [dict(c, stream="s0") for c in chunks])
        crypto = stages[2]
        assert crypto.blocks_processed > 0

    def test_third_party_compressor_gets_isolated_memory(self):
        system = booted()
        stages, started = deploy_pipeline(system, nodes=[4, 5],
                                          third_party_compressor=True)
        for ev in started:
            system.run_until(ev)
        system.run(until=system.engine.now + 500_000)
        # the compressor allocated its dictionary through svc.mem: it owns
        # exactly its own segment, invisible to the encoder's tile
        assert len(system.segments.live_segments("tile5")) == 1
        assert len(system.segments.live_segments("tile4")) == 0

    def test_pipeline_stages_need_explicit_grants(self):
        """No ambient authority: an unwired copy of the pipeline fails."""
        system = booted()
        encoder = VideoEncoder("enc2", downstream="app.pipe2.zip")
        from repro.accel import Compressor

        compressor = Compressor("zip2")
        system.run_until(system.start_app(4, encoder, endpoint="app.pipe2.enc"))
        system.run_until(system.start_app(5, compressor, endpoint="app.pipe2.zip"))
        # NOTE: no grant_send(tile4 -> app.pipe2.zip)
        client = FeedClient("app.pipe2.enc", "encode",
                            [{"stream": "s", "frames": 1, "bytes": 10_000}])
        started = system.start_app(8, client)
        system.mgmt.grant_send("tile8", "app.pipe2.enc")
        system.run_until(started)
        system.run(until=system.engine.now + 50_000_000)
        assert client.errors, "pipeline must fail without the edge grant"


class TestScaleOut:
    def test_load_balancer_spreads_requests(self):
        system = booted()
        balancer, replicas, started = deploy_replicated_encoder(
            system, lb_node=5, replica_nodes=[4, 6, 8]
        )
        for ev in started:
            system.run_until(ev)
        payloads = [{"stream": f"s{i}", "frames": 1, "bytes": 20_000}
                    for i in range(9)]
        feed(system, 9, "app.enc.lb", "encode", payloads, gap=100)
        counts = list(balancer.replica_counts.values())
        assert counts == [3, 3, 3]
        assert sum(r.chunks_encoded for r in replicas) == 9

    def test_more_replicas_more_throughput(self):
        durations = {}
        for n_replicas, nodes in ((1, [4]), (3, [4, 6, 8])):
            system = booted()
            balancer, _replicas, started = deploy_replicated_encoder(
                system, lb_node=5, replica_nodes=nodes
            )
            for ev in started:
                system.run_until(ev)
            payloads = [{"stream": f"s{i}", "frames": 4, "bytes": 50_000}
                        for i in range(12)]

            class Burst(Accelerator):
                def __init__(self):
                    super().__init__("burst")
                    self.done_at = None

                def main(self, shell):
                    events = [
                        shell.call("app.enc.lb", "encode", payload=p,
                                   payload_bytes=64, timeout=500_000_000)
                        for p in payloads
                    ]
                    yield shell.engine.all_of(events)
                    self.done_at = shell.engine.now

            burst = Burst()
            s = system.start_app(9, burst)
            system.mgmt.grant_send("tile9", "app.enc.lb")
            system.run_until(s)
            t0 = system.engine.now
            system.run(until=system.engine.now + 2_000_000_000)
            assert burst.done_at is not None
            durations[n_replicas] = burst.done_at - t0
        assert durations[3] < durations[1] / 2


class TestMultiTenant:
    def test_two_tenants_coexist_without_cross_access(self):
        """Section 2's scenario: encoder pipeline + KV store, distrusting."""
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=200)
        system = ApiarySystem(SystemConfig(net=NetConfig(mac_addr="board0")),
                              engine=engine, fabric=fabric)
        system.boot()
        stages, started = deploy_pipeline(system, nodes=[4, 5])
        kv, kv_started = deploy_kv_on_apiary(system, node=6)
        for ev in started + [kv_started]:
            system.run_until(ev)
        # tenant A: video chunks via NoC
        chunks = [{"stream": "s0", "frames": 1, "bytes": 30_000}] * 3
        feed(system, 8, "app.pipe.enc", "encode", chunks)
        # tenant B: KV over the datacenter network
        client = RemoteClientHost(engine, fabric, "tenantB")
        proc = engine.process(client.closed_loop(
            "board0", 6379,
            [{"op": "put", "key": 1, "bytes": 128},
             {"op": "get", "key": 1}],
            timeout=50_000_000,
        ))
        engine.run_until_done(proc.done, limit=500_000_000)
        assert stages[0].chunks_encoded == 3
        assert kv.requests_served == 2
        # neither tenant holds capabilities to the other's endpoints
        a_caps = system.caps.holder_caps("tile4")
        assert not any(c.endpoint == "app.kv" for c in a_caps)
        b_caps = system.caps.holder_caps("tile6")
        assert not any(
            c.endpoint and c.endpoint.startswith("app.pipe") for c in b_caps
        )


class TestFigure1:
    def test_figure1_configuration_builds(self):
        system = build_figure1()
        system.boot()
        assert system.topo.node_count == 6
        assert "svc.mem" in system.namespace
        assert "svc.net" in system.namespace

    def test_figure1_describe_renders_grid(self):
        system = build_figure1()
        system.boot()
        art = system.describe()
        assert "svc.mem" in art
        assert "svc.net" in art
        assert art.count("\n") == 2  # title + 2 rows
