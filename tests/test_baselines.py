"""Tests for the baseline systems: bare, hosted, AmorphOS morphlets, wiring."""

import pytest

from repro.baselines import (
    BareFpgaSystem,
    HostedFpgaSystem,
    Morphlet,
    MorphletScheduler,
    noc_wiring,
    port_coupled_wiring,
)
from repro.errors import ConfigError, DeadlineExceeded, TileFault
from repro.net import EthernetFabric
from repro.sim import Engine, RngPool
from repro.workloads import RemoteClientHost


def echo_handler(body):
    return 50, ("echoed", body), 64


def setup_client(engine, fabric):
    return RemoteClientHost(engine, fabric, "client0")


class TestBareSystem:
    def test_roundtrip(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        bare = BareFpgaSystem(engine, fabric, "fpga0")
        bare.register(5, echo_handler)
        client = setup_client(engine, fabric)
        proc = engine.process(
            client.closed_loop("fpga0", 5, ["a", "b", "c"])
        )
        engine.run_until_done(proc.done, limit=10_000_000)
        assert bare.requests_served == 3
        assert client.latency.count == 3

    def test_duplicate_port_rejected(self):
        engine = Engine()
        bare = BareFpgaSystem(engine, EthernetFabric(engine), "fpga0")
        bare.register(5, echo_handler)
        with pytest.raises(ConfigError):
            bare.register(5, echo_handler)

    def test_fault_kills_whole_board(self):
        """No isolation: one bad handler wedges every service."""
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        bare = BareFpgaSystem(engine, fabric, "fpga0")
        calls = {"n": 0}

        def crashing(body):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise TileFault("bang")
            return 10, "ok", 16

        bare.register(1, crashing)
        bare.register(2, echo_handler)  # unrelated healthy service
        client = setup_client(engine, fabric)

        def script():
            yield client.request("fpga0", 1, "x", timeout=100_000)
            try:
                yield client.request("fpga0", 1, "y", timeout=100_000)
            except DeadlineExceeded:
                pass
            try:
                yield client.request("fpga0", 2, "z", timeout=100_000)
            except DeadlineExceeded:
                pass

        proc = engine.process(script())
        engine.run_until_done(proc.done, limit=50_000_000)
        assert bare.dead
        # healthy service is collateral damage: its request timed out
        assert client.timeouts >= 1
        assert client.responses_received == 1

    def test_unwired_port_silently_dropped(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        bare = BareFpgaSystem(engine, fabric, "fpga0")
        bare.register(1, echo_handler)
        client = setup_client(engine, fabric)

        def script():
            try:
                yield client.request("fpga0", 99, "x", timeout=50_000)
            except DeadlineExceeded:
                pass

        proc = engine.process(script())
        engine.run_until_done(proc.done, limit=10_000_000)
        assert client.timeouts == 1


class TestHostedSystem:
    def make(self, **kwargs):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        kwargs.setdefault("rng", RngPool(seed=3).stream("jit"))
        hosted = HostedFpgaSystem(engine, fabric, "host0", **kwargs)
        hosted.register(5, echo_handler)
        return engine, fabric, hosted

    def test_roundtrip_and_cpu_accounting(self):
        engine, fabric, hosted = self.make()
        client = setup_client(engine, fabric)
        proc = engine.process(client.closed_loop("host0", 5, list(range(10))))
        engine.run_until_done(proc.done, limit=100_000_000)
        assert hosted.requests_served == 10
        assert hosted.cpu_cycles_per_request() > 500

    def test_bypass_stack_cuts_cpu_cost(self):
        _e1, _f1, kernel = self.make(kernel_bypass=False)
        _e2, _f2, bypass = self.make(kernel_bypass=True)
        for engine, hosted in ((_e1, kernel), (_e2, bypass)):
            fabric = hosted.fabric
            client = setup_client(engine, fabric)
            proc = engine.process(
                client.closed_loop(hosted.mac_addr, 5, list(range(10)))
            )
            engine.run_until_done(proc.done, limit=100_000_000)
        assert bypass.cpu_cycles_per_request() < kernel.cpu_cycles_per_request()

    def test_host_acl_denies_unknown_clients(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        hosted = HostedFpgaSystem(engine, fabric, "host0")
        hosted.register(5, echo_handler, allowed_clients={"trusted"})
        client = setup_client(engine, fabric)

        def script():
            try:
                yield client.request("host0", 5, "x", timeout=100_000)
            except DeadlineExceeded:
                pass

        proc = engine.process(script())
        engine.run_until_done(proc.done, limit=50_000_000)
        assert hosted.requests_denied == 1
        assert hosted.requests_served == 0

    def test_hosted_slower_than_bare(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=100)
        bare = BareFpgaSystem(engine, fabric, "bare0")
        bare.register(5, echo_handler)
        hosted = HostedFpgaSystem(engine, fabric, "host0",
                                  rng=RngPool(seed=3).stream("j"))
        hosted.register(5, echo_handler)
        lat = {}
        for name, mac in (("bare", "bare0"), ("hosted", "host0")):
            client = RemoteClientHost(engine, fabric, f"client-{name}")
            proc = engine.process(
                client.closed_loop(mac, 5, list(range(10)))
            )
            engine.run_until_done(proc.done, limit=100_000_000)
            lat[name] = client.latency.mean()
        assert lat["hosted"] > lat["bare"] + 1000


class TestMorphletScheduler:
    def run_gen(self, engine, gen):
        proc = engine.process(gen)
        engine.run_until_done(proc.done, limit=100_000_000)
        return proc.done.value

    def test_resident_invocation_is_fast(self):
        engine = Engine()
        sched = MorphletScheduler(engine, slots=2)
        sched.register(Morphlet("a", echo_handler, logic_cells=100_000))
        self.run_gen(engine, sched.invoke("a", 1))  # fault in
        t0 = engine.now
        self.run_gen(engine, sched.invoke("a", 2))  # hit
        assert engine.now - t0 < 100
        assert sched.hits == 1 and sched.faults == 1

    def test_eviction_causes_reconfig_penalty(self):
        engine = Engine()
        sched = MorphletScheduler(engine, slots=1)
        sched.register(Morphlet("a", echo_handler, logic_cells=100_000))
        sched.register(Morphlet("b", echo_handler, logic_cells=100_000))
        self.run_gen(engine, sched.invoke("a", 1))
        self.run_gen(engine, sched.invoke("b", 1))  # evicts a
        t0 = engine.now
        self.run_gen(engine, sched.invoke("a", 2))  # must reconfigure again
        assert engine.now - t0 >= 1000  # 100k cells / 100 cells-per-cycle
        assert sched.faults == 3

    def test_lru_keeps_hot_morphlet(self):
        engine = Engine()
        sched = MorphletScheduler(engine, slots=2)
        for name in ("a", "b", "c"):
            sched.register(Morphlet(name, echo_handler, logic_cells=50_000))
        for name in ("a", "b", "a", "c"):  # c evicts b (a was touched)
            self.run_gen(engine, sched.invoke(name, 0))
        assert set(sched.resident_names) == {"a", "c"}

    def test_unknown_morphlet_rejected(self):
        engine = Engine()
        sched = MorphletScheduler(engine, slots=1)
        with pytest.raises(ConfigError):
            self.run_gen(engine, sched.invoke("ghost", 0))


class TestWiringModels:
    def test_port_coupled_grows_with_services(self):
        few = port_coupled_wiring(num_accels=8, num_services=2)
        many = port_coupled_wiring(num_accels=8, num_services=6)
        assert many["wires"] == 3 * few["wires"]
        assert many["ports"] == 3 * few["ports"]

    def test_noc_ports_independent_of_services(self):
        few = noc_wiring(num_accels=8, num_services=2)
        many = noc_wiring(num_accels=8, num_services=6)
        assert few["ports"] == 10 and many["ports"] == 14  # tiles, not svc-ports
        # wires grow only with tile count, far slower than accel*services
        assert many["wires"] < 2 * few["wires"]

    def test_crossover_noc_wins_at_scale(self):
        """The A1 claim: beyond a few services, the NoC is cheaper."""
        port_style = port_coupled_wiring(num_accels=16, num_services=8)
        noc_style = noc_wiring(num_accels=16, num_services=8)
        assert noc_style["wires"] < port_style["wires"]

    def test_hardened_noc_cuts_logic(self):
        soft = noc_wiring(num_accels=16, num_services=4, hardened=False)
        hard = noc_wiring(num_accels=16, num_services=4, hardened=True)
        assert hard["logic_cells"] < soft["logic_cells"] / 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            port_coupled_wiring(0, 1)
        with pytest.raises(ConfigError):
            noc_wiring(0, 1)
