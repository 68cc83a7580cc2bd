"""Unit tests for ApiarySystem assembly: budgets, slots, config knobs."""

import pytest

from repro.accel import Accelerator, EchoAccel
from repro.errors import ConfigError, ResourceExhausted
from repro.hw.resources import ResourceVector
from repro.kernel import (
    ApiarySystem,
    MemConfig,
    NetConfig,
    NocConfig,
    SystemConfig,
)
from repro.net import EthernetFabric
from repro.sim import Engine


class TestAssembly:
    def test_tile_count_matches_grid(self):
        system = ApiarySystem(SystemConfig(
            noc=NocConfig(width=3, height=4), mem=MemConfig(enabled=False)))
        assert len(system.tiles) == 12
        assert system.network.topo.node_count == 12

    def test_every_tile_registered_by_name(self):
        system = ApiarySystem(SystemConfig(
            noc=NocConfig(width=2, height=2), mem=MemConfig(enabled=False)))
        for node in range(4):
            assert system.namespace.lookup(f"tile{node}") == node

    def test_memory_service_on_requested_tile(self):
        system = ApiarySystem(SystemConfig(
            noc=NocConfig(width=3, height=2), mem=MemConfig(tile=5)))
        system.boot()
        assert system.namespace.lookup("svc.mem") == 5
        assert system.tiles[5].accelerator is system.mem_service

    def test_net_service_requires_fabric(self):
        system = ApiarySystem(SystemConfig.figure1())
        assert system.net_service is None
        engine = Engine()
        fabric = EthernetFabric(engine)
        with_net = ApiarySystem(SystemConfig.figure1(), engine=engine,
                                fabric=fabric)
        assert with_net.net_service is not None

    def test_unknown_mac_kind_rejected(self):
        engine = Engine()
        fabric = EthernetFabric(engine)
        with pytest.raises(ConfigError):
            ApiarySystem(
                SystemConfig(noc=NocConfig(width=3, height=2),
                             net=NetConfig(mac_kind="400g")),
                engine=engine, fabric=fabric)

    def test_apiary_overhead_accounted_in_budget(self):
        system = ApiarySystem(SystemConfig(mem=MemConfig(enabled=False)))
        fraction = system.apiary_overhead_fraction()
        assert 0 < fraction < 0.2
        owners = system.budget.owners()
        assert sum(1 for o in owners if o.startswith("apiary.router")) == 16
        assert sum(1 for o in owners if o.startswith("apiary.monitor")) == 16

    def test_slot_capacity_divides_free_resources(self):
        system = ApiarySystem(SystemConfig(mem=MemConfig(enabled=False)))
        total_slots = system.slot_capacity.logic_cells * 16
        assert total_slots <= system.part.logic_cells
        assert system.slot_capacity.logic_cells > 100_000

    def test_small_part_fits_fewer_accelerators(self):
        big = ApiarySystem(SystemConfig(
            noc=NocConfig(width=3, height=2), mem=MemConfig(enabled=False)))
        small = ApiarySystem(SystemConfig(
            part_name="XC7V585T", noc=NocConfig(width=3, height=2),
            mem=MemConfig(enabled=False)))
        assert small.slot_capacity.logic_cells < big.slot_capacity.logic_cells

    def test_accelerator_too_big_for_small_part_slots(self):
        small = ApiarySystem(SystemConfig(
            part_name="XC7V585T", mem=MemConfig(enabled=False)))

        class Big(Accelerator):
            COST = ResourceVector(logic_cells=200_000, bram_kb=16,
                                  dsp_slices=0)

        started = small.start_app(3, Big("big"))
        with pytest.raises(Exception):
            small.run_until(started)

    def test_noc_flit_width_configurable(self):
        narrow = ApiarySystem(SystemConfig(
            noc=NocConfig(width=2, height=2, flit_bytes=16),
            mem=MemConfig(enabled=False)))
        wide = ApiarySystem(SystemConfig(
            noc=NocConfig(width=2, height=2, flit_bytes=64),
            mem=MemConfig(enabled=False)))
        assert narrow.network.flit_bytes == 16
        assert wide.network.flit_bytes == 64

    def test_describe_marks_failed_tiles(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.boot()
        echo = EchoAccel("echo")
        system.run_until(system.start_app(3, echo, endpoint="app.echo"))
        system.mgmt.fail_stop(3)
        art = system.describe()
        assert "FAILED" in art

    def test_boot_is_safe_to_call_before_apps(self):
        system = ApiarySystem(SystemConfig.figure1())
        system.boot()
        assert system.tiles[0].occupied  # svc.mem loaded
        assert not system.tiles[3].occupied


class TestWiderFlitsHelpLargePayloads:
    def test_wide_flits_cut_large_message_latency(self):
        latencies = {}
        for width in (16, 64):
            system = ApiarySystem(SystemConfig(
                noc=NocConfig(width=3, height=2, flit_bytes=width),
                mem=MemConfig(enabled=False)))
            system.boot()
            echo = EchoAccel("echo", cost=0)
            system.run_until(system.start_app(2, echo, endpoint="app.echo"))

            class Probe(Accelerator):
                COST = ResourceVector(logic_cells=4_000, bram_kb=8,
                                      dsp_slices=0)
                PRIMITIVES = {"lut_logic": 3_000}

                def __init__(self):
                    super().__init__("probe")
                    self.latency = None

                def main(self, shell):
                    t0 = shell.engine.now
                    yield shell.call("app.echo", "ping", payload="x",
                                     payload_bytes=4096, timeout=5_000_000)
                    self.latency = shell.engine.now - t0

            probe = Probe()
            started = system.start_app(5, probe)
            system.mgmt.grant_send("tile5", "app.echo")
            system.run_until(started)
            system.run(until=system.engine.now + 5_000_000)
            latencies[width] = probe.latency
        assert latencies[64] < latencies[16] / 2
