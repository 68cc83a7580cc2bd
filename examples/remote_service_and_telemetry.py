#!/usr/bin/env python3
"""Open-question demos: remote CPU services (§6 Q3) and live telemetry.

Part 1 — can Apiary avoid an on-node CPU?  A dictionary service runs on a
*remote* CPU host across the datacenter fabric, behind a tiny proxy tile;
an accelerator calls it through the same shell API as any hardware
service, and we print the latency price of the placement.

Part 2 — the observability dividend of "all messages go through the
monitor": live per-tile telemetry spots a flooding tenant, and closed-loop
policing throttles exactly that tile.

Run:  python examples/remote_service_and_telemetry.py
"""

from repro.accel import Accelerator, FloodingAccel, SinkAccel
from repro.hw.resources import ResourceVector
from repro.kernel import (
    ApiarySystem,
    NetConfig,
    NocConfig,
    RemoteCpuServiceHost,
    RemoteServiceProxy,
    SystemConfig,
)
from repro.net import EthernetFabric
from repro.sim import Engine


def part1_remote_service():
    print("=== Part 1: a service on a remote CPU (Section 6, Q3) ===")
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=400)
    system = ApiarySystem(
        SystemConfig(noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_addr="board0")),
        engine=engine, fabric=fabric)
    system.boot()

    table = {}

    def handler(op, payload):
        if op == "dict.put":
            table[payload["key"]] = payload["value"]
            return 200, {"stored": True}, 16
        return 150, {"value": table.get(payload["key"])}, 64

    host = RemoteCpuServiceHost(engine, fabric, "cpu-host", handler)
    proxy = RemoteServiceProxy("dict-proxy", remote_mac="cpu-host", port=88)
    started = system.mgmt.load_service(3, proxy, "svc.dict")
    system.mgmt.grant_send("tile3", "svc.net")
    net_tile = system.tiles[system.name_table["svc.net"]]
    system.mgmt.grant_send(net_tile.endpoint, "tile3")
    system.run_until(started)

    class Caller(Accelerator):
        COST = ResourceVector(logic_cells=4_000, bram_kb=8, dsp_slices=0)
        PRIMITIVES = {"lut_logic": 3_000}

        def __init__(self):
            super().__init__("caller")
            self.latencies = []

        def main(self, shell):
            yield shell.call("svc.dict", "dict.put",
                             payload={"key": "answer", "value": 42},
                             timeout=50_000_000)
            for _ in range(5):
                t0 = shell.engine.now
                resp = yield shell.call("svc.dict", "dict.get",
                                        payload={"key": "answer"},
                                        timeout=50_000_000)
                self.latencies.append(shell.engine.now - t0)
                assert resp.payload["value"] == 42

    caller = Caller()
    system.run_until(system.start_app(4, caller))
    system.run(until=engine.now + 300_000_000)
    lat = min(caller.latencies)
    print(f"  dict.get through the proxy: {lat:,} cycles "
          f"({lat * 4 / 1000:.1f} us) — same shell API, remote placement")
    print(f"  remote host burned "
          f"{host.cpu.cycles_used / max(1, host.requests_served):,.0f} "
          "CPU cycles per request (the cost Apiary's hardware services "
          "avoid on the hot path)\n")


def part2_telemetry():
    print("=== Part 2: telemetry + closed-loop policing ===")
    system = ApiarySystem(SystemConfig.figure1())
    system.boot()
    victim = SinkAccel("victim", service_cycles=5)
    flooder = FloodingAccel("flooder", victim="app.victim", message_bytes=64)
    started = [system.start_app(2, victim, endpoint="app.victim"),
               system.start_app(4, flooder)]
    system.mgmt.grant_send("tile4", "app.victim")
    system.run_until(system.engine.all_of(started))
    system.run(until=system.engine.now + 12_000)

    print("  per-tile telemetry (flits/cycle on the egress path):")
    for snap in system.mgmt.telemetry():
        if snap["messages_sent"] or snap["messages_received"]:
            print(f"    {snap['tile']:>6}: tx={snap['tx_flits_per_cycle']:.3f} "
                  f"sent={snap['messages_sent']:.0f} "
                  f"recv={snap['messages_received']:.0f}")

    throttled = system.mgmt.police_rates(tx_threshold=0.05,
                                         limit_flits_per_cycle=0.01)
    print(f"  policing throttled: {throttled}")
    before = flooder.sent
    system.run(until=system.engine.now + 30_000)
    print(f"  flood rate after policing: "
          f"{(flooder.sent - before) / 30_000:.4f} msgs/cycle "
          f"(was ~{before / 12_000:.3f})")


if __name__ == "__main__":
    part1_remote_service()
    part2_telemetry()
