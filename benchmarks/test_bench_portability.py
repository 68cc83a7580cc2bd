"""D10 — portability: one application, different boards and MAC IP cores.

Section 2's complaint: "the interface and reset process for Xilinx's 10
Gbit Ethernet IP core and 100 Gbit Ethernet IP core are different."  Our
MAC models reproduce that divergence faithfully; the experiment runs a
byte-identical application over both cores (and two board models) purely
through the Apiary shell, and reports what changes: only the line-rate-
dependent numbers.
"""

import pytest

from repro.accel import Accelerator
from repro.eval import format_table
from repro.eval.report import record
from repro.kernel import ApiarySystem, NetConfig, NocConfig, SystemConfig
from repro.net import EthernetFabric, HundredGigMac, TenGigMac
from repro.sim import Engine
from repro.workloads import RemoteClientHost

CONFIGS = [
    # (label, mac_kind, part_name)
    ("VC707-class, 10G MAC", "10g", "XC7V585T"),
    ("Alveo-class, 100G MAC", "100g", "VU29P"),
    ("Versal-class, 100G MAC + hard NoC", "100g", "XCVC1902"),
]
PAYLOAD = 1024
N_REQUESTS = 40


class ByteEcho(Accelerator):
    """The application under test — knows nothing about MACs or boards."""

    def __init__(self):
        super().__init__("byte-echo")
        self.served = 0

    def main(self, shell):
        yield shell.net_bind(5)
        while True:
            msg = yield shell.recv()
            if msg.op != "net.rx":
                continue
            body = msg.payload
            tag, rid, data = body["data"]
            self.served += 1
            yield shell.net_send(body["src_mac"], 5,
                                 data=("resp", rid, data), nbytes=PAYLOAD)


def run_config(mac_kind, part_name):
    engine = Engine()
    fabric = EthernetFabric(engine, latency_cycles=500, jumbo=True)
    system = ApiarySystem(
        SystemConfig(part_name=part_name, noc=NocConfig(width=3, height=2),
                     net=NetConfig(mac_kind=mac_kind, mac_addr="board0")),
        engine=engine, fabric=fabric)
    system.boot()
    app = ByteEcho()
    engine.run_until_done(system.start_app(3, app), limit=50_000_000)
    client = RemoteClientHost(engine, fabric, "client0")
    proc = engine.process(client.closed_loop(
        "board0", 5, list(range(N_REQUESTS)), nbytes=PAYLOAD,
        timeout=50_000_000,
    ))
    engine.run_until_done(proc.done, limit=2_000_000_000)
    overhead_fraction = system.apiary_overhead_fraction()
    return {
        "served": app.served,
        "p50": client.latency.percentile(50),
        "overhead": overhead_fraction,
        "overhead_cells": int(overhead_fraction * system.part.logic_cells),
    }


def run_all():
    return {label: run_config(kind, part)
            for label, kind, part in CONFIGS}


def test_bench_portability(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # the identical application ran to completion on every board
    for label, r in results.items():
        assert r["served"] == N_REQUESTS, label
    # what differs is physics, not code: the 10G board is slower for the
    # same 1KB payloads (serialization), and the hardened-NoC part carries
    # the OS almost for free
    assert (results["VC707-class, 10G MAC"]["p50"]
            > results["Alveo-class, 100G MAC"]["p50"])
    # hardened NoC: absolute OS logic shrinks (the fraction can still be
    # comparable because the Versal part is half the VU29P's size)
    assert (results["Versal-class, 100G MAC + hard NoC"]["overhead_cells"]
            < results["Alveo-class, 100G MAC"]["overhead_cells"])

    # and the MAC cores really do expose disjoint interfaces underneath
    assert not hasattr(TenGigMac, "write_reg")
    assert not hasattr(HundredGigMac, "assert_reset")

    rows = [[label, r["p50"], N_REQUESTS, f"{r['overhead']:.2%}"]
            for label, r in results.items()]
    record("D10", "Portability: byte-identical application across boards "
                  f"({PAYLOAD}B echo RPCs)",
           format_table(["board", "p50 (cyc)", "completed", "OS share"],
                        rows))
