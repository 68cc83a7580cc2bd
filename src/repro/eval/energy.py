"""Energy accounting (D3): per-request joules across system models.

Section 1's claim: "By bypassing the CPU, a direct-attached accelerator
reduces CPU overhead, lowers latencies, and further reduces energy."  The
model attributes energy to *active* component time — the differential part
of the comparison — using published first-order figures:

* a busy server core burns ~10 W  ->  40 nJ per 4 ns fabric cycle;
* a busy FPGA accelerator region ~3 W  ->  12 nJ per cycle;
* PCIe moves data at ~60 pJ/byte; DRAM at ~50 pJ/byte;
* NIC/MAC handling ~100 nJ per frame.

Absolute numbers are indicative; the experiment checks the *shape* (hosted
pays the CPU term, direct-attached doesn't).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["EnergyModel", "EnergyBreakdown"]

CPU_NJ_PER_CYCLE = 40.0
FPGA_NJ_PER_CYCLE = 12.0
MONITOR_NJ_PER_MSG = 2.0      # a few pJ/bit over a small header
NOC_NJ_PER_FLIT_HOP = 0.15    # hardened NoC energy per flit-hop
PCIE_NJ_PER_BYTE = 0.06
DRAM_NJ_PER_BYTE = 0.05
NIC_NJ_PER_FRAME = 100.0


@dataclass
class EnergyBreakdown:
    """Joules attributed per component class, plus the total."""

    cpu_nj: float = 0.0
    fpga_nj: float = 0.0
    noc_nj: float = 0.0
    pcie_nj: float = 0.0
    dram_nj: float = 0.0
    nic_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (self.cpu_nj + self.fpga_nj + self.noc_nj + self.pcie_nj
                + self.dram_nj + self.nic_nj)

    def per_request_uj(self, requests: int) -> float:
        if requests <= 0:
            return 0.0
        return self.total_nj / requests / 1000.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cpu_nj": self.cpu_nj,
            "fpga_nj": self.fpga_nj,
            "noc_nj": self.noc_nj,
            "pcie_nj": self.pcie_nj,
            "dram_nj": self.dram_nj,
            "nic_nj": self.nic_nj,
            "total_nj": self.total_nj,
        }


class EnergyModel:
    """Accumulates activity counters into an :class:`EnergyBreakdown`."""

    def __init__(self) -> None:
        self.breakdown = EnergyBreakdown()

    def add_cpu_cycles(self, cycles: float) -> None:
        self.breakdown.cpu_nj += cycles * CPU_NJ_PER_CYCLE

    def add_fpga_cycles(self, cycles: float) -> None:
        self.breakdown.fpga_nj += cycles * FPGA_NJ_PER_CYCLE

    def add_monitor_messages(self, count: float) -> None:
        self.breakdown.noc_nj += count * MONITOR_NJ_PER_MSG

    def add_noc_flit_hops(self, count: float) -> None:
        self.breakdown.noc_nj += count * NOC_NJ_PER_FLIT_HOP

    def add_pcie_bytes(self, nbytes: float) -> None:
        self.breakdown.pcie_nj += nbytes * PCIE_NJ_PER_BYTE

    def add_dram_bytes(self, nbytes: float) -> None:
        self.breakdown.dram_nj += nbytes * DRAM_NJ_PER_BYTE

    def add_nic_frames(self, count: float) -> None:
        self.breakdown.nic_nj += count * NIC_NJ_PER_FRAME

    # -- system-level helpers ----------------------------------------------------

    def charge_apiary(self, system, fabric=None) -> None:
        """Attribute an ApiarySystem run's activity."""
        for tile in system.tiles:
            if tile.accelerator is not None:
                self.add_fpga_cycles(tile.accelerator.busy_cycles)
            self.add_monitor_messages(tile.monitor.messages_sent)
        self.add_noc_flit_hops(system.network.total_flits_forwarded())
        if system.dram is not None:
            self.add_dram_bytes(system.dram.totals()["bytes_moved"])
        if fabric is not None:
            self.add_nic_frames(fabric.frames_delivered)

    def charge_hosted(self, hosted, fabric=None) -> None:
        """Attribute a HostedFpgaSystem run's activity."""
        self.add_cpu_cycles(hosted.cpu.cycles_used)
        self.add_fpga_cycles(hosted.fpga_busy_cycles)
        self.add_pcie_bytes(hosted.pcie.bytes_moved)
        if fabric is not None:
            self.add_nic_frames(fabric.frames_delivered)

    def charge_bare(self, bare, fabric=None) -> None:
        """Attribute a BareFpgaSystem run's activity."""
        self.add_fpga_cycles(bare.fpga_busy_cycles)
        if fabric is not None:
            self.add_nic_frames(fabric.frames_delivered)
