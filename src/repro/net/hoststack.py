"""Host CPU, kernel network stack and PCIe models for the hosted baselines.

The paper's argument for direct attachment (Section 1): CPU mediation adds
latency, latency *variability*, CPU cycles and energy.  To measure that
claim (D1-D3) rather than assume it, the Coyote/AmorphOS-style baselines
run their datapath through the models here:

* :class:`HostCpu` — a pool of cores with context-switch cost and a heavy-
  tailed scheduling-delay distribution (the source of hosted p99/p999).
* :class:`HostNetStack` — per-packet kernel or kernel-bypass processing.
* :class:`PcieLink` — DMA latency + bandwidth between host and FPGA.

All costs are in 250 MHz fabric cycles (4 ns each) and documented in ns so
they can be compared against published measurements.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim import Engine, Resource

__all__ = [
    "HostCpu",
    "HostNetStack",
    "PcieLink",
    "KERNEL_RX_CYCLES",
    "BYPASS_RX_CYCLES",
    "SYSCALL_CYCLES",
    "CONTEXT_SWITCH_CYCLES",
    "PCIE_DMA_LATENCY_CYCLES",
]

# ~2 us through the kernel stack per packet (socket rx path)
KERNEL_RX_CYCLES = 500
# ~300 ns with a userspace/bypass stack (DPDK-class)
BYPASS_RX_CYCLES = 75
# ~500 ns syscall + copy
SYSCALL_CYCLES = 125
# ~4 us to switch in a blocked thread
CONTEXT_SWITCH_CYCLES = 1000
# a wakeup is delayed by run-queue interference with this probability, by
# an exponential extra with the mean of one more switch
JITTER_PROB = 0.15
# ~900 ns PCIe round-trip initiation latency
PCIE_DMA_LATENCY_CYCLES = 225
# PCIe gen3 x16 sustained ~12 GB/s = 48 B per 4 ns fabric cycle
PCIE_BYTES_PER_CYCLE = 48


class HostCpu:
    """A pool of host cores with scheduling-delay injection.

    ``run(cost)`` is a process generator: it waits for a core, charges an
    optional wakeup/context-switch delay drawn from a heavy-tailed
    distribution, executes for ``cost`` cycles, and releases the core.
    ``cycles_used`` accumulates the CPU time the hosted datapath burns —
    the D3 CPU-overhead metric.
    """

    def __init__(
        self,
        engine: Engine,
        cores: int = 4,
        rng: Optional[np.random.Generator] = None,
    ):
        if cores < 1:
            raise ConfigError(f"need >= 1 core, got {cores}")
        self.engine = engine
        self.cores = Resource(engine, slots=cores, name="host.cores")
        self.rng = rng
        self.cycles_used = 0
        self.wakeups = 0
        self.jitter_events = 0

    def _wakeup_delay(self) -> int:
        """Context-switch cost, occasionally inflated by scheduling delay.

        The tail is exponential on top of the fixed switch cost — the
        standard first-order model of run-queue interference.
        """
        self.wakeups += 1
        delay = CONTEXT_SWITCH_CYCLES
        if self.rng is not None and self.rng.random() < JITTER_PROB:
            self.jitter_events += 1
            delay += int(self.rng.exponential(CONTEXT_SWITCH_CYCLES))
        return delay

    def run(self, cost_cycles: int, wakeup: bool = True):
        """Process generator: execute ``cost_cycles`` of host work."""
        if cost_cycles < 0:
            raise ConfigError(f"negative cost {cost_cycles}")
        grant = yield self.cores.acquire()
        try:
            if wakeup:
                delay = self._wakeup_delay()
                self.cycles_used += delay
                yield delay
            self.cycles_used += cost_cycles
            yield cost_cycles
        finally:
            self.cores.release(grant)


class HostNetStack:
    """Per-packet host network processing cost.

    ``receive_cost`` / ``send_cost`` return cycle counts the caller charges
    through :class:`HostCpu`; bypass mode models a DPDK-class stack.
    """

    def __init__(self, kernel_bypass: bool = False):
        self.kernel_bypass = kernel_bypass
        self.packets_processed = 0

    def receive_cost(self, nbytes: int) -> int:
        self.packets_processed += 1
        base = BYPASS_RX_CYCLES if self.kernel_bypass else KERNEL_RX_CYCLES
        # copies scale with size: ~1 cycle per 64B line per copy
        copies = 1 if self.kernel_bypass else 2
        return base + copies * (nbytes // 64)

    def send_cost(self, nbytes: int) -> int:
        self.packets_processed += 1
        base = BYPASS_RX_CYCLES // 2 if self.kernel_bypass else SYSCALL_CYCLES
        copies = 1 if self.kernel_bypass else 2
        return base + copies * (nbytes // 64)


class PcieLink:
    """Host <-> FPGA DMA path: initiation latency plus bandwidth sharing."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.bus = Resource(engine, slots=1, name="pcie.bus")
        self.bytes_moved = 0
        self.transfers = 0

    def dma(self, nbytes: int):
        """Process generator: one DMA transfer of ``nbytes``."""
        if nbytes < 1:
            raise ConfigError(f"DMA needs >= 1 byte, got {nbytes}")
        yield PCIE_DMA_LATENCY_CYCLES
        grant = yield self.bus.acquire()
        try:
            transfer = max(1, int(nbytes / PCIE_BYTES_PER_CYCLE))
            yield transfer
        finally:
            self.bus.release(grant)
        self.bytes_moved += nbytes
        self.transfers += 1
