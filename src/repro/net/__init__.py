"""Datacenter network substrate.

Ethernet frames and a switched fabric, the two deliberately-divergent MAC
IP-core models (10G vs. 100G — the Section 2 portability pain), a go-back-N
reliable transport with its one per-peer demux (``ReliableMux``), and the
host CPU / kernel stack / PCIe models the hosted baselines are built from.

RPC is a payload convention, not a class: every endpoint sends
``{"port", "data", "src_mac"}`` where ``data`` is ``("req", rid, body)`` or
``("resp", rid, body)`` and the caller matches ``rid``.
"""

from repro.net.ethernet import HundredGigMac, TenGigMac
from repro.net.frame import (
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    EthernetFabric,
    EthernetFrame,
)
from repro.net.hoststack import (
    BYPASS_RX_CYCLES,
    CONTEXT_SWITCH_CYCLES,
    KERNEL_RX_CYCLES,
    PCIE_DMA_LATENCY_CYCLES,
    SYSCALL_CYCLES,
    HostCpu,
    HostNetStack,
    PcieLink,
)
from repro.net.transport import (
    TRANSPORT_HEADER_BYTES,
    Datagram,
    ReliableEndpoint,
    ReliableMux,
)

__all__ = [
    "EthernetFrame",
    "EthernetFabric",
    "MIN_FRAME_BYTES",
    "MAX_FRAME_BYTES",
    "TenGigMac",
    "HundredGigMac",
    "ReliableEndpoint",
    "ReliableMux",
    "Datagram",
    "TRANSPORT_HEADER_BYTES",
    "HostCpu",
    "HostNetStack",
    "PcieLink",
    "KERNEL_RX_CYCLES",
    "BYPASS_RX_CYCLES",
    "SYSCALL_CYCLES",
    "CONTEXT_SWITCH_CYCLES",
    "PCIE_DMA_LATENCY_CYCLES",
]
