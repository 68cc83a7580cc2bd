"""Network-on-Chip substrate.

Apiary's physical interconnect (Section 4.3): a switched fabric carrying
message-passing traffic between tiles.  This package provides the mesh/torus
topologies, flit-level wormhole routers with virtual channels and credit
flow control (each output port grants one input a cycle by a round-robin
pointer), the XY routing each topology implies, QoS token buckets, the
assembled :class:`Network` with per-node interfaces, and a progress
watchdog.
"""

from repro.noc.deadlock import ProgressWatchdog
from repro.noc.flit import DEFAULT_FLIT_BYTES, Flit, FlitKind, Packet, flits_for_bytes
from repro.noc.network import Network, NetworkInterface
from repro.noc.qos import RateMeter, TokenBucket
from repro.noc.router import Router
from repro.noc.routing import TorusXYRouting, XYRouting
from repro.noc.topology import Mesh2D, Port, Torus2D

__all__ = [
    "Mesh2D",
    "Torus2D",
    "Port",
    "Flit",
    "FlitKind",
    "Packet",
    "flits_for_bytes",
    "DEFAULT_FLIT_BYTES",
    "XYRouting",
    "TorusXYRouting",
    "TokenBucket",
    "RateMeter",
    "Router",
    "Network",
    "NetworkInterface",
    "ProgressWatchdog",
]
