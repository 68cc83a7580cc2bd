"""Wiring/resource models: per-service ports vs. one NoC interface (A1).

Section 4.3: "In previous work, the number of physical interfaces is
coupled with the number of services available ... This means that when
adding or removing services, the number of physical interfaces and the
underlying wires are directly impacted."  These analytic models quantify
that: wire and logic cost of the port-per-service style (Coyote/AmorphOS)
versus Apiary's single NoC interface per tile, as service count grows.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.hw.resources import router_cost

__all__ = ["port_coupled_wiring", "noc_wiring"]

#: Width of one AXI4 service port in wires (data + addr + handshake).
AXI_PORT_WIRES = 350
#: Logic cells for one port's endpoint logic (protocol FSM + FIFOs).
PORT_ENDPOINT_CELLS = 900
#: Per-service central mux/demux cost scales with attached accelerators.
MUX_CELLS_PER_ATTACHMENT = 250

#: Width of one NoC link (data + flow control).
NOC_LINK_WIRES = 150
#: NI endpoint logic per tile.
NI_CELLS = 1_100


def port_coupled_wiring(num_accels: int, num_services: int) -> Dict[str, int]:
    """Coyote/AmorphOS style: every accelerator gets one port per service.

    Wires and endpoint logic grow with ``accels * services``; each service
    also needs a mux tree over all attached accelerators.
    """
    if num_accels < 1 or num_services < 0:
        raise ConfigError("need >= 1 accelerator and >= 0 services")
    ports = num_accels * num_services
    wires = ports * AXI_PORT_WIRES
    cells = (
        ports * PORT_ENDPOINT_CELLS
        + num_services * num_accels * MUX_CELLS_PER_ATTACHMENT
    )
    return {
        "ports": ports,
        "wires": wires,
        "logic_cells": cells,
    }


def noc_wiring(num_accels: int, num_services: int,
               hardened: bool = False) -> Dict[str, int]:
    """Apiary style: one NI per tile, services addressed in the message.

    Wires grow with the *mesh links*, not the service count; adding a
    service adds zero physical interfaces ("the same physical interface to
    communicate with multiple services").  The tiles sit on the squarest
    mesh that holds them.
    """
    if num_accels < 1 or num_services < 0:
        raise ConfigError("need >= 1 accelerator and >= 0 services")
    tiles = num_accels + num_services
    mesh_width = max(1, int(tiles ** 0.5 + 0.9999))
    mesh_height = (tiles + mesh_width - 1) // mesh_width
    # directed mesh links
    links = 2 * (mesh_width * (mesh_height - 1) + mesh_height * (mesh_width - 1))
    wires = (links + tiles) * NOC_LINK_WIRES  # +tiles for the local links
    cells = tiles * (NI_CELLS + router_cost(hardened=hardened).logic_cells)
    return {
        "ports": tiles,  # one local port each, regardless of service count
        "wires": wires,
        "logic_cells": cells,
    }
