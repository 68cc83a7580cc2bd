"""NoC topologies: 2-D mesh (the Apiary default) and torus variant.

A topology maps node ids to grid coordinates and answers "which output
port leads from node A toward neighbour B".  Routers and routing functions
are topology-agnostic; they work through this interface.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigError, RouteError

__all__ = ["Port", "Mesh2D", "Torus2D"]


class Port(enum.IntEnum):
    """Router port directions.  LOCAL attaches the tile's network interface."""

    LOCAL = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4

    @property
    def opposite(self) -> "Port":
        if self == Port.LOCAL:
            return Port.LOCAL
        return _OPPOSITE[self]


_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}


class Mesh2D:
    """A ``width x height`` 2-D mesh.

    Node ids are row-major: node ``(x, y)`` has id ``y * width + x``.
    North decreases ``y`` (grid drawn with y growing downward, matching the
    usual NoC floorplan diagrams, including the paper's Figure 1).
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ConfigError(f"mesh must be >= 1x1, got {width}x{height}")
        self.width = width
        self.height = height

    @property
    def node_count(self) -> int:
        return self.width * self.height

    def nodes(self) -> Iterator[int]:
        return iter(range(self.node_count))

    def coords(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.node_count:
            raise RouteError(f"node {node} outside {self.width}x{self.height} mesh")
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise RouteError(f"coords ({x},{y}) outside mesh")
        return y * self.width + x

    def neighbor(self, node: int, port: Port) -> Optional[int]:
        """The node one hop away through ``port``; ``None`` at an edge."""
        x, y = self.coords(node)
        if port == Port.NORTH:
            return self.node_at(x, y - 1) if y > 0 else None
        if port == Port.SOUTH:
            return self.node_at(x, y + 1) if y < self.height - 1 else None
        if port == Port.EAST:
            return self.node_at(x + 1, y) if x < self.width - 1 else None
        if port == Port.WEST:
            return self.node_at(x - 1, y) if x > 0 else None
        raise RouteError(f"no neighbor through port {port!r}")

    def links(self) -> List[Tuple[int, Port, int]]:
        """Every directed link as ``(from_node, out_port, to_node)``."""
        out = []
        for node in self.nodes():
            for port in (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST):
                dst = self.neighbor(node, port)
                if dst is not None:
                    out.append((node, port, dst))
        return out

    def hop_distance(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Mesh2D {self.width}x{self.height}>"


class Torus2D(Mesh2D):
    """A 2-D torus: mesh with wraparound links.

    Shorter diameters at the cost of the wrap links; included to let the
    topology ablations compare fabric choices.  Note XY routing on a torus
    needs VCs to stay deadlock-free; the router enforces a dateline VC flip.
    """

    def neighbor(self, node: int, port: Port) -> Optional[int]:
        x, y = self.coords(node)
        if port == Port.NORTH:
            return self.node_at(x, (y - 1) % self.height)
        if port == Port.SOUTH:
            return self.node_at(x, (y + 1) % self.height)
        if port == Port.EAST:
            return self.node_at((x + 1) % self.width, y)
        if port == Port.WEST:
            return self.node_at((x - 1) % self.width, y)
        raise RouteError(f"no neighbor through port {port!r}")

    def hop_distance(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        dx = abs(ax - bx)
        dy = abs(ay - by)
        return min(dx, self.width - dx) + min(dy, self.height - dy)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Torus2D {self.width}x{self.height}>"
