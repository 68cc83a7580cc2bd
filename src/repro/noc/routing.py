"""Routing functions.

A routing function answers: given a packet at ``node`` heading for ``dst``,
which output port does it take?  Dimension-ordered XY routing is the
Apiary mesh routing — it is deterministic and deadlock-free on a mesh,
which is why hardened FPGA NoCs use it.  The torus variant adds
wraparound links with dateline virtual channels.  The topology picks one
(:class:`~repro.noc.network.Network`), so neither is an option.
"""

from __future__ import annotations

from repro.noc.topology import Mesh2D, Port

__all__ = ["XYRouting", "TorusXYRouting"]


class XYRouting:
    """Dimension-ordered: correct X first, then Y.  Deadlock-free on meshes."""

    name = "xy"

    def route(self, topo: Mesh2D, node: int, dst: int) -> Port:
        """The output port; LOCAL means 'eject here'."""
        if node == dst:
            return Port.LOCAL
        x, y = topo.coords(node)
        dx, dy = topo.coords(dst)
        if x < dx:
            return Port.EAST
        if x > dx:
            return Port.WEST
        if y < dy:
            return Port.SOUTH
        return Port.NORTH


class TorusXYRouting:
    """Dimension-ordered shortest-direction routing for tori.

    Takes the wraparound link whenever it shortens the path (ties go to the
    positive direction).  Wrap links close each ring into a cycle, so this
    is only deadlock-free with *dateline* virtual channels: a packet starts
    each dimension on VC 0 and switches to VC 1 after crossing that
    dimension's wrap edge — breaking the ring's cyclic channel dependency
    (Dally & Seitz).  The router enforces the VC discipline; this class
    only picks directions and answers wrap/dimension queries.

    Requires ``num_vcs >= 2`` (VCs 0 and 1 are the dateline tiers).
    """

    name = "torus-xy"

    def route(self, topo: Mesh2D, node: int, dst: int) -> Port:
        """The output port; LOCAL means 'eject here'."""
        if node == dst:
            return Port.LOCAL
        x, y = topo.coords(node)
        dx, dy = topo.coords(dst)
        if x != dx:
            return self._direction(x, dx, topo.width, Port.EAST, Port.WEST)
        return self._direction(y, dy, topo.height, Port.SOUTH, Port.NORTH)

    @staticmethod
    def _direction(here: int, there: int, extent: int,
                   positive: Port, negative: Port) -> Port:
        forward = (there - here) % extent
        backward = (here - there) % extent
        return positive if forward <= backward else negative

    @staticmethod
    def crosses_wrap(topo: Mesh2D, node: int, port: Port) -> bool:
        """Does the hop from ``node`` through ``port`` use a wrap link?"""
        x, y = topo.coords(node)
        if port == Port.EAST:
            return x == topo.width - 1
        if port == Port.WEST:
            return x == 0
        if port == Port.SOUTH:
            return y == topo.height - 1
        if port == Port.NORTH:
            return y == 0
        return False

    @staticmethod
    def dimension(port: Port) -> str:
        return "x" if port in (Port.EAST, Port.WEST) else "y"
