"""Routing functions.

All designs in the paper use provably deadlock-free dimension-ordered
(XY) routing as the *productive* route.  The backpressured router follows
DOR strictly; the deflection router prefers productive ports but may be
forced onto any free port.  Lookahead routing (LAR) means the output port
at the next hop is computed one hop early; in this simulator routes are
simply computed combinationally when needed, which is timing-equivalent
to LAR inside the 2-stage pipeline of Table I.

Hot-path layout: routes are precomputed once per mesh into per-node
rows indexed by destination (:class:`RoutingTables`), shared by every
router of every design.  Routers take their own row at finalize time,
so a per-flit route lookup is a single tuple index — no coordinate
math, no dict lookups, no list building.  Building the rows costs work
in proportion to the rows themselves: each node's row is filled from
the nine sign cases of ``(dx, dy)`` with port tuples shared across the
mesh.  ``_xy_route_computed`` / ``_productive_ports_computed`` are the
per-pair coordinate math the tables are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from .topology import LOCAL, Direction, Mesh, network_port_table


def _xy_route_computed(mesh: Mesh, current: int, dst: int) -> Direction:
    cx, cy = mesh.coords(current)
    dx, dy = mesh.coords(dst)
    if cx < dx:
        return Direction.EAST
    if cx > dx:
        return Direction.WEST
    if cy < dy:
        return Direction.SOUTH
    if cy > dy:
        return Direction.NORTH
    return Direction.LOCAL


def _productive_ports_computed(
    mesh: Mesh, current: int, dst: int
) -> Tuple[Direction, ...]:
    cx, cy = mesh.coords(current)
    dx, dy = mesh.coords(dst)
    ports: List[Direction] = []
    if cx < dx:
        ports.append(Direction.EAST)
    elif cx > dx:
        ports.append(Direction.WEST)
    if cy < dy:
        ports.append(Direction.SOUTH)
    elif cy > dy:
        ports.append(Direction.NORTH)
    return tuple(ports)


@dataclass(frozen=True)
class RoutingTables:
    """Precomputed route tables for one mesh, as per-node rows.

    ``xy[node][dst]`` is the dimension-ordered output port at ``node``
    toward ``dst``; ``productive[node][dst]`` is the tuple of
    distance-reducing ports (DOR port first), and
    ``fallback[node][dst]`` the tuple of existing *non-productive*
    ports in the node's port order — the deflection-priority ordering a
    flit falls back to when every productive port is taken or masked.
    Routers grab their rows once at finalize time so the per-flit hot
    path is a plain tuple index.

    Entries are shared, not built per pair: a mesh has at most 9
    distinct productive tuples (one per pair of coordinate signs) and
    at most 81 distinct fallback tuples (9 port sets x 9 productive
    tuples), interned across all rows.
    """

    num_nodes: int
    xy: Tuple[Tuple[Direction, ...], ...]
    productive: Tuple[Tuple[Tuple[Direction, ...], ...], ...]
    fallback: Tuple[Tuple[Tuple[Direction, ...], ...], ...]


#: Productive ports per pair of coordinate signs ``(sx, sy)`` of the
#: destination relative to the current node (+x is EAST, +y is SOUTH),
#: DOR port first.
_PRODUCTIVE_BY_SIGNS: Dict[Tuple[int, int], Tuple[Direction, ...]] = {
    (sx, sy): tuple(
        port
        for sign, port in (
            (sx, Direction.EAST if sx > 0 else Direction.WEST),
            (sy, Direction.SOUTH if sy > 0 else Direction.NORTH),
        )
        if sign
    )
    for sx in (-1, 0, 1)
    for sy in (-1, 0, 1)
}


@lru_cache(maxsize=64)
def routing_tables(mesh: Mesh) -> RoutingTables:
    """The (cached) routing tables for ``mesh``.

    Every destination row of the mesh splits into three x-segments as
    seen from a node — west of it, its own column, east of it — and
    every row into the rows north of it, its own and south of it, so a
    node's route row is nine cells filled by list repetition.
    """
    width, height = mesh.width, mesh.height
    fallbacks: Dict[
        Tuple[Tuple[Direction, ...], Tuple[Direction, ...]],
        Tuple[Direction, ...],
    ] = {}
    xy: List[Tuple[Direction, ...]] = []
    productive: List[Tuple[Tuple[Direction, ...], ...]] = []
    fallback: List[Tuple[Tuple[Direction, ...], ...]] = []
    for node, ports in enumerate(network_port_table(mesh)):
        cx, cy = node % width, node // width
        xy_row: list = []
        prod_row: list = []
        fb_row: list = []
        for sy, rows in ((-1, cy), (0, 1), (1, height - cy - 1)):
            xy_seg: list = []
            prod_seg: list = []
            fb_seg: list = []
            for sx, count in ((-1, cx), (0, 1), (1, width - cx - 1)):
                prod = _PRODUCTIVE_BY_SIGNS[sx, sy]
                fb = fallbacks.get((ports, prod))
                if fb is None:
                    fb = fallbacks[ports, prod] = tuple(
                        p for p in ports if p not in prod
                    )
                xy_seg += [prod[0] if prod else LOCAL] * count
                prod_seg += [prod] * count
                fb_seg += [fb] * count
            xy_row += xy_seg * rows
            prod_row += prod_seg * rows
            fb_row += fb_seg * rows
        xy.append(tuple(xy_row))
        productive.append(tuple(prod_row))
        fallback.append(tuple(fb_row))
    return RoutingTables(
        num_nodes=mesh.num_nodes,
        xy=tuple(xy),
        productive=tuple(productive),
        fallback=tuple(fallback),
    )


def xy_route(mesh: Mesh, current: int, dst: int) -> Direction:
    """Dimension-ordered (X then Y) output port at ``current`` toward ``dst``.

    Returns ``Direction.LOCAL`` when the flit has arrived.
    """
    if not 0 <= current < mesh.num_nodes or not 0 <= dst < mesh.num_nodes:
        raise ValueError(
            f"node outside mesh of {mesh.num_nodes} nodes: "
            f"current={current}, dst={dst}"
        )
    return routing_tables(mesh).xy[current][dst]


def productive_ports(mesh: Mesh, current: int, dst: int) -> List[Direction]:
    """All ports that reduce the distance to ``dst`` (0, 1 or 2 ports).

    Deflection routers may use any of these, not only the DOR one,
    because they are not bound by DOR's deadlock-avoidance discipline
    (deflection avoids deadlock by construction).  The DOR port, when it
    exists, is listed first so that allocators preferring earlier entries
    behave like XY routing under no contention.
    """
    if not 0 <= current < mesh.num_nodes or not 0 <= dst < mesh.num_nodes:
        raise ValueError(
            f"node outside mesh of {mesh.num_nodes} nodes: "
            f"current={current}, dst={dst}"
        )
    return list(routing_tables(mesh).productive[current][dst])


def is_productive(mesh: Mesh, current: int, dst: int, port: Direction) -> bool:
    """True if dispatching on ``port`` reduces the hop distance to ``dst``."""
    if port is Direction.LOCAL:
        return current == dst
    if not mesh.has_neighbor(current, port):
        return False
    nxt = mesh.neighbor(current, port)
    return mesh.hop_distance(nxt, dst) < mesh.hop_distance(current, dst)
