"""Cross-checks of the precomputed route tables against the route
functions they replace.

The saturation fast path routes through per-mesh route rows
(``routing_tables``); these tests verify, for every ``(node, dst)``
pair on square, non-square and two-wide meshes, that the rows agree
with the direct coordinate-math implementation, that the
deflection-fallback rows are exactly the existing non-productive ports
in wiring order, and that the port tuples are shared across the mesh
rather than built per pair.
"""

import pytest

from repro.network.routing import (
    _productive_ports_computed,
    _xy_route_computed,
    is_productive,
    productive_ports,
    routing_tables,
    xy_route,
)
from repro.network.topology import Direction, Mesh, network_port_table

MESHES = [
    Mesh(2, 2),
    Mesh(4, 4),
    Mesh(8, 8),
    Mesh(5, 3),
    Mesh(2, 7),
    Mesh(7, 2),
    Mesh(16, 16),
]


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.width}x{m.height}")
class TestFlatTables:
    def test_xy_flat_matches_direct_computation(self, mesh):
        tables = routing_tables(mesh)
        n = mesh.num_nodes
        for cur in range(n):
            for dst in range(n):
                expected = _xy_route_computed(mesh, cur, dst)
                assert tables.xy[cur][dst] is expected
                assert xy_route(mesh, cur, dst) is expected

    def test_productive_flat_matches_direct_computation(self, mesh):
        tables = routing_tables(mesh)
        n = mesh.num_nodes
        for cur in range(n):
            for dst in range(n):
                expected = _productive_ports_computed(mesh, cur, dst)
                assert tables.productive[cur][dst] == expected
                assert tuple(productive_ports(mesh, cur, dst)) == expected

    def test_productive_entries_reduce_distance(self, mesh):
        tables = routing_tables(mesh)
        for cur in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                for port in tables.productive[cur][dst]:
                    assert is_productive(mesh, cur, dst, port)

    def test_dor_port_listed_first(self, mesh):
        tables = routing_tables(mesh)
        for cur in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                productive = tables.productive[cur][dst]
                if cur == dst:
                    assert productive == ()
                    assert tables.xy[cur][dst] is Direction.LOCAL
                else:
                    assert productive[0] is tables.xy[cur][dst]

    def test_fallback_rows_are_nonproductive_ports_in_wiring_order(
        self, mesh
    ):
        tables = routing_tables(mesh)
        ports = network_port_table(mesh)
        n = mesh.num_nodes
        for cur in range(n):
            for dst in range(n):
                productive = set(tables.productive[cur][dst])
                expected = tuple(
                    p for p in ports[cur] if p not in productive
                )
                assert tables.fallback[cur][dst] == expected

    def test_fallback_and_productive_partition_the_ports(self, mesh):
        tables = routing_tables(mesh)
        ports = network_port_table(mesh)
        for cur in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                productive = tables.productive[cur][dst]
                fallback = tables.fallback[cur][dst]
                assert set(productive) | set(fallback) == set(ports[cur])
                assert set(productive) & set(fallback) == set()


def test_tables_are_cached_per_mesh():
    assert routing_tables(Mesh(4, 4)) is routing_tables(Mesh(4, 4))
    assert routing_tables(Mesh(4, 4)) is not routing_tables(Mesh(4, 5))


def test_rows_cover_every_destination():
    mesh = Mesh(5, 3)
    tables = routing_tables(mesh)
    assert tables.num_nodes == mesh.num_nodes
    for rows in (tables.xy, tables.productive, tables.fallback):
        assert len(rows) == mesh.num_nodes
        assert all(len(row) == mesh.num_nodes for row in rows)


def test_port_tuples_are_shared_across_the_mesh():
    """One tuple per sign case, not one per ``(node, dst)`` pair: 9
    productive tuples (signs of dx and dy) and at most 9 x 9 fallback
    tuples (port sets x productive tuples) in a 65 536-pair table."""
    tables = routing_tables(Mesh(16, 16))
    productive = {id(entry) for row in tables.productive for entry in row}
    fallback = {id(entry) for row in tables.fallback for entry in row}
    assert len(productive) <= 9
    assert len(fallback) <= 81
