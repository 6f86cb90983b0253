"""Unit tests for coupling maps."""

import numpy as np
import pytest

from repro.hardware.coupling import (
    CouplingMap,
    full_map,
    grid_map,
    grid_positions,
    heavy_hex_map,
    line_map,
    ring_map,
    star_map,
)


def test_line_map():
    cm = line_map(4)
    assert cm.edges == [(0, 1), (1, 2), (2, 3)]
    assert cm.distance(0, 3) == 3
    assert cm.is_connected()


def test_ring_map():
    cm = ring_map(6)
    assert len(cm.edges) == 6
    assert cm.distance(0, 3) == 3
    assert cm.distance(0, 5) == 1


def test_grid_map_structure():
    cm = grid_map(4, 5)
    assert cm.num_qubits == 20
    # Interior qubit has 4 neighbours, corner has 2.
    assert cm.degree(6) == 4
    assert cm.degree(0) == 2
    assert len(cm.edges) == 31  # 4*4 + 3*5
    assert cm.is_connected()


def test_grid_positions():
    pos = grid_positions(2, 3)
    assert pos[0] == (0, 0)
    assert pos[5] == (1, 2)


def test_star_and_full():
    star = star_map(5)
    assert star.degree(0) == 4
    assert star.distance(1, 2) == 2
    full = full_map(4)
    assert len(full.edges) == 6
    assert full.distance(0, 3) == 1


def test_heavy_hex_is_connected():
    cm = heavy_hex_map(2)
    assert cm.is_connected()
    assert max(cm.degree(q) for q in range(cm.num_qubits)) <= 3


def test_distance_matrix_symmetry():
    cm = grid_map(3, 3)
    dist = cm.distance_matrix()
    assert np.allclose(dist, dist.T)
    assert np.all(np.diag(dist) == 0)


def test_shortest_path_endpoints():
    cm = grid_map(3, 3)
    path = cm.shortest_path(0, 8)
    assert path[0] == 0
    assert path[-1] == 8
    assert len(path) == cm.distance(0, 8) + 1
    for a, b in zip(path, path[1:]):
        assert cm.has_edge(a, b)


def test_adjacent_edges():
    cm = grid_map(2, 3)
    # Edge (0,1); adjacent edges share a qubit with it.
    adjacent = cm.adjacent_edges((0, 1))
    assert (0, 1) not in adjacent
    assert all(0 in e or 1 in e for e in adjacent)
    assert (1, 2) in adjacent


def test_neighbors_sorted():
    cm = grid_map(3, 3)
    assert cm.neighbors(4) == [1, 3, 5, 7]


def test_subgraph_connectivity():
    cm = line_map(5)
    assert cm.subgraph_is_connected([1, 2, 3])
    assert not cm.subgraph_is_connected([0, 4])


def test_invalid_edges_rejected():
    with pytest.raises(ValueError, match="out of range"):
        CouplingMap(2, [(0, 5)])
    with pytest.raises(ValueError, match="self-loop"):
        CouplingMap(2, [(1, 1)])


def test_disconnected_distance_raises():
    cm = CouplingMap(4, [(0, 1), (2, 3)])
    assert not cm.is_connected()
    with pytest.raises(ValueError, match="disconnected"):
        cm.distance(0, 3)


def test_pickle_preserves_neighbor_insertion_order():
    """Adjacency iteration order is load-bearing (BFS and shortest-path
    tie-breaking follow it), so pickling must not normalise it."""
    import pickle

    edges = [(4, 2), (0, 4), (3, 0), (2, 0), (1, 3), (4, 1)]
    cm = CouplingMap(5, edges)
    clone = pickle.loads(pickle.dumps(cm))
    assert clone.edges == cm.edges
    for qubit in range(5):
        assert clone.neighbors(qubit) == cm.neighbors(qubit)
    for start in range(5):
        assert clone.bfs_order(start) == cm.bfs_order(start)
    for a in range(5):
        for b in range(5):
            assert clone.shortest_path(a, b) == cm.shortest_path(a, b)
    assert clone.fingerprint() == cm.fingerprint()


def test_fingerprint_reads_neighbour_insertion_order():
    # On a 4-cycle both paths from 0 to 2 are shortest; the tie-break
    # follows insertion order, so equal edge sets route differently.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    cm = CouplingMap(4, edges)
    flipped = CouplingMap(4, edges[::-1])
    assert cm.edges == flipped.edges
    assert cm.shortest_path(0, 2) != flipped.shortest_path(0, 2)
    assert cm.fingerprint() != flipped.fingerprint()
    assert CouplingMap(4, edges).fingerprint() == cm.fingerprint()


def test_pickle_carries_routing_tables():
    cm = grid_map(3, 3)
    tables = cm.routing_tables()
    import pickle

    clone = pickle.loads(pickle.dumps(cm))
    cloned_tables = clone.routing_tables()
    assert np.array_equal(cloned_tables.distance, tables.distance)
    assert np.array_equal(cloned_tables.adjacency, tables.adjacency)


def test_routing_tables_array_round_trip():
    from repro.hardware.coupling import RoutingTables

    tables = heavy_hex_map(3).routing_tables()
    rebuilt = RoutingTables.from_arrays(tables.to_arrays())
    assert np.array_equal(rebuilt.distance, tables.distance)
    assert np.array_equal(rebuilt.adjacency, tables.adjacency)
    assert rebuilt.neighbors == tables.neighbors
