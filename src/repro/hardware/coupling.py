"""Qubit connectivity graphs (coupling maps) and distance queries.

Dependency note: the graph structure is a plain adjacency-dict per qubit
(insertion-ordered, exactly like the ``networkx.Graph`` adjacency this
module used before the serving-stack refactor).  The shortest-path query
is a faithful port of networkx's bidirectional BFS — same frontier
alternation, same neighbour iteration order, hence the *same* path among
equal-length candidates — so compiled circuits are bit-identical to the
networkx era (pinned by the compiler golden-digest tests, and
cross-checked against networkx itself in ``tests/hardware`` when the
test-only extra is installed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


@dataclass(frozen=True)
class RoutingTables:
    """Precomputed per-topology lookup structures shared by router trials.

    Built once per coupling map (level-3 compilation runs four routing
    trials over the same device; datasets run hundreds) and cached on the
    :class:`CouplingMap` / :class:`~repro.hardware.device.Device`:

    Attributes:
        distance: all-pairs shortest-path matrix (float64).
        adjacency: boolean adjacency matrix (``adjacency[a, b]`` iff edge).
        neighbors: sorted neighbour tuple per qubit.
    """

    distance: np.ndarray
    adjacency: np.ndarray
    neighbors: Tuple[Tuple[int, ...], ...]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat-array encoding (cheap pickling for process pools).

        Same idiom as :meth:`repro.ml.tree.DecisionTreeRegressor.to_arrays`:
        the ragged ``neighbors`` tuple flattens into count/value arrays so
        a worker process receives a few numpy buffers instead of nested
        Python tuples.  Feed to :meth:`from_arrays` to reconstruct.
        """
        counts = np.asarray([len(row) for row in self.neighbors], dtype=np.int32)
        flat = np.asarray(
            [nbr for row in self.neighbors for nbr in row], dtype=np.int32
        )
        return {
            "distance": self.distance,
            "adjacency": self.adjacency,
            "neighbor_counts": counts,
            "neighbors": flat,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "RoutingTables":
        """Rebuild tables from :meth:`to_arrays` output (bit-identical)."""
        counts = np.asarray(arrays["neighbor_counts"]).tolist()
        flat = np.asarray(arrays["neighbors"]).tolist()
        neighbors: List[Tuple[int, ...]] = []
        cursor = 0
        for count in counts:
            neighbors.append(tuple(flat[cursor:cursor + count]))
            cursor += count
        return cls(
            distance=np.asarray(arrays["distance"], dtype=np.float64),
            adjacency=np.asarray(arrays["adjacency"], dtype=bool),
            neighbors=tuple(neighbors),
        )


class CouplingMap:
    """Undirected connectivity graph between physical qubits.

    Two-qubit gates may only be applied along edges.  Provides the
    all-pairs shortest-path distance matrix used by layout and routing.
    """

    def __init__(self, num_qubits: int, edges: Iterable[Edge]):
        if num_qubits < 0:
            raise ValueError(f"num_qubits must be >= 0, got {num_qubits}")
        self.num_qubits = num_qubits
        # Insertion-ordered adjacency dicts: iteration order matches the
        # order edges were supplied, which BFS/path tie-breaking relies on.
        self._adj: List[Dict[int, None]] = [{} for _ in range(num_qubits)]
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(
                    f"edge ({a}, {b}) out of range: qubit indices must lie in "
                    f"[0, {num_qubits - 1}] for a {num_qubits}-qubit coupling map"
                )
            if a == b:
                raise ValueError(
                    f"self-loop on qubit {a}: couplers connect two distinct "
                    f"qubits; drop the ({a}, {a}) entry"
                )
            a, b = int(a), int(b)
            if b in self._adj[a]:
                raise ValueError(
                    f"duplicate edge ({a}, {b}): each coupler must be listed "
                    f"once (edges are undirected, so ({b}, {a}) counts too)"
                )
            self._adj[a][b] = None
            self._adj[b][a] = None
        self._distance: np.ndarray | None = None
        self._median_distances: List[float] | None = None
        self._routing_tables: RoutingTables | None = None
        self._fingerprint: int | None = None

    @property
    def edges(self) -> List[Edge]:
        """Sorted list of (low, high) edges."""
        return sorted(
            (q, nbr)
            for q in range(self.num_qubits)
            for nbr in self._adj[q]
            if q < nbr
        )

    @property
    def edge_set(self) -> FrozenSet[Edge]:
        return frozenset(
            (q, nbr)
            for q in range(self.num_qubits)
            for nbr in self._adj[q]
            if q < nbr
        )

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.num_qubits and b in self._adj[a]

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self._adj[qubit])

    def degree(self, qubit: int) -> int:
        return len(self._adj[qubit])

    def is_connected(self) -> bool:
        return self.num_qubits == 0 or len(self._bfs_reach(0)) == self.num_qubits

    def _bfs_reach(self, start: int) -> Dict[int, int]:
        """BFS levels from ``start`` (insertion-ordered adjacency)."""
        levels = {start: 0}
        queue = deque([start])
        adj = self._adj
        while queue:
            node = queue.popleft()
            next_level = levels[node] + 1
            for nbr in adj[node]:
                if nbr not in levels:
                    levels[nbr] = next_level
                    queue.append(nbr)
        return levels

    def bfs_order(self, start: int) -> List[int]:
        """Qubits in BFS discovery order from ``start``.

        Neighbour expansion follows adjacency insertion order — identical
        to ``list(nx.bfs_tree(graph, start))`` on the equivalent graph
        (the contract :class:`~repro.compiler.passes.layout.LineLayout`
        relies on).  Unreachable qubits are omitted.
        """
        order = [start]
        seen = {start}
        queue = deque([start])
        adj = self._adj
        while queue:
            node = queue.popleft()
            for nbr in adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    order.append(nbr)
                    queue.append(nbr)
        return order

    def connected_components(self) -> List[List[int]]:
        """Connected components, each in BFS order from its lowest qubit."""
        seen: set = set()
        components: List[List[int]] = []
        for start in range(self.num_qubits):
            if start in seen:
                continue
            component = self.bfs_order(start)
            seen.update(component)
            components.append(component)
        return components

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (``inf`` if disconnected)."""
        if self._distance is None:
            dist = np.full((self.num_qubits, self.num_qubits), np.inf)
            for source in range(self.num_qubits):
                for target, length in self._bfs_reach(source).items():
                    dist[source, target] = length
            self._distance = dist
        return self._distance

    def median_distances(self) -> List[float]:
        """Each qubit's median distance to every qubit (cached), the
        centrality term of :class:`~repro.compiler.passes.layout.
        GreedySubgraphLayout`."""
        if self._median_distances is None:
            distance = self.distance_matrix()
            self._median_distances = [
                float(np.median(distance[q])) for q in range(self.num_qubits)
            ]
        return self._median_distances

    def routing_tables(self) -> RoutingTables:
        """Cached :class:`RoutingTables` (distance/adjacency/neighbours)."""
        if self._routing_tables is None:
            adjacency = np.zeros((self.num_qubits, self.num_qubits), dtype=bool)
            for a, b in self.edges:
                adjacency[a, b] = adjacency[b, a] = True
            self._routing_tables = RoutingTables(
                distance=self.distance_matrix(),
                adjacency=adjacency,
                neighbors=tuple(
                    tuple(self.neighbors(q)) for q in range(self.num_qubits)
                ),
            )
        return self._routing_tables

    def fingerprint(self) -> int:
        """Content hash of the topology, used in compile-cache keys.

        It hashes each qubit's neighbours in insertion order, the state
        pickling preserves: BFS and shortest-path tie-breaks read that
        order, so two maps with equal edge sets can route differently.
        """
        if self._fingerprint is None:
            self._fingerprint = hash(tuple(tuple(nbrs) for nbrs in self._adj))
        return self._fingerprint

    def distance(self, a: int, b: int) -> int:
        value = self.distance_matrix()[a, b]
        if np.isinf(value):
            raise ValueError(f"qubits {a} and {b} are disconnected")
        return int(value)

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path from ``a`` to ``b`` (bidirectional BFS).

        Port of networkx's ``bidirectional_shortest_path``: the two
        frontiers alternate (smaller side expands), neighbours are
        scanned in adjacency insertion order, and the first meeting node
        wins — so among equal-length paths this returns exactly the one
        the networkx implementation would.  Routing determinism (and the
        golden compile digests) depend on that tie-break.
        """
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise ValueError(
                f"shortest_path endpoints ({a}, {b}) must be qubits of a "
                f"{self.num_qubits}-qubit coupling map"
            )
        if a == b:
            return [a]
        adj = self._adj
        pred: Dict[int, int | None] = {a: None}
        succ: Dict[int, int | None] = {b: None}
        forward_fringe = [a]
        reverse_fringe = [b]
        meet = None
        while forward_fringe and reverse_fringe and meet is None:
            if len(forward_fringe) <= len(reverse_fringe):
                this_level, forward_fringe = forward_fringe, []
                for node in this_level:
                    for nbr in adj[node]:
                        if nbr not in pred:
                            forward_fringe.append(nbr)
                            pred[nbr] = node
                        if nbr in succ:
                            meet = nbr
                            break
                    if meet is not None:
                        break
            else:
                this_level, reverse_fringe = reverse_fringe, []
                for node in this_level:
                    for nbr in adj[node]:
                        if nbr not in succ:
                            succ[nbr] = node
                            reverse_fringe.append(nbr)
                        if nbr in pred:
                            meet = nbr
                            break
                    if meet is not None:
                        break
        if meet is None:
            raise ValueError(f"no path between qubits {a} and {b}")
        path: List[int] = []
        cursor: int | None = meet
        while cursor is not None:
            path.append(cursor)
            cursor = pred[cursor]
        path.reverse()
        cursor = succ[path[-1]]
        while cursor is not None:
            path.append(cursor)
            cursor = succ[cursor]
        return path

    def adjacent_edges(self, edge: Edge) -> List[Edge]:
        """Edges sharing at least one endpoint with ``edge`` (crosstalk pairs)."""
        a, b = edge
        out = set()
        for q in (a, b):
            for nbr in self._adj[q]:
                candidate = tuple(sorted((q, nbr)))
                if candidate != tuple(sorted(edge)):
                    out.add(candidate)
        return sorted(out)

    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        allowed = set(qubits)
        if not allowed:
            return True
        start = next(iter(qubits))
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nbr in self._adj[node]:
                if nbr in allowed and nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return len(seen) == len(allowed)

    def __getstate__(self):
        # Pickling must preserve per-node neighbour *insertion order* —
        # BFS and shortest-path tie-breaking (hence compiled-circuit
        # bit-identity across process workers) depend on it, so the
        # sorted ``edges`` property must never be used to reconstruct.
        # Precomputed routing tables ship as flat arrays so workers skip
        # the O(n^2) BFS rebuild.
        tables = self._routing_tables
        return {
            "num_qubits": self.num_qubits,
            "adjacency": tuple(tuple(nbrs) for nbrs in self._adj),
            "routing_tables": None if tables is None else tables.to_arrays(),
        }

    def __setstate__(self, state):
        self.num_qubits = state["num_qubits"]
        self._adj = [dict.fromkeys(nbrs) for nbrs in state["adjacency"]]
        tables = state["routing_tables"]
        self._routing_tables = (
            None if tables is None else RoutingTables.from_arrays(tables)
        )
        self._distance = (
            None if self._routing_tables is None
            else self._routing_tables.distance
        )
        self._median_distances = None
        # ``hash()`` is salted per interpreter; recompute lazily instead
        # of shipping a fingerprint that is wrong in the receiving process.
        self._fingerprint = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CouplingMap(qubits={self.num_qubits}, edges={len(self.edges)})"


# ---------------------------------------------------------------------------
# Standard topologies
# ---------------------------------------------------------------------------

def line_map(num_qubits: int) -> CouplingMap:
    """A 1-D chain."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def ring_map(num_qubits: int) -> CouplingMap:
    """A cycle."""
    if num_qubits < 3:
        raise ValueError(
            f"a ring needs at least 3 qubits, got {num_qubits}; "
            f"use line_map for smaller devices"
        )
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(num_qubits, edges)


def grid_map(rows: int, cols: int) -> CouplingMap:
    """A ``rows x cols`` square lattice (IQM 'crystal' style).

    Qubit ``r * cols + c`` sits at row ``r``, column ``c``.
    """
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return CouplingMap(rows * cols, edges)


def star_map(num_qubits: int) -> CouplingMap:
    """Qubit 0 connected to all others."""
    return CouplingMap(num_qubits, [(0, i) for i in range(1, num_qubits)])


def full_map(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity."""
    edges = [
        (i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)
    ]
    return CouplingMap(num_qubits, edges)


def hexagonal_lattice(m: int, n: int) -> Tuple[List[Tuple[int, int]], List[Tuple]]:
    """Node and edge sets of an ``m x n`` hexagonal lattice.

    Reproduces the (non-periodic) node/edge sets of
    ``networkx.hexagonal_lattice_graph(m, n)``: nodes are ``(column,
    row)`` positions on a brick-wall embedding with the two degree-1
    corner nodes removed (cross-checked against networkx in the hardware
    tests).  Nodes are returned sorted; edges sorted by endpoint.
    """
    if m <= 0 or n <= 0:
        return [], []
    rows = 2 * m + 2
    removed = {(0, rows - 1), (n, (rows - 1) * (n % 2))}
    nodes = sorted(
        (i, j)
        for i in range(n + 1)
        for j in range(rows)
        if (i, j) not in removed
    )
    present = set(nodes)
    column_edges = (
        ((i, j), (i, j + 1)) for i in range(n + 1) for j in range(rows - 1)
    )
    row_edges = (
        ((i, j), (i + 1, j))
        for i in range(n)
        for j in range(rows)
        if i % 2 == j % 2
    )
    edges = sorted(
        (a, b)
        for a, b in (*column_edges, *row_edges)
        if a in present and b in present
    )
    return nodes, edges


def heavy_hex_map(distance: int = 3) -> CouplingMap:
    """A small heavy-hex lattice (IBM style), for topology comparisons."""
    nodes, lattice_edges = hexagonal_lattice(distance, distance)
    mapping = {node: index for index, node in enumerate(nodes)}
    edges = [(mapping[a], mapping[b]) for a, b in lattice_edges]
    return CouplingMap(len(mapping), edges)


def grid_positions(rows: int, cols: int) -> Dict[int, Tuple[int, int]]:
    """(row, col) positions of grid qubits, for drawing and crosstalk geometry."""
    return {r * cols + c: (r, c) for r in range(rows) for c in range(cols)}
