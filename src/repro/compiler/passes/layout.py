"""Initial qubit mapping (the "qubit mapping" task of Section II-A).

A layout is an injective dict ``program qubit -> physical qubit``.  The
pass embeds the program circuit into the device by relabelling qubits and
widening the register to the device size; routing later repairs any
remaining non-adjacent interactions.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from ...circuits.circuit import QuantumCircuit
from ...hardware.coupling import CouplingMap
from .base import Pass, PropertySet


def apply_layout(
    circuit: QuantumCircuit, layout: Dict[int, int], num_physical: int
) -> QuantumCircuit:
    """Re-express ``circuit`` over physical qubits according to ``layout``."""
    if len(set(layout.values())) != len(layout):
        raise ValueError("layout is not injective")
    missing = [q for q in range(circuit.num_qubits) if q not in layout]
    if missing:
        raise ValueError(f"layout misses program qubits {missing}")
    out = circuit.remap_qubits(layout, num_qubits=num_physical)
    out.metadata = dict(circuit.metadata)
    return out


class TrivialLayout(Pass):
    """Map program qubit ``i`` to physical qubit ``i``."""

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def cache_key(self) -> Optional[Hashable]:
        return ("TrivialLayout", self.coupling.fingerprint())

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        layout = {q: q for q in range(circuit.num_qubits)}
        properties["initial_layout"] = layout
        return apply_layout(circuit, layout, self.coupling.num_qubits)


class GreedySubgraphLayout(Pass):
    """Map heavily interacting program qubits onto well-connected hardware.

    Greedy construction: program qubits are visited in decreasing
    interaction weight; each is placed on the free physical qubit that
    minimizes the distance-weighted cost to already-placed partners,
    breaking ties by hardware degree (denser regions first).  This is the
    classic interaction-graph heuristic used by practical compilers.
    """

    def __init__(self, coupling: CouplingMap, seed: int = 0):
        self.coupling = coupling
        self.seed = seed

    def cache_key(self) -> Optional[Hashable]:
        return ("GreedySubgraphLayout", self.coupling.fingerprint(), self.seed)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        layout = self.select_layout(circuit)
        properties["initial_layout"] = layout
        return apply_layout(circuit, layout, self.coupling.num_qubits)

    def select_layout(self, circuit: QuantumCircuit) -> Dict[int, int]:
        rng = np.random.default_rng(self.seed)
        interactions = circuit.two_qubit_interactions()
        weight: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
        for (a, b), count in interactions.items():
            weight[a] += count
            weight[b] += count

        program_order: List[int] = sorted(
            range(circuit.num_qubits), key=lambda q: (-weight[q], q)
        )
        distance = self.coupling.distance_matrix()
        median_distance = self.coupling.median_distances()
        degree = [self.coupling.degree(q) for q in range(self.coupling.num_qubits)]
        free = set(range(self.coupling.num_qubits))
        layout: Dict[int, int] = {}

        for program_qubit in program_order:
            partners = [
                (other, count)
                for (a, b), count in interactions.items()
                for other in ((b,) if a == program_qubit else (a,) if b == program_qubit else ())
                if other in layout
            ]
            best_phys, best_cost = -1, float("inf")
            candidates = sorted(free)
            rng.shuffle(candidates)
            for phys in candidates:
                if partners:
                    cost = sum(
                        count * distance[phys, layout[other]]
                        for other, count in partners
                    )
                else:
                    # No placed partners yet: prefer central, high-degree spots.
                    cost = -degree[phys] + 0.01 * median_distance[phys]
                # Prefer denser neighbourhoods on ties.
                cost -= 1e-3 * degree[phys]
                if cost < best_cost:
                    best_cost, best_phys = cost, phys
            layout[program_qubit] = best_phys
            free.discard(best_phys)
        return layout


class LineLayout(Pass):
    """Map program qubits along a BFS path of the hardware graph.

    Useful for nearest-neighbour-friendly algorithms (e.g. linear-entangled
    ansatz circuits) and as a cheap deterministic alternative.
    """

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def cache_key(self) -> Optional[Hashable]:
        return ("LineLayout", self.coupling.fingerprint())

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        order = self._bfs_path()
        if circuit.num_qubits > len(order):
            raise ValueError("circuit wider than device")
        layout = {i: order[i] for i in range(circuit.num_qubits)}
        properties["initial_layout"] = layout
        return apply_layout(circuit, layout, self.coupling.num_qubits)

    def _bfs_path(self) -> List[int]:
        start = min(
            range(self.coupling.num_qubits),
            key=lambda q: (self.coupling.degree(q), q),
        )
        return self.coupling.bfs_order(start)
