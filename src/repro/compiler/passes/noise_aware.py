"""Noise-aware routing and layout (error-aware compilation, Section III).

The paper's motivation cites error-aware compilation methods that consult
calibration data instead of plain gate counts [35].  This module provides
the calibration-aware counterparts of the geometric passes:

* :class:`NoiseAwareLayout` — place heavily interacting program qubits on
  the *highest-fidelity* connected region instead of merely the densest one.
* :class:`NoiseAwareRouting` — SABRE with an effective-distance matrix in
  which every hop is weighted by the negative log-fidelity of its edge, so
  routes prefer good links even when slightly longer.

Both consume the device's *reported* calibration — like any real compiler
would — which makes them exactly as vulnerable to stale calibration data as
the figures of merit the paper studies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Tuple

import numpy as np

from ...circuits.circuit import QuantumCircuit
from ...hardware.calibration import Calibration
from ...hardware.coupling import CouplingMap
from .base import Pass, PropertySet
from .layout import apply_layout
from .routing import SabreRouting


def effective_distance_matrix(
    coupling: CouplingMap, calibration: Calibration
) -> np.ndarray:
    """All-pairs shortest *error-weighted* path lengths.

    Edge weight is ``1 - log(f_edge)`` (a unit hop plus the negative log
    fidelity), so the metric degenerates to plain hop distance on a perfect
    device and stretches low-fidelity links on a real one.

    The all-pairs sweep is a faithful port of networkx's Dijkstra (same
    heap discipline, same insertion-ordered neighbour expansion), so the
    float path sums — and with them any tie-sensitive routing decision
    downstream — are bit-identical to the networkx-backed original.
    """
    num_qubits = coupling.num_qubits
    adjacency: List[Dict[int, float]] = [{} for _ in range(num_qubits)]
    for a, b in coupling.edges:
        fidelity = calibration.edge_fidelity(a, b)
        weight = 1.0 - math.log(max(fidelity, 1e-6))
        adjacency[a][b] = weight
        adjacency[b][a] = weight
    dist = np.full((num_qubits, num_qubits), np.inf)
    for source in range(num_qubits):
        for target, length in _dijkstra_lengths(adjacency, source).items():
            dist[source, target] = length
    return dist


def _dijkstra_lengths(
    adjacency: "List[Dict[int, float]]", source: int
) -> Dict[int, float]:
    """Shortest weighted path lengths from ``source`` (networkx port)."""
    dist: Dict[int, float] = {}
    seen: Dict[int, float] = {source: 0}
    counter = itertools.count()
    fringe: List[Tuple[float, int, int]] = [(0, next(counter), source)]
    while fringe:
        d, _, node = heapq.heappop(fringe)
        if node in dist:
            continue
        dist[node] = d
        for nbr, weight in adjacency[node].items():
            nbr_dist = d + weight
            if nbr not in dist and (nbr not in seen or nbr_dist < seen[nbr]):
                seen[nbr] = nbr_dist
                heapq.heappush(fringe, (nbr_dist, next(counter), nbr))
    return dist


class NoiseAwareRouting(Pass):
    """SABRE routing over the error-weighted distance metric."""

    def __init__(
        self,
        coupling: CouplingMap,
        calibration: Calibration,
        seed: int = 0,
        lookahead: bool = True,
    ):
        self.coupling = coupling
        self.calibration = calibration
        self.seed = seed
        self.lookahead = lookahead

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        # Reuse the SABRE machinery with a patched distance matrix: the
        # router reads coupling.distance_matrix(), so hand it a coupling
        # proxy whose cached matrix is the error-weighted one.
        weighted = _WeightedCouplingView(self.coupling, self.calibration)
        inner = SabreRouting(weighted, seed=self.seed, lookahead=self.lookahead)
        return inner.run(circuit, properties)


class _WeightedCouplingView(CouplingMap):
    """A coupling map whose distance matrix is error-weighted.

    Adjacency (edges, neighbours) is identical to the base map; only the
    metric the router scores swaps with changes.
    """

    def __init__(self, base: CouplingMap, calibration: Calibration):
        super().__init__(base.num_qubits, base.edges)
        self._distance = effective_distance_matrix(base, calibration)

    def fingerprint(self) -> int:
        # Include the weighted metric: this view must never share
        # compile-cache keys with the plain topology it wraps.
        if self._fingerprint is None:
            self._fingerprint = hash((
                self.num_qubits, tuple(self.edges), self._distance.tobytes(),
            ))
        return self._fingerprint


class NoiseAwareLayout(Pass):
    """Greedy layout maximizing the fidelity of the occupied region.

    Program qubits are visited in decreasing interaction weight; each is
    placed on the free physical qubit minimizing the interaction-weighted
    *error distance* to already-placed partners, with a tie-break towards
    qubits with good readout and single-qubit fidelities.
    """

    def __init__(self, coupling: CouplingMap, calibration: Calibration,
                 seed: int = 0):
        self.coupling = coupling
        self.calibration = calibration
        self.seed = seed

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
        order = sorted(range(circuit.num_qubits), key=lambda q: (-weight[q], q))

        distance = effective_distance_matrix(self.coupling, self.calibration)
        quality = {
            q: (
                self.calibration.one_qubit_fidelity[q]
                * self.calibration.readout_fidelity[q]
            )
            for q in range(self.coupling.num_qubits)
        }
        free = set(range(self.coupling.num_qubits))
        layout: Dict[int, int] = {}
        for program_qubit in order:
            partners = [
                (other, count)
                for (a, b), count in interactions.items()
                for other in (
                    (b,) if a == program_qubit
                    else (a,) if b == program_qubit
                    else ()
                )
                if other in layout
            ]
            candidates = sorted(free)
            rng.shuffle(candidates)
            best_phys, best_cost = -1, float("inf")
            for phys in candidates:
                if partners:
                    cost = sum(
                        count * distance[phys, layout[other]]
                        for other, count in partners
                    )
                else:
                    # Seed placement: prefer high-quality, well-connected spots.
                    mean_edge = np.mean([
                        1.0 - math.log(
                            max(self.calibration.edge_fidelity(phys, nbr), 1e-6)
                        )
                        for nbr in self.coupling.neighbors(phys)
                    ]) if self.coupling.neighbors(phys) else 10.0
                    cost = mean_edge - self.coupling.degree(phys)
                cost -= 0.5 * quality[phys]
                if cost < best_cost:
                    best_cost, best_phys = cost, phys
            layout[program_qubit] = best_phys
            free.discard(best_phys)
        return layout


def compile_noise_aware(
    circuit: QuantumCircuit,
    device,
    seed: int = 0,
    keep_final_rz: bool = False,
) -> QuantumCircuit:
    """Full noise-aware pipeline: error-aware layout + routing + synthesis.

    A convenience counterpart of ``compile_circuit`` for the error-aware
    ablation; uses the device's *reported* calibration throughout.
    """
    from ..compile import _prefix, _prepare, _remeasure
    from .base import PassManager
    from .decompose import Decompose
    from .optimization import OptimizationLoop
    from .synthesis import NativeSynthesis, VirtualRZ

    body, measurements = _prepare(circuit, device)
    properties = PropertySet()
    pipeline = PassManager(_prefix() + [
        NoiseAwareLayout(device.coupling, device.reported_calibration, seed=seed),
        NoiseAwareRouting(device.coupling, device.reported_calibration, seed=seed),
        Decompose(),
        OptimizationLoop(),
        NativeSynthesis(),
        VirtualRZ(keep_final_rz=keep_final_rz),
    ])
    compiled = pipeline.run(body, properties)
    _remeasure(
        compiled, measurements, circuit.num_clbits,
        properties.get("final_layout", {}),
    )
    compiled.name = circuit.name
    device.validate_circuit(compiled)
    return compiled
