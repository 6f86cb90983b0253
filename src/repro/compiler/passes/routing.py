"""SWAP routing: make every two-qubit gate act on coupled qubits.

Implements a SABRE-style heuristic router [Li, Ding, Xie, ASPLOS'19] (the
paper's reference [9]): process the dependency DAG's front layer, emit
executable gates, and when stuck insert the SWAP that minimizes a
distance-based cost with a lookahead term and a decay factor that
discourages ping-ponging the same qubits.

The router operates on circuits already expressed over physical qubit
indices (after a layout pass).  It maintains ``tau``: the mapping from
*virtual* wires (the qubit labels in the incoming circuit) to *physical*
qubits, initialized to identity.  The final mapping is stored as
``final_layout`` so later stages (and result interpretation) can undo the
permutation.

Throughput notes: topology lookups (distance matrix, adjacency, neighbour
lists) come from the :class:`~repro.hardware.coupling.RoutingTables` cached
per coupling map, the virtual/physical permutation and its inverse are
maintained incrementally, and candidate SWAPs are scored in one vectorized
batch per decision (:func:`_select_swap`).  Distances are whole numbers, so
the vectorized sums are exact and the selected SWAP is bit-identical to a
scalar scan of the candidates (a frozen copy of that scalar scorer lives in
``tests/compiler/routing_reference.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...circuits.circuit import Instruction, QuantumCircuit
from ...circuits.dag import CircuitDag
from ...hardware.coupling import CouplingMap, RoutingTables
from .base import Pass, PropertySet

_DECAY_RESET_INTERVAL = 5
_DECAY_STEP = 0.001
_LOOKAHEAD_WEIGHT = 0.5
_LOOKAHEAD_SIZE = 20


class SabreRouting(Pass):
    """Heuristic SWAP insertion with lookahead (SABRE-style)."""

    reads = ("initial_layout",)

    def __init__(
        self,
        coupling: CouplingMap,
        seed: int = 0,
        lookahead: bool = True,
        swap_gate: str = "swap",
        lookahead_size: int = _LOOKAHEAD_SIZE,
    ):
        self.coupling = coupling
        self.seed = seed
        self.lookahead = lookahead
        if swap_gate not in ("swap", "cx"):
            raise ValueError("swap_gate must be 'swap' or 'cx'")
        self.swap_gate = swap_gate
        self.lookahead_size = int(lookahead_size)

    def cache_key(self) -> Optional[Hashable]:
        return (
            "SabreRouting",
            self.coupling.fingerprint(),
            self.seed,
            self.lookahead,
            self.swap_gate,
            self.lookahead_size,
        )

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        routed, final_virtual_to_phys = route_circuit(
            circuit,
            self.coupling,
            seed=self.seed,
            lookahead=self.lookahead,
            swap_gate=self.swap_gate,
            lookahead_size=self.lookahead_size,
        )
        initial = properties.get("initial_layout")
        if initial is not None:
            # Compose: program qubit -> initial physical (= virtual wire)
            # -> final physical.
            properties["final_layout"] = {
                prog: final_virtual_to_phys[phys] for prog, phys in initial.items()
            }
        else:
            properties["final_layout"] = dict(final_virtual_to_phys)
        properties["routing_swaps"] = routed.metadata.get("routing_swaps", 0)
        return routed


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    seed: int = 0,
    lookahead: bool = True,
    swap_gate: str = "swap",
    tables: Optional[RoutingTables] = None,
    lookahead_size: int = _LOOKAHEAD_SIZE,
) -> Tuple[QuantumCircuit, Dict[int, int]]:
    """Route ``circuit`` onto ``coupling``.

    Returns ``(routed_circuit, final_mapping)`` where ``final_mapping`` sends
    each virtual wire of the input circuit to the physical qubit holding it
    after all inserted SWAPs.  Measurements are emitted on the physical qubit
    currently holding the measured virtual wire, so counts keep their
    program-level meaning.

    ``lookahead_size`` bounds how many upcoming two-qubit gates feed the
    lookahead cost term; ``0`` (or ``lookahead=False``) disables it.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit wider than coupling map")
    if tables is None:
        tables = coupling.routing_tables()
    rng = np.random.default_rng(seed)
    dag = CircuitDag(circuit)
    distance = tables.distance
    adjacency = tables.adjacency
    neighbors = tables.neighbors
    num_qubits = coupling.num_qubits

    # tau: virtual wire -> physical qubit, with its inverse maintained
    # incrementally (a rebuilt inverse dict per SWAP dominated the old
    # router's profile).
    tau: List[int] = list(range(num_qubits))
    phys_to_virt: List[int] = list(range(num_qubits))
    out = QuantumCircuit(
        num_qubits, circuit.num_clbits,
        name=circuit.name, global_phase=circuit.global_phase,
        metadata=dict(circuit.metadata),
    )

    done: Set[int] = set()
    remaining_successors = {node.index: set(node.predecessors) for node in dag.nodes}
    swaps_inserted = 0
    decay = np.ones(num_qubits)
    steps_since_reset = 0

    def executable(instruction: Instruction) -> bool:
        if instruction.num_qubits < 2 or not instruction.is_unitary:
            return True
        return adjacency[
            tau[instruction.qubits[0]], tau[instruction.qubits[1]]
        ]

    # Measurements are deferred and emitted on the *final* mapping: a swap
    # inserted after an inline measure would otherwise re-use the measured
    # physical qubit and corrupt the counts' meaning.
    deferred_measures: List[Instruction] = []

    def emit(instruction: Instruction) -> None:
        if instruction.name == "measure":
            deferred_measures.append(instruction)
            return
        mapped_qubits = tuple(tau[q] for q in instruction.qubits)
        if mapped_qubits == instruction.qubits:
            # Identity-mapped (common before the first SWAP): reuse.
            out.instructions.append(instruction)
            return
        out.instructions.append(
            Instruction(
                instruction.name,
                mapped_qubits,
                instruction.params,
                instruction.clbits,
            )
        )

    front = [n.index for n in dag.nodes if not n.predecessors]

    while front:
        progressed = True
        while progressed:
            progressed = False
            next_front: List[int] = []
            for index in front:
                node = dag.nodes[index]
                if executable(node.instruction):
                    emit(node.instruction)
                    done.add(index)
                    progressed = True
                    for succ in node.successors:
                        remaining_successors[succ].discard(index)
                        if not remaining_successors[succ]:
                            next_front.append(succ)
                else:
                    next_front.append(index)
            front = next_front
        if not front:
            break

        # Stuck: every front gate is a non-adjacent 2q gate. Pick a SWAP.
        front_gates = [
            dag.nodes[i].instruction for i in front
            if dag.nodes[i].instruction.num_qubits == 2
        ]
        lookahead_gates = (
            _collect_lookahead(dag, front, done, size=lookahead_size)
            if lookahead and lookahead_size > 0
            else []
        )

        candidates = _candidate_swaps(front_gates, tau, neighbors)
        if not candidates:
            raise RuntimeError("router stuck with no candidate swaps")
        order = sorted(candidates)
        rng.shuffle(order)
        a, b = _select_swap(
            order, front_gates, lookahead_gates, tau, distance, decay
        )
        _apply_swap(tau, phys_to_virt, a, b)
        if swap_gate == "swap":
            out.instructions.append(Instruction("swap", (a, b)))
        else:
            out.cx(a, b).cx(b, a).cx(a, b)
        swaps_inserted += 1
        decay[a] += _DECAY_STEP
        decay[b] += _DECAY_STEP
        steps_since_reset += 1
        if steps_since_reset >= _DECAY_RESET_INTERVAL:
            decay[:] = 1.0
            steps_since_reset = 0

    for instruction in deferred_measures:
        out.instructions.append(
            Instruction(
                "measure",
                (tau[instruction.qubits[0]],),
                (),
                instruction.clbits,
            )
        )
    out.metadata["routing_swaps"] = swaps_inserted
    final_mapping = {virt: tau[virt] for virt in range(num_qubits)}
    return out, final_mapping


def _apply_swap(
    tau: List[int], phys_to_virt: List[int], phys_a: int, phys_b: int
) -> None:
    """Swap the virtual wires sitting on physical qubits ``a`` and ``b``,
    keeping ``tau`` (virtual -> physical) and its inverse up to date."""
    va, vb = phys_to_virt[phys_a], phys_to_virt[phys_b]
    tau[va], tau[vb] = phys_b, phys_a
    phys_to_virt[phys_a], phys_to_virt[phys_b] = vb, va


def _candidate_swaps(
    front_gates: Sequence[Instruction],
    tau: Sequence[int],
    neighbors: Sequence[Sequence[int]],
) -> Set[Tuple[int, int]]:
    """Hardware edges touching any qubit involved in a blocked front gate."""
    physical_qubits: Set[int] = set()
    for gate in front_gates:
        physical_qubits.update(tau[q] for q in gate.qubits)
    swaps: Set[Tuple[int, int]] = set()
    for phys in physical_qubits:
        for nbr in neighbors[phys]:
            swaps.add((phys, nbr) if phys < nbr else (nbr, phys))
    return swaps


def _collect_lookahead(
    dag: CircuitDag,
    front: Sequence[int],
    done: Set[int],
    size: int = _LOOKAHEAD_SIZE,
) -> List[Instruction]:
    """The next ``size`` two-qubit gates beyond the front layer."""
    seen: Set[int] = set(front)
    queue = deque(front)
    collected: List[Instruction] = []
    while queue and len(collected) < size:
        index = queue.popleft()
        for succ in sorted(dag.nodes[index].successors):
            if succ in seen or succ in done:
                continue
            seen.add(succ)
            queue.append(succ)
            instruction = dag.nodes[succ].instruction
            if instruction.is_unitary and instruction.num_qubits == 2:
                collected.append(instruction)
    return collected


def _select_swap(
    order: Sequence[Tuple[int, int]],
    front_gates: Sequence[Instruction],
    lookahead_gates: Sequence[Instruction],
    tau: Sequence[int],
    distance: np.ndarray,
    decay: np.ndarray,
) -> Tuple[int, int]:
    """Lowest-cost candidate SWAP, scored for all candidates in one batch.

    Scores every candidate against every front/lookahead gate with array
    arithmetic.  On hop-count metrics (every :func:`compile_circuit`
    level) the distance sums are over whole numbers — exact in float64 —
    so the scores, and therefore the selected SWAP, are bit-identical to
    scanning candidates with a scalar scorer (the frozen one in
    ``tests/compiler/routing_reference.py``); ties resolve
    to the first candidate in ``order``, matching the scalar scan's
    strict-less-than update rule.  On real-valued metrics (the
    noise-aware router's error-weighted distances) numpy's pairwise
    summation may differ from the scalar fold in the last ulp; selection
    stays deterministic, but an exact-tie could resolve differently than
    the scalar scan.
    """
    cand = np.asarray(order, dtype=np.intp)
    a = cand[:, 0:1]
    b = cand[:, 1:2]

    def mapped_distance(gates: Sequence[Instruction]) -> np.ndarray:
        phys = np.array(
            [(tau[g.qubits[0]], tau[g.qubits[1]]) for g in gates], dtype=np.intp
        )
        pa, pb = phys[:, 0][None, :], phys[:, 1][None, :]
        # Under candidate swap (a, b): position a maps to b and vice versa.
        ma = np.where(pa == a, b, np.where(pa == b, a, pa))
        mb = np.where(pb == a, b, np.where(pb == b, a, pb))
        return distance[ma, mb].sum(axis=1)

    front_cost = mapped_distance(front_gates) / max(len(front_gates), 1)
    if lookahead_gates:
        look_cost = mapped_distance(lookahead_gates) * (
            _LOOKAHEAD_WEIGHT / len(lookahead_gates)
        )
    else:
        look_cost = 0.0
    scores = np.maximum(decay[cand[:, 0]], decay[cand[:, 1]]) * (
        front_cost + look_cost
    )
    return order[int(np.argmin(scores))]


class PathRouting(Pass):
    """Naive router: swap along the shortest path for each blocked gate.

    Serves as the low-optimization-level baseline (and as a comparison point
    in the compiler benchmarks).
    """

    reads = ("initial_layout",)

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def cache_key(self) -> Optional[Hashable]:
        return ("PathRouting", self.coupling.fingerprint())

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        routed, final_mapping = self.route(circuit)
        initial = properties.get("initial_layout")
        if initial is not None:
            properties["final_layout"] = {
                prog: final_mapping[phys] for prog, phys in initial.items()
            }
        else:
            properties["final_layout"] = dict(final_mapping)
        properties["routing_swaps"] = routed.metadata.get("routing_swaps", 0)
        return routed

    def route(self, circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[int, int]]:
        coupling = self.coupling
        tau = list(range(coupling.num_qubits))
        phys_to_virt = list(range(coupling.num_qubits))
        out = QuantumCircuit(
            coupling.num_qubits, circuit.num_clbits,
            name=circuit.name, global_phase=circuit.global_phase,
            metadata=dict(circuit.metadata),
        )
        swaps = 0
        deferred_measures = []
        for instruction in circuit.instructions:
            if instruction.name == "measure":
                deferred_measures.append(instruction)
                continue
            if instruction.is_unitary and instruction.num_qubits == 2:
                a, b = tau[instruction.qubits[0]], tau[instruction.qubits[1]]
                if not coupling.has_edge(a, b):
                    path = coupling.shortest_path(a, b)
                    for step in range(len(path) - 2):
                        x, y = path[step], path[step + 1]
                        out.append("swap", (x, y))
                        _apply_swap(tau, phys_to_virt, x, y)
                        swaps += 1
            out.instructions.append(
                Instruction(
                    instruction.name,
                    tuple(tau[q] for q in instruction.qubits),
                    instruction.params,
                    instruction.clbits,
                )
            )
        for instruction in deferred_measures:
            out.instructions.append(
                Instruction(
                    "measure",
                    (tau[instruction.qubits[0]],),
                    (),
                    instruction.clbits,
                )
            )
        out.metadata["routing_swaps"] = swaps
        return out, dict(enumerate(tau))
