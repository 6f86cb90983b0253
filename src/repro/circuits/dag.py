"""Dependency DAG over circuit instructions.

The DAG captures the partial order induced by shared qubits/clbits.  It is
the workhorse behind routing (front-layer iteration), scheduling (ASAP
levels), optimization passes (neighbour queries), and several circuit
features (critical path composition, layer parallelism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .circuit import Instruction, QuantumCircuit


@dataclass
class DagNode:
    """One instruction node plus its dependency links."""

    index: int
    instruction: Instruction
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)


class CircuitDag:
    """Directed acyclic dependency graph of a circuit's instructions.

    Barriers participate as ordering constraints: a barrier depends on every
    prior operation on its qubits and blocks every later one.
    """

    def __init__(self, circuit: QuantumCircuit):
        self.circuit = circuit
        self.nodes: List[DagNode] = []
        last_on_qubit: Dict[int, int] = {}
        last_on_clbit: Dict[int, int] = {}
        for index, instruction in enumerate(circuit.instructions):
            node = DagNode(index, instruction)
            deps: Set[int] = set()
            for q in instruction.qubits:
                if q in last_on_qubit:
                    deps.add(last_on_qubit[q])
            for c in instruction.clbits:
                if c in last_on_clbit:
                    deps.add(last_on_clbit[c])
            node.predecessors = deps
            for d in deps:
                self.nodes[d].successors.add(index)
            self.nodes.append(node)
            for q in instruction.qubits:
                last_on_qubit[q] = index
            for c in instruction.clbits:
                last_on_clbit[c] = index

    def __len__(self) -> int:
        return len(self.nodes)

    def front_layer(self, done: Set[int]) -> List[DagNode]:
        """Nodes whose predecessors are all in ``done`` and not themselves done."""
        return [
            node for node in self.nodes
            if node.index not in done and node.predecessors <= done
        ]

    def layers(self, include_directives: bool = False) -> List[List[Instruction]]:
        """Greedy ASAP layering: each layer holds mutually independent ops.

        Returns a list of layers; the number of layers equals the circuit
        depth (when directives are excluded, barriers do not create layers
        but still order operations).
        """
        level: Dict[int, int] = {}
        layers: List[List[Instruction]] = []
        for node in self.nodes:
            instruction = node.instruction
            pred_level = -1
            for p in node.predecessors:
                pred_level = max(pred_level, level[p])
            is_directive = instruction.name == "barrier" or (
                not include_directives and instruction.name == "measure"
            )
            if instruction.name == "barrier":
                # Barriers constrain ordering but occupy no layer themselves.
                level[node.index] = pred_level
                continue
            if not include_directives and instruction.name == "measure":
                level[node.index] = pred_level
                continue
            my_level = pred_level + 1
            level[node.index] = my_level
            while len(layers) <= my_level:
                layers.append([])
            layers[my_level].append(instruction)
        return layers

    def asap_levels(self) -> Dict[int, int]:
        """ASAP level for every instruction index (barriers get level of deps)."""
        level: Dict[int, int] = {}
        for node in self.nodes:
            pred_level = -1
            for p in node.predecessors:
                pred_level = max(pred_level, level[p])
            if node.instruction.name == "barrier":
                level[node.index] = pred_level
            else:
                level[node.index] = pred_level + 1
        return level

    def critical_path(self) -> List[int]:
        """Indices of instructions along one longest dependency chain."""
        if not self.nodes:
            return []
        length: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        best_end, best_len = -1, -1
        for node in self.nodes:
            if node.instruction.name == "barrier":
                continue
            node_len = 1
            node_parent = -1
            for p in node.predecessors:
                p_eff = p
                # Skip through barriers to the real predecessor chain length.
                if self.nodes[p].instruction.name == "barrier":
                    cand = length.get(p, 0)
                else:
                    cand = length.get(p_eff, 0)
                if cand + 1 > node_len:
                    node_len = cand + 1
                    node_parent = p_eff
            length[node.index] = node_len
            parent[node.index] = node_parent
            if node_len > best_len:
                best_len, best_end = node_len, node.index
        # Barriers need a length too, for chains crossing them.
        path: List[int] = []
        cursor = best_end
        while cursor != -1:
            if self.nodes[cursor].instruction.name != "barrier":
                path.append(cursor)
            cursor = parent.get(cursor, -1)
        return list(reversed(path))

    def qubit_dependencies(self) -> Dict[int, List[int]]:
        """For each qubit, the ordered list of instruction indices touching it."""
        per_qubit: Dict[int, List[int]] = {}
        for node in self.nodes:
            if node.instruction.name == "barrier":
                continue
            for q in node.instruction.qubits:
                per_qubit.setdefault(q, []).append(node.index)
        return per_qubit


def circuit_layers(circuit: QuantumCircuit) -> List[List[Instruction]]:
    """Convenience wrapper: ASAP layers of a circuit."""
    return CircuitDag(circuit).layers()


def parallel_groups(
    circuit: QuantumCircuit, include_measure: bool = True
) -> List[List[Instruction]]:
    """Groups of operations that execute simultaneously under ASAP layering.

    Unlike :meth:`CircuitDag.layers`, measurements occupy layers here because
    the executor models them as timed operations.
    """
    dag = CircuitDag(circuit)
    level: Dict[int, int] = {}
    groups: List[List[Instruction]] = []
    for node in dag.nodes:
        pred_level = -1
        for p in node.predecessors:
            pred_level = max(pred_level, level[p])
        if node.instruction.name == "barrier" or (
            node.instruction.name == "measure" and not include_measure
        ):
            level[node.index] = pred_level
            continue
        my_level = pred_level + 1
        level[node.index] = my_level
        while len(groups) <= my_level:
            groups.append([])
        groups[my_level].append(node.instruction)
    return groups


def interaction_pairs(circuit: QuantumCircuit) -> Set[Tuple[int, int]]:
    """Distinct (sorted) qubit pairs coupled by any multi-qubit gate."""
    return set(circuit.two_qubit_interactions())
