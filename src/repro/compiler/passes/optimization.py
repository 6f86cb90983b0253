"""Circuit optimization passes (Section II-A "circuit optimization").

Three complementary passes:

* :class:`Merge1QRuns` — collapse every maximal run of single-qubit gates on
  a wire into one ``u`` gate (dropped entirely if it multiplies to identity).
* :class:`CancelInversePairs` — remove adjacent self-inverse two-qubit gate
  pairs (``cx cx``, ``cz cz``, ``swap swap``), looking through operations
  that commute on the connecting wires.
* :class:`RemoveIdentities` — drop ``id`` gates and zero-angle rotations.
"""

from __future__ import annotations

import cmath
from typing import Dict, Hashable, List, Optional

import numpy as np

from ...circuits.circuit import Instruction, QuantumCircuit
from ...circuits.gates import DIAGONAL_GATES, cached_gate_matrix
from ..unitary_math import u_params_cached
from .base import Pass, PropertySet

_ZERO_ANGLE_GATES = frozenset({"rx", "ry", "rz", "p", "rxx", "ryy", "rzz",
                               "rzx", "cp", "crx", "cry", "crz"})


class RemoveIdentities(Pass):
    """Drop identity gates and rotations by (multiples of) zero."""

    def __init__(self, atol: float = 1e-10):
        self.atol = atol

    def cache_key(self) -> Optional[Hashable]:
        return ("RemoveIdentities", self.atol)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        out = circuit.copy()
        kept: List[Instruction] = []
        for instruction in circuit.instructions:
            if instruction.name == "id":
                continue
            if (
                instruction.name in _ZERO_ANGLE_GATES
                and abs(instruction.params[0]) < self.atol
            ):
                continue
            kept.append(instruction)
        out.instructions = kept
        return out


class Merge1QRuns(Pass):
    """Merge maximal single-qubit gate runs into one ``u`` gate per run.

    The merged matrix is decomposed back into a ``u`` (plus global phase);
    identity products vanish entirely.  ``prx``/``rz`` native gates also
    merge, so the pass can run both before and after synthesis.
    """

    def __init__(self, atol: float = 1e-10):
        self.atol = atol

    def cache_key(self) -> Optional[Hashable]:
        return ("Merge1QRuns", self.atol)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        out = QuantumCircuit(
            circuit.num_qubits, circuit.num_clbits,
            name=circuit.name, global_phase=circuit.global_phase,
            metadata=dict(circuit.metadata),
        )
        pending: Dict[int, Optional[np.ndarray]] = {
            q: None for q in range(circuit.num_qubits)
        }

        def flush(qubit: int) -> None:
            matrix = pending[qubit]
            pending[qubit] = None
            if matrix is None:
                return
            # Identity up to a global phase: absorb the phase and vanish.
            if abs(matrix[0, 1]) < self.atol and abs(matrix[1, 0]) < self.atol \
                    and abs(matrix[0, 0] - matrix[1, 1]) < self.atol:
                out.global_phase += cmath.phase(matrix[0, 0])
                return
            theta, phi, lam, phase = u_params_cached(matrix)
            out.global_phase += phase
            out.instructions.append(
                Instruction("u", (qubit,), (theta, phi, lam))
            )

        for instruction in circuit.instructions:
            if instruction.is_unitary and instruction.num_qubits == 1:
                matrix = cached_gate_matrix(instruction.name, instruction.params)
                q = instruction.qubits[0]
                pending[q] = (
                    matrix if pending[q] is None else matrix @ pending[q]
                )
                continue
            for q in instruction.qubits:
                flush(q)
            out.instructions.append(instruction)
        for q in range(circuit.num_qubits):
            flush(q)
        return out


#: Per-wire commutation classes used by :class:`CancelInversePairs`.
#: A gate commutes "on a wire" if exchanging it with the candidate two-qubit
#: gate across that wire leaves the circuit's unitary unchanged.
_X_AXIS_GATES = frozenset({"x", "sx", "sxdg", "rx"})


def _commutes_on_wire(instruction: Instruction, wire: int, gate_name: str,
                      wire_role: str) -> bool:
    """Whether ``instruction`` commutes with ``gate_name`` across ``wire``.

    ``wire_role`` is "control", "target" (for cx) or "either" (for cz/swap).
    Only single-qubit bystanders are considered; anything else blocks.
    """
    if not instruction.is_unitary or instruction.num_qubits != 1:
        return False
    name = instruction.name
    if gate_name == "cz":
        return name in DIAGONAL_GATES
    if gate_name == "cx":
        if wire_role == "control":
            return name in DIAGONAL_GATES
        return name in _X_AXIS_GATES
    return False  # swap: nothing commutes wire-wise


class CancelInversePairs(Pass):
    """Cancel adjacent self-inverse two-qubit pairs (commutation-aware).

    For every ``cx``/``cz``/``swap``, look backwards along both wires.  If the
    previous blocking operation on *both* wires is an identical gate on the
    same qubits (in a compatible orientation), the pair annihilates.  Gates
    that commute across the relevant wire (diagonals on a CZ wire or a CX
    control, X-axis rotations on a CX target) are skipped during the search.
    """

    def cache_key(self) -> Optional[Hashable]:
        return ("CancelInversePairs",)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        instructions = list(circuit.instructions)
        alive = [True] * len(instructions)
        # last_index[q]: index of the most recent alive op touching qubit q.
        changed = True
        while changed:
            changed = False
            last_ops: Dict[int, List[int]] = {
                q: [] for q in range(circuit.num_qubits)
            }
            for index, instruction in enumerate(instructions):
                if not alive[index]:
                    continue
                if instruction.name in ("cx", "cz", "swap"):
                    partner = self._find_partner(
                        instructions, alive, last_ops, instruction, index
                    )
                    if partner is not None:
                        alive[index] = alive[partner] = False
                        changed = True
                        continue
                for q in instruction.qubits:
                    last_ops[q].append(index)
        out = circuit.copy()
        out.instructions = [
            ins for index, ins in enumerate(instructions) if alive[index]
        ]
        return out

    @staticmethod
    def _find_partner(
        instructions: List[Instruction],
        alive: List[bool],
        last_ops: Dict[int, List[int]],
        instruction: Instruction,
        index: int,
    ) -> Optional[int]:
        name = instruction.name
        qubits = instruction.qubits
        candidates: List[Optional[int]] = []
        for wire in qubits:
            if name == "cx":
                role = "control" if wire == qubits[0] else "target"
            else:
                role = "either"
            found: Optional[int] = None
            for prev in reversed(last_ops[wire]):
                if not alive[prev]:
                    continue
                prev_ins = instructions[prev]
                if prev_ins.name == name and _same_pair(prev_ins, instruction):
                    found = prev
                    break
                if _commutes_on_wire(prev_ins, wire, name, role):
                    continue
                break
            candidates.append(found)
        if candidates[0] is not None and all(
            c == candidates[0] for c in candidates
        ):
            return candidates[0]
        return None


def _same_pair(a: Instruction, b: Instruction) -> bool:
    """Whether two 2q gates cancel: cx needs same orientation, cz/swap not."""
    if a.name == "cx":
        return a.qubits == b.qubits
    return set(a.qubits) == set(b.qubits)


class OptimizationLoop(Pass):
    """Run {RemoveIdentities, Merge1QRuns, CancelInversePairs} to fixpoint."""

    def __init__(self, max_iterations: int = 8):
        self.max_iterations = max_iterations
        self._passes = [RemoveIdentities(), Merge1QRuns(), CancelInversePairs()]

    def cache_key(self) -> Optional[Hashable]:
        return ("OptimizationLoop", self.max_iterations)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        current = circuit
        for _ in range(self.max_iterations):
            size_before = current.size()
            for pass_ in self._passes:
                current = pass_.run(current, properties)
            if current.size() >= size_before:
                break
        return current
