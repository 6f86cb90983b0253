"""Kernel-equivalence tests: the fused tensor engine vs naive linear algebra.

Every optimized path — matrix caching, single-qubit fusion, block fusion,
diagonal collapsing, lazy axis permutation, SWAP relabeling — must produce
the same state as the textbook implementation: embed each gate into the
full ``2**n x 2**n`` unitary and multiply dense matrices.  The reference
here is deliberately independent of the production kernels (plain bit
loops), so a bug in the shared machinery cannot cancel out.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.circuits.random import random_circuit
from repro.simulation.kernels import (
    apply_matrix,
    block_ops,
    cached_gate_matrix,
    fuse_instructions,
    run_fused_ops,
)
from repro.simulation.statevector import circuit_unitary, simulate_statevector


def embed_full(matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    """Naive embedding of a k-qubit operator into the full Hilbert space."""
    k = len(qubits)
    dim = 1 << num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(num_qubits) if q not in qubits]
    for row_local in range(1 << k):
        for col_local in range(1 << k):
            amplitude = matrix[row_local, col_local]
            if amplitude == 0:
                continue
            for rest in range(1 << len(others)):
                base = 0
                for index, qubit in enumerate(others):
                    if (rest >> index) & 1:
                        base |= 1 << qubit
                row = base
                col = base
                for index, qubit in enumerate(qubits):
                    if (row_local >> index) & 1:
                        row |= 1 << qubit
                    if (col_local >> index) & 1:
                        col |= 1 << qubit
                full[row, col] += amplitude
    return full


def naive_statevector(circuit: QuantumCircuit) -> np.ndarray:
    """Reference simulation: one full-matrix multiply per instruction."""
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for instruction in circuit.instructions:
        if not instruction.is_unitary:
            continue
        full = embed_full(
            gate_matrix(instruction.name, instruction.params),
            instruction.qubits,
            circuit.num_qubits,
        )
        state = full @ state
    if circuit.global_phase:
        state = state * np.exp(1j * circuit.global_phase)
    return state


def naive_unitary(circuit: QuantumCircuit) -> np.ndarray:
    total = np.eye(1 << circuit.num_qubits, dtype=complex)
    for instruction in circuit.instructions:
        if not instruction.is_unitary:
            continue
        total = embed_full(
            gate_matrix(instruction.name, instruction.params),
            instruction.qubits,
            circuit.num_qubits,
        ) @ total
    return total


def _mixed_circuit(num_qubits: int, depth: int, seed: int) -> QuantumCircuit:
    """Random circuit exercising diagonal runs, swaps, and 3-qubit gates."""
    circuit = random_circuit(num_qubits, depth, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    # Salt with structures the fusion engine treats specially.
    if num_qubits >= 3:
        qubits = rng.choice(num_qubits, size=3, replace=False)
        circuit.ccx(int(qubits[0]), int(qubits[1]), int(qubits[2]))
        circuit.ccz(int(qubits[2]), int(qubits[0]), int(qubits[1]))
    a, b = rng.choice(num_qubits, size=2, replace=False)
    circuit.swap(int(a), int(b))
    circuit.cp(0.37, int(a), int(b))
    circuit.rz(1.23, int(a))
    return circuit


@pytest.mark.parametrize("num_qubits", range(2, 9))
def test_statevector_fused_matches_naive(num_qubits):
    circuit = _mixed_circuit(num_qubits, depth=12, seed=num_qubits)
    fast = simulate_statevector(circuit).data
    reference = naive_statevector(circuit)
    assert np.allclose(fast, reference, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_statevector_fused_matches_naive_across_seeds(seed):
    circuit = _mixed_circuit(5, depth=20, seed=seed)
    fast = simulate_statevector(circuit).data
    reference = naive_statevector(circuit)
    assert np.allclose(fast, reference, atol=1e-10)


@pytest.mark.parametrize("num_qubits", range(2, 6))
def test_circuit_unitary_matches_naive(num_qubits):
    circuit = _mixed_circuit(num_qubits, depth=6, seed=31 + num_qubits)
    circuit.global_phase = 0.0
    assert np.allclose(
        circuit_unitary(circuit), naive_unitary(circuit), atol=1e-10
    )


@pytest.mark.parametrize("seed", range(8))
def test_apply_matrix_matches_embedding(seed):
    """The canonical per-gate kernel agrees with full-matrix application."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 7))
    k = int(rng.integers(1, min(num_qubits, 3) + 1))
    qubits = tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))
    raw = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal(
        (1 << k, 1 << k)
    )
    unitary, _ = np.linalg.qr(raw)
    state = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    state /= np.linalg.norm(state)
    fast = apply_matrix(state.copy(), unitary, qubits, num_qubits)
    reference = embed_full(unitary, qubits, num_qubits) @ state
    assert np.allclose(fast, reference, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_run_fused_ops_matches_per_gate_application(seed):
    """Blocked/planned execution equals gate-by-gate canonical application."""
    circuit = _mixed_circuit(6, depth=15, seed=seed + 50)
    ops = fuse_instructions(circuit.instructions)
    state = np.zeros(1 << 6, dtype=complex)
    state[0] = 1.0
    fused = run_fused_ops(state.copy(), ops, 6)
    reference = state.copy()
    for matrix, qubits, _ in ops:
        reference = apply_matrix(reference, matrix, qubits, 6)
    assert np.allclose(fused, reference, atol=1e-10)


def test_fusion_preserves_gate_count_semantics():
    """Fused op list applies the same total unitary as the instruction list."""
    circuit = _mixed_circuit(4, depth=10, seed=99)
    ops = fuse_instructions(circuit.instructions)
    total = np.eye(1 << 4, dtype=complex)
    for matrix, qubits, _ in ops:
        total = embed_full(matrix, qubits, 4) @ total
    assert np.allclose(total, naive_unitary(circuit), atol=1e-10)


def test_block_ops_cover_all_gates():
    """Blocking loses no operations: its blocks rebuild the full unitary."""
    circuit = _mixed_circuit(4, depth=10, seed=7)
    blocks = block_ops(fuse_instructions(circuit.instructions))
    total = np.eye(1 << 4, dtype=complex)
    swap = gate_matrix("swap")
    for kind, qubits, payload in blocks:
        if kind == "s":
            matrix = swap
        elif kind == "d":
            matrix = np.diag(payload)
        else:
            matrix = payload
        total = embed_full(matrix, qubits, 4) @ total
    assert np.allclose(total, naive_unitary(circuit), atol=1e-10)


def test_cached_gate_matrix_identity_and_immutability():
    first = cached_gate_matrix("rz", (0.5,))
    second = cached_gate_matrix("rz", (0.5,))
    assert first is second
    assert not first.flags.writeable
    assert np.allclose(first, gate_matrix("rz", (0.5,)))


def test_plan_cache_invalidates_on_same_length_in_place_edit():
    """Replacing an instruction in place (length unchanged) must not serve
    the stale cached plan."""
    from repro.circuits.circuit import Instruction
    from repro.simulation.statevector import ideal_distribution

    circuit = QuantumCircuit(1, 1)
    circuit.x(0)
    circuit.measure(0, 0)
    assert ideal_distribution(circuit) == {"1": pytest.approx(1.0)}
    circuit.instructions[0] = Instruction("h", (0,))
    refreshed = ideal_distribution(circuit)
    assert refreshed["0"] == pytest.approx(0.5)
    assert refreshed["1"] == pytest.approx(0.5)


def test_fixed_seed_distributions_are_bit_identical():
    """Same circuit, same dtype: repeated runs reproduce exact amplitudes."""
    circuit = _mixed_circuit(6, depth=20, seed=3)
    first = simulate_statevector(circuit).data
    second = simulate_statevector(circuit).data
    assert np.array_equal(first, second)
    # A fresh, structurally identical circuit (different object, cold
    # caches) must also reproduce the amplitudes exactly.
    clone = _mixed_circuit(6, depth=20, seed=3)
    third = simulate_statevector(clone).data
    assert np.array_equal(first, third)
