"""Unit tests for the statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.circuits.random import random_circuit
from repro.simulation import kernels
from repro.simulation.statevector import (
    Statevector,
    circuit_unitary,
    ideal_distribution,
    sample_counts,
    simulate_statevector,
)


def test_initial_state():
    state = Statevector(3)
    assert state.data[0] == 1.0
    assert np.count_nonzero(state.data) == 1


def test_x_flips_correct_bit():
    for qubit in range(3):
        qc = QuantumCircuit(3)
        qc.x(qubit)
        state = simulate_statevector(qc)
        assert np.isclose(abs(state.data[1 << qubit]), 1.0)


def test_bell_state():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    state = simulate_statevector(qc)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(state.data, expected)


def test_ghz_distribution():
    qc = QuantumCircuit(4, 4)
    qc.h(0)
    for i in range(3):
        qc.cx(i, i + 1)
    qc.measure_all()
    dist = ideal_distribution(qc)
    assert set(dist) == {"0000", "1111"}
    assert math.isclose(dist["0000"], 0.5, abs_tol=1e-9)


def test_qiskit_bit_order_convention():
    """x on qubit 0 -> bitstring '01' (qubit 0 is right-most)."""
    qc = QuantumCircuit(2, 2)
    qc.x(0)
    qc.measure_all()
    dist = ideal_distribution(qc)
    assert dist == {"01": pytest.approx(1.0)}


def test_partial_measurement_marginalizes():
    qc = QuantumCircuit(2, 1)
    qc.h(0).cx(0, 1)
    qc.measure(1, 0)
    dist = ideal_distribution(qc)
    assert dist == {
        "0": pytest.approx(0.5),
        "1": pytest.approx(0.5),
    }


def test_measure_into_swapped_clbits():
    qc = QuantumCircuit(2, 2)
    qc.x(0)
    qc.measure(0, 1)
    qc.measure(1, 0)
    dist = ideal_distribution(qc)
    assert dist == {"10": pytest.approx(1.0)}


@pytest.mark.parametrize("seed", range(5))
def test_kernels_match_general_path(seed):
    qc = random_circuit(5, 12, seed=seed)
    fast = simulate_statevector(qc)
    reference = Statevector(5).data
    for instruction in qc.instructions:
        if instruction.is_unitary:
            reference = kernels._apply_general(
                reference,
                gate_matrix(instruction.name, instruction.params),
                instruction.qubits, 5, 1,
            )
    assert np.allclose(fast.data, reference, atol=1e-10)


def test_norm_preserved():
    qc = random_circuit(6, 30, seed=9)
    state = simulate_statevector(qc)
    assert math.isclose(float(np.sum(state.probabilities())), 1.0, abs_tol=1e-9)


def test_complex64_close_to_complex128():
    qc = random_circuit(6, 30, seed=11)
    d64 = ideal_distribution(qc, dtype=np.complex64)
    d128 = ideal_distribution(qc)
    keys = set(d64) | set(d128)
    for key in keys:
        assert math.isclose(
            d64.get(key, 0.0), d128.get(key, 0.0), abs_tol=1e-5
        )


def test_circuit_unitary_identity():
    qc = QuantumCircuit(2)
    unitary = circuit_unitary(qc)
    assert np.allclose(unitary, np.eye(4))


def test_circuit_unitary_composition():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    unitary = circuit_unitary(qc)
    h_full = np.kron(np.eye(2), gate_matrix("h"))
    expected = gate_matrix("cx") @ h_full
    assert np.allclose(unitary, expected, atol=1e-10)


def test_circuit_unitary_size_limit():
    with pytest.raises(ValueError, match="12 qubits"):
        circuit_unitary(QuantumCircuit(13))


def test_marginal_probabilities_ordering():
    qc = QuantumCircuit(3)
    qc.x(2)
    state = simulate_statevector(qc)
    marginal = state.marginal_probabilities([2, 0])
    # bit 0 of output = qubit 2 (value 1), bit 1 = qubit 0 (value 0).
    assert np.isclose(marginal[1], 1.0)


def test_expectation_z():
    qc = QuantumCircuit(1)
    state = simulate_statevector(qc)
    assert math.isclose(state.expectation_z(0), 1.0)
    qc.x(0)
    state = simulate_statevector(qc)
    assert math.isclose(state.expectation_z(0), -1.0)


def test_fidelity():
    a = simulate_statevector(QuantumCircuit(2))
    qc = QuantumCircuit(2)
    qc.x(0)
    b = simulate_statevector(qc)
    assert math.isclose(a.fidelity(a), 1.0)
    assert math.isclose(a.fidelity(b), 0.0, abs_tol=1e-12)


def test_sample_counts_total_and_support():
    rng = np.random.default_rng(0)
    dist = {"00": 0.25, "01": 0.75}
    counts = sample_counts(dist, 1000, rng)
    assert sum(counts.values()) == 1000
    assert set(counts) <= {"00", "01"}
    assert counts["01"] > counts["00"]


def test_global_phase_in_distribution_is_invisible():
    qc = QuantumCircuit(1, 1, global_phase=1.234)
    qc.h(0)
    qc.measure(0, 0)
    dist = ideal_distribution(qc)
    assert math.isclose(dist["0"], 0.5, abs_tol=1e-9)
