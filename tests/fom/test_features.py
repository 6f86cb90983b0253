"""Unit tests for the 30-dim feature vector."""


import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random import random_circuit
from repro.fom.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    GROUP_ORDER,
    NUM_FEATURES,
    feature_dict,
    feature_matrix,
    feature_vector,
)


def test_exactly_thirty_features():
    assert NUM_FEATURES == 30
    assert len(FEATURE_NAMES) == 30
    assert len(set(FEATURE_NAMES)) == 30


def test_every_feature_has_a_group():
    assert set(FEATURE_GROUPS) == set(FEATURE_NAMES)
    assert set(FEATURE_GROUPS.values()) == set(GROUP_ORDER)


def test_group_order_matches_paper_fig3():
    assert GROUP_ORDER[0] == "Liveness"
    assert "Dir. prog. comm." in GROUP_ORDER
    assert GROUP_ORDER[-1] == "Other features"


def test_vector_matches_dict_ordering():
    qc = random_circuit(4, 8, seed=1, measure=True)
    vec = feature_vector(qc)
    d = feature_dict(qc)
    for index, name in enumerate(FEATURE_NAMES):
        assert vec[index] == pytest.approx(d[name])


def test_all_finite_on_edge_cases():
    cases = [
        QuantumCircuit(1),
        QuantumCircuit(2),
    ]
    qc = QuantumCircuit(1, 1)
    qc.h(0)
    qc.measure(0, 0)
    cases.append(qc)
    qc2 = QuantumCircuit(3)
    qc2.barrier()
    cases.append(qc2)
    for case in cases:
        vec = feature_vector(case)
        assert np.all(np.isfinite(vec)), case


def test_depth_independent_size():
    shallow = feature_vector(random_circuit(5, 3, seed=0))
    deep = feature_vector(random_circuit(5, 60, seed=0))
    assert shallow.shape == deep.shape == (30,)


def test_gate_counts_features():
    qc = QuantumCircuit(3, 3)
    qc.h(0).h(1).cx(0, 1).cz(1, 2)
    qc.measure_all()
    d = feature_dict(qc)
    assert d["total_gates"] == 4
    assert d["one_qubit_gates"] == 2
    assert d["two_qubit_gates"] == 2
    assert d["measurement_count"] == 3


def test_liveness_full_activity():
    qc = QuantumCircuit(2)
    qc.h(0).h(1)
    qc.h(0).h(1)
    d = feature_dict(qc)
    assert d["liveness"] == pytest.approx(1.0)
    assert d["idle_streak_max"] == pytest.approx(0.0)


def test_liveness_half_idle():
    qc = QuantumCircuit(2)
    qc.h(0).h(0)  # qubit 1 exists but inactive -> not in active set
    qc.h(1)       # now active in 1 of 2 layers
    d = feature_dict(qc)
    assert d["liveness"] == pytest.approx((1.0 + 0.5) / 2)


def test_parallelism_extremes():
    serial = QuantumCircuit(4)
    for _ in range(4):
        serial.h(0)
    d = feature_dict(serial)
    assert d["parallelism"] == pytest.approx(0.0)

    parallel = QuantumCircuit(4)
    for q in range(4):
        parallel.h(q)
    d = feature_dict(parallel)
    assert d["parallelism"] == pytest.approx(1.0)


def test_directed_communication_counts_orientation():
    qc = QuantumCircuit(3)
    qc.cx(0, 1).cx(1, 0)
    d = feature_dict(qc)
    # Two directed edges over 2 active qubits -> 2 / (2*1) = 1.0
    assert d["directed_communication"] == pytest.approx(1.0)
    assert d["undirected_communication"] == pytest.approx(1.0)


def test_entanglement_ratio():
    qc = QuantumCircuit(4)
    qc.h(0).h(1).h(2).h(3)
    qc.cx(0, 1)
    d = feature_dict(qc)
    assert d["entanglement_ratio"] == pytest.approx(0.5)


def test_critical_two_qubit_fraction_pure_2q_chain():
    qc = QuantumCircuit(3)
    qc.cx(0, 1).cx(1, 2).cx(0, 1)
    d = feature_dict(qc)
    assert d["critical_two_qubit_fraction"] == pytest.approx(1.0)


def test_weighted_depth():
    qc = QuantumCircuit(2)
    qc.h(0)        # 1q layer: weight 1
    qc.cx(0, 1)    # 2q layer: weight 3
    d = feature_dict(qc)
    assert d["weighted_depth"] == pytest.approx(4.0)


def test_parallel_two_qubit_fraction():
    qc = QuantumCircuit(4)
    qc.cx(0, 1).cx(2, 3)   # simultaneous pair
    qc.cx(1, 2)            # alone
    d = feature_dict(qc)
    assert d["parallel_two_qubit_fraction"] == pytest.approx(2 / 3)


def test_feature_matrix_shape():
    circuits = [random_circuit(3, 5, seed=s, measure=True) for s in range(4)]
    X = feature_matrix(circuits)
    assert X.shape == (4, 30)
    assert np.all(np.isfinite(X))


def test_feature_matrix_empty_input_keeps_width():
    assert feature_matrix([]).shape == (0, 30)
    assert feature_matrix([], max_workers=4).shape == (0, 30)


def test_feature_matrix_mode_invariant():
    """The in-process loop and the process pool give the same rows."""
    circuits = [random_circuit(4, 12, seed=s, measure=True) for s in range(5)]
    reference = feature_matrix(circuits, max_workers=1)
    for workers in (2, 4):
        assert np.array_equal(
            feature_matrix(circuits, max_workers=workers), reference
        ), workers


def test_ratios_bounded():
    qc = random_circuit(6, 20, seed=5, measure=True)
    d = feature_dict(qc)
    for name in (
        "two_qubit_ratio", "one_qubit_ratio", "liveness", "liveness_min",
        "parallelism", "mean_layer_occupancy", "entanglement_ratio",
        "directed_communication", "undirected_communication",
        "critical_two_qubit_fraction", "parallel_two_qubit_fraction",
    ):
        assert 0.0 <= d[name] <= 1.0, name
