"""Tests for the batched execution API (``QPUExecutor.run_batch``)."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import compile_circuit
from repro.hardware import make_q20a
from repro.parallel import parallel_map, resolve_workers
from repro.simulation.executor import SEED_STRIDE, QPUExecutor
from repro.simulation.statevector import ideal_distribution


@pytest.fixture(scope="module")
def device():
    return make_q20a()


@pytest.fixture(scope="module")
def circuits(device):
    """A small batch of distinct compiled circuits."""
    batch = []
    for n in (3, 4, 5, 6):
        qc = QuantumCircuit(n)
        qc.h(0)
        for i in range(n - 1):
            qc.cx(i, i + 1)
        qc.measure_all()
        batch.append(
            compile_circuit(qc, device, optimization_level=2, seed=n).circuit
        )
    return batch


def test_matches_sequential_execution(device, circuits):
    executor = QPUExecutor(device)
    batch = executor.run_batch(circuits, shots=300, seed=11, max_workers=1)
    for index, (circuit, result) in enumerate(zip(circuits, batch)):
        solo = executor.execute(
            circuit, shots=300, seed=11 + SEED_STRIDE * index
        )
        assert result.counts == solo.counts
        assert result.success_probability == solo.success_probability


def test_deterministic_across_worker_counts(device, circuits):
    executor = QPUExecutor(device)
    reference = None
    for workers in (1, 2, 4, 8):
        batch = executor.run_batch(
            circuits, shots=500, seed=5, max_workers=workers
        )
        counts = [result.counts for result in batch]
        if reference is None:
            reference = counts
        else:
            assert counts == reference


def test_result_ordering_matches_input_order(device, circuits):
    """Result i must describe circuit i (distinguished by output width)."""
    executor = QPUExecutor(device)
    batch = executor.run_batch(circuits, shots=100, seed=2, max_workers=4)
    for circuit, result in zip(circuits, batch):
        width = max(clbit for _, clbit in circuit.measured_qubits()) + 1
        assert all(len(key) == width for key in result.counts)


def test_explicit_seeds_override_base_seed(device, circuits):
    executor = QPUExecutor(device)
    seeds = [101, 202, 303, 404]
    batch = executor.run_batch(circuits, shots=200, seeds=seeds)
    for circuit, result, seed in zip(circuits, batch, seeds):
        solo = executor.execute(circuit, shots=200, seed=seed)
        assert result.counts == solo.counts


def test_mixed_precomputed_ideals(device, circuits):
    """None entries in `ideals` are simulated on the worker, others reused."""
    executor = QPUExecutor(device)
    ideals = [None] * len(circuits)
    ideals[1] = ideal_distribution(circuits[1])
    batch = executor.run_batch(circuits, shots=150, seed=9, ideals=ideals)
    reference = executor.run_batch(circuits, shots=150, seed=9)
    assert [r.counts for r in batch] == [r.counts for r in reference]


def test_length_validation(device, circuits):
    executor = QPUExecutor(device)
    with pytest.raises(ValueError, match="seeds"):
        executor.run_batch(circuits, seeds=[1, 2])
    with pytest.raises(ValueError, match="ideals"):
        executor.run_batch(circuits, ideals=[None])


def test_empty_batch(device):
    assert QPUExecutor(device).run_batch([]) == []


def test_parallel_map_preserves_order_and_results():
    items = list(range(25))
    expected = [i * i for i in items]
    for workers in (1, 4):
        assert parallel_map(
            lambda i: i * i, items, max_workers=workers, mode="thread"
        ) == expected


def test_resolve_workers():
    assert resolve_workers(3, 10) == 3
    assert resolve_workers(8, 2) == 2
    assert resolve_workers(None, 0) == 1
    with pytest.raises(ValueError):
        resolve_workers(0, 5)


def test_profile_cache_distinguishes_same_name_devices(device, circuits):
    """Two devices sharing a name but differing in calibration must not
    reuse each other's cached circuit profiles."""
    import dataclasses

    from repro.hardware import make_q20b

    drifted = dataclasses.replace(
        device, true_calibration=make_q20b().true_calibration
    )
    assert drifted.name == device.name
    circuit = circuits[2]
    original = QPUExecutor(device).execute(circuit, shots=50, seed=1)
    cross = QPUExecutor(drifted).execute(circuit, shots=50, seed=1)
    fresh = QPUExecutor(
        dataclasses.replace(
            device, true_calibration=make_q20b().true_calibration
        )
    ).execute(circuit, shots=50, seed=1)
    assert cross.success_probability == fresh.success_probability
    assert cross.success_probability != original.success_probability


def test_profile_cache_detects_in_place_calibration_drift(circuits):
    """Mutating a device's calibration in place must invalidate the cached
    execution profile (the staleness scenario this codebase models)."""
    device = make_q20a()
    circuit = circuits[1]
    executor = QPUExecutor(device)
    before = executor.execute(circuit, shots=50, seed=2)
    for qubit in device.true_calibration.t2:
        device.true_calibration.t2[qubit] *= 1e-3
    after = executor.execute(circuit, shots=50, seed=2)
    fresh = QPUExecutor(make_q20a())
    for qubit in fresh.device.true_calibration.t2:
        fresh.device.true_calibration.t2[qubit] *= 1e-3
    expected = fresh.execute(circuit, shots=50, seed=2)
    assert after.success_probability == expected.success_probability
    assert after.success_probability < before.success_probability


def test_batch_reproducible_end_to_end(device, circuits):
    """Two identical batch runs give identical counts (per-circuit streams)."""
    executor = QPUExecutor(device)
    first = executor.run_batch(circuits, shots=400, seed=21, max_workers=4)
    second = executor.run_batch(circuits, shots=400, seed=21, max_workers=4)
    assert [r.counts for r in first] == [r.counts for r in second]
