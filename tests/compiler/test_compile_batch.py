"""`compile_batch`: ordering, seed streams, and worker-count invariance."""

import numpy as np
import pytest

from repro.circuits.random import random_circuit
from repro.compiler import SEED_STRIDE, compile_batch, compile_circuit
from repro.compiler.passes.routing import _select_swap
from repro.fom.metrics import expected_fidelity, expected_fidelity_batch
from repro.hardware import make_q20a
from repro.hardware.coupling import grid_map

from .routing_reference import _swap_score


@pytest.fixture(scope="module")
def device():
    return make_q20a()


@pytest.fixture(scope="module")
def circuits():
    return [
        random_circuit(4 + (i % 5), 8 + i, seed=100 + i, measure=True)
        for i in range(7)
    ]


def _digests(results):
    return [
        (
            tuple(r.circuit.instructions),
            r.circuit.global_phase,
            tuple(sorted(r.final_layout.items())),
        )
        for r in results
    ]


def test_batch_matches_sequential_compiles(device, circuits):
    batch = compile_batch(circuits, device, optimization_level=2, seed=3)
    sequential = [
        compile_circuit(
            c, device, optimization_level=2, seed=3 + SEED_STRIDE * i
        )
        for i, c in enumerate(circuits)
    ]
    assert _digests(batch) == _digests(sequential)


def test_batch_is_worker_count_invariant(device, circuits):
    reference = compile_batch(
        circuits, device, optimization_level=3, seed=0, max_workers=1
    )
    for workers in (2, 4):
        again = compile_batch(
            circuits, device, optimization_level=3, seed=0, max_workers=workers
        )
        assert _digests(again) == _digests(reference)


def test_batch_preserves_input_order(device, circuits):
    results = compile_batch(
        circuits, device, optimization_level=1, seed=0, max_workers=4
    )
    assert len(results) == len(circuits)
    for circuit, result in zip(circuits, results):
        assert result.circuit.name == circuit.name
        # Every program qubit must appear in the layouts.
        assert sorted(result.initial_layout) == list(range(circuit.num_qubits))


def test_batch_explicit_seeds(device, circuits):
    seeds = [17 * i + 1 for i in range(len(circuits))]
    batch = compile_batch(
        circuits, device, optimization_level=2, seeds=seeds, max_workers=2
    )
    sequential = [
        compile_circuit(c, device, optimization_level=2, seed=s)
        for c, s in zip(circuits, seeds)
    ]
    assert _digests(batch) == _digests(sequential)
    with pytest.raises(ValueError):
        compile_batch(circuits, device, seeds=seeds[:-1])


def test_batch_on_result_callback_sees_every_circuit(device, circuits):
    seen = []
    results = compile_batch(
        circuits, device, optimization_level=1, seed=0, max_workers=3,
        on_result=lambda index, result: seen.append((index, result)),
    )
    assert sorted(index for index, _ in seen) == list(range(len(circuits)))
    by_index = dict(seen)
    for index, result in enumerate(results):
        assert by_index[index] is result


def test_callback_error_on_a_cache_hit_still_delivers_every_circuit(
    device, circuits
):
    """Hits are delivered before the misses compile; a callback that
    raises on a hit must not stop the misses, and the error surfaces
    once every circuit is delivered and stored."""
    from repro.compiler import clear_compile_cache, compile_cache_stats

    clear_compile_cache()
    compile_batch(circuits[:2], device, optimization_level=1, seed=0)
    seen = []

    def callback(index, result):
        seen.append(index)
        if index == 0:
            raise RuntimeError("callback failed")

    with pytest.raises(RuntimeError, match="callback failed"):
        compile_batch(
            circuits, device, optimization_level=1, seed=0, max_workers=1,
            on_result=callback,
        )
    assert seen[:2] == [0, 1]
    assert sorted(seen) == list(range(len(circuits)))
    before = compile_cache_stats()
    compile_batch(circuits, device, optimization_level=1, seed=0)
    assert compile_cache_stats()["misses"] == before["misses"]


def test_process_pool_compile_is_byte_identical_to_sequential(device, circuits):
    """Golden digest: the spawn-based process pool must reproduce the
    sequential compile byte-for-byte, QASM text included, at every
    worker count (the caller's cache is emptied first, so the pool
    really compiles)."""
    from repro.circuits.qasm import to_qasm
    from repro.compiler import clear_compile_cache

    clear_compile_cache()
    sequential = compile_batch(
        circuits, device, optimization_level=3, seed=0, max_workers=1,
    )
    golden = [to_qasm(result.circuit) for result in sequential]
    for workers in (2, 4):
        clear_compile_cache()
        again = compile_batch(
            circuits, device, optimization_level=3, seed=0,
            max_workers=workers,
        )
        assert [to_qasm(r.circuit) for r in again] == golden, workers
        assert _digests(again) == _digests(sequential), workers
        for ref, other in zip(sequential, again):
            assert other.initial_layout == ref.initial_layout
            assert other.final_layout == ref.final_layout
            assert dict(other.properties) == dict(ref.properties)


def test_process_pool_results_reattach_parent_device(device, circuits):
    """Worker processes strip the device from shipped results; the parent
    must hand back results carrying its own device object."""
    results = compile_batch(
        circuits, device, optimization_level=1, seed=0,
        max_workers=4,
    )
    assert all(result.device is device for result in results)
    assert all(result.optimization_level == 1 for result in results)


def test_empty_batch_returns_empty_list(device):
    assert compile_batch([], device) == []
    assert compile_batch([], device, max_workers=4) == []


def test_expected_fidelity_batch_is_bit_identical(device, circuits):
    compiled = [
        compile_circuit(c, device, optimization_level=2, seed=9).circuit
        for c in circuits
    ]
    batch = expected_fidelity_batch(compiled, device)
    scalar = [expected_fidelity(c, device) for c in compiled]
    assert batch.tolist() == scalar  # exact equality, not approx
    reported = expected_fidelity_batch(
        compiled, device, calibration=device.reported_calibration
    )
    assert reported.tolist() == scalar
    assert expected_fidelity_batch([], device).shape == (0,)


def test_expected_fidelity_batch_rejects_missing_calibration(device, circuits):
    import dataclasses

    compiled = compile_circuit(
        circuits[0], device, optimization_level=2, seed=0
    ).circuit
    cal = device.reported_calibration
    used_edge = next(
        tuple(sorted(i.qubits)) for i in compiled.instructions
        if i.num_qubits == 2 and i.is_unitary
    )
    partial = dataclasses.replace(
        cal,
        two_qubit_fidelity={
            e: f for e, f in cal.two_qubit_fidelity.items() if e != used_edge
        },
    )
    with pytest.raises(KeyError):
        expected_fidelity_batch([compiled], device, calibration=partial)


def test_vectorized_swap_selection_matches_scalar_reference():
    """`_select_swap` must pick exactly what the scalar scan would."""
    rng = np.random.default_rng(0)
    coupling = grid_map(4, 5)
    tables = coupling.routing_tables()
    circuit = random_circuit(12, 30, seed=5, two_qubit_prob=0.6)
    gates = [
        i for i in circuit.instructions
        if i.num_qubits == 2 and i.is_unitary
    ]
    for trial in range(25):
        tau = list(rng.permutation(coupling.num_qubits))
        tau_dict = {v: p for v, p in enumerate(tau)}
        decay = 1.0 + 0.001 * rng.integers(0, 5, coupling.num_qubits)
        front = list(rng.choice(len(gates), size=3, replace=False))
        look = list(rng.choice(len(gates), size=6, replace=False))
        front_gates = [gates[i] for i in front]
        look_gates = [gates[i] for i in look]
        candidates = sorted(
            {tuple(sorted(e)) for e in coupling.edges}
        )
        order = list(candidates)
        rng.shuffle(order)
        chosen = _select_swap(
            order, front_gates, look_gates, tau, tables.distance, decay
        )
        best, best_score = None, float("inf")
        for swap in order:
            score = _swap_score(
                swap, front_gates, look_gates, tau_dict,
                tables.distance, decay,
            )
            if score < best_score:
                best_score, best = score, swap
        assert chosen == best
