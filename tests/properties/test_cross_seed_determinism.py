"""Worker-count invariance on a non-grid zoo device.

The batched stages advertise bit-identical results for every
``max_workers``, whether a stage runs in the caller or on its fixed pool
(spawn-based processes for compile, featurize and fitting; threads for
simulation and execution).  This suite pins it on a ring (and the zoo's
seeded random graph for the executor), where routing inserts different
SWAP patterns and the per-circuit seed streams cover different shapes.
"""

import numpy as np
import pytest

from repro.bench.suite import build_suite
from repro.compiler import clear_compile_cache
from repro.compiler.compile import compile_batch
from repro.ml.forest import RandomForestRegressor
from repro.ml.model_selection import grid_search
from repro.predictor.dataset import build_dataset
from repro.simulation.executor import QPUExecutor

from .harness import PROPERTY_SEED, small_device

#: The worker counts every pooled stage must be invariant over; the
#: sequential first entry doubles as the reference.
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def ring_device():
    return small_device("ring")


@pytest.fixture(scope="module")
def tiny_suite():
    return build_suite(
        algorithms=["ghz", "qft", "vqe", "dj"], min_qubits=2, max_qubits=4
    )


def _dataset(suite, device, max_workers):
    return build_dataset(
        suite, device,
        optimization_level=3, shots=250, seed=PROPERTY_SEED,
        max_workers=max_workers,
    )


def test_build_dataset_worker_count_and_mode_invariant(ring_device, tiny_suite):
    reference = _dataset(tiny_suite, ring_device, max_workers=1)
    assert len(reference) == len(tiny_suite)
    for workers in WORKER_COUNTS[1:]:
        # An empty caller cache makes the pool really compile.
        clear_compile_cache()
        other = _dataset(tiny_suite, ring_device, max_workers=workers)
        assert np.array_equal(reference.X, other.X), workers
        assert np.array_equal(reference.y, other.y), workers
        for fom in ("Number of gates", "Circuit depth", "Expected fidelity", "ESP"):
            assert np.array_equal(
                reference.fom_column(fom), other.fom_column(fom)
            ), (workers, fom)
        for a, b in zip(reference.entries, other.entries):
            assert a.name == b.name
            assert a.success_probability == b.success_probability


def test_run_batch_worker_count_invariant(tiny_suite):
    device = small_device("random")
    compiled = [
        result.circuit
        for result in compile_batch(
            [entry.circuit for entry in tiny_suite],
            device, optimization_level=2, seed=PROPERTY_SEED,
        )
    ]
    executor = QPUExecutor(device)
    runs = {
        workers: executor.run_batch(
            compiled, shots=300, seed=PROPERTY_SEED, max_workers=workers
        )
        for workers in WORKER_COUNTS
    }
    reference = runs[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        for ref_execution, other_execution in zip(reference, runs[workers]):
            assert ref_execution.counts == other_execution.counts, workers


def test_grid_search_worker_count_and_mode_invariant(ring_device, tiny_suite):
    data = _dataset(tiny_suite, ring_device, max_workers=2)
    grid = {
        "n_estimators": [10, 20],
        "max_depth": [None, 4],
        "min_samples_leaf": [1],
        "min_samples_split": [2],
    }
    outcomes = [
        grid_search(
            RandomForestRegressor(random_state=0, max_features="sqrt"),
            grid, data.X, data.y,
            n_splits=3, seed=PROPERTY_SEED, max_workers=workers,
        )
        for workers in WORKER_COUNTS
    ]
    reference = outcomes[0]
    for workers, other in zip(WORKER_COUNTS[1:], outcomes[1:]):
        assert other.best_params == reference.best_params, workers
        assert other.best_score == reference.best_score, workers
        assert [score for _, score in other.results] == [
            score for _, score in reference.results
        ], workers


def test_forest_fit_mode_invariant(ring_device, tiny_suite):
    """A process-pool forest fit must be bit-identical to the sequential
    fit: same predictions, same importances, to the last ulp."""
    data = _dataset(tiny_suite, ring_device, max_workers=2)
    reference = RandomForestRegressor(
        n_estimators=8, random_state=PROPERTY_SEED, max_workers=1
    ).fit(data.X, data.y)
    for workers in WORKER_COUNTS[1:]:
        other = RandomForestRegressor(
            n_estimators=8, random_state=PROPERTY_SEED, max_workers=workers,
        ).fit(data.X, data.y)
        assert np.array_equal(
            reference.predict(data.X), other.predict(data.X)
        ), workers
        assert np.array_equal(
            reference.feature_importances_, other.feature_importances_
        ), workers
