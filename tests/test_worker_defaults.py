"""Regression tests for the repo-wide ``max_workers=None`` rule and the
fixed pool kind of each stage.

Every batched entry point must resolve ``max_workers=None`` to one
worker per CPU via :func:`repro.parallel.resolve_workers` — no call site
may silently remap ``None`` to ``1`` (the historical ``compile_batch``
divergence).  The tests pretend the box has four CPUs and spy on the
``parallel_map`` call each entry point makes, asserting the worker count
it resolved (or forwarded) matches the shared rule and the ``mode`` it
named matches its kind of work.
"""

import numpy as np
import pytest

import repro.compiler.compile as compile_mod
import repro.fom.features as features_mod
import repro.ml.forest as forest_mod
import repro.ml.model_selection as selection_mod
import repro.predictor.service as service_mod
import repro.simulation.executor as executor_mod
from repro.circuits.circuit import QuantumCircuit
from repro.hardware import make_q20a
from repro.ml.forest import RandomForestRegressor
from repro.ml.model_selection import cross_val_score, grid_search
from repro.ml.tree import DecisionTreeRegressor
from repro.parallel import resolve_workers

FAKE_CPUS = 4


@pytest.fixture()
def four_cpus(monkeypatch):
    """Pretend the box has four CPUs.

    Without this, a single-CPU CI box resolves ``None`` and the buggy
    ``1`` to the same count and the regression is invisible.
    """
    import repro.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: FAKE_CPUS)


def _spy(monkeypatch, *modules):
    """Record ``(max_workers, num_items, mode)`` of every ``parallel_map``
    call made through ``modules``.

    The real thing still runs, in-process: results are identical for
    every worker count, and the spy checks what each stage asks for,
    not the pools themselves.
    """
    calls = []
    import repro.parallel as parallel_mod

    real = parallel_mod.parallel_map

    def wrapper(fn, items, max_workers=None, on_result=None, *, mode, **kwargs):
        items = list(items)
        calls.append((max_workers, len(items), mode))
        return real(
            fn, items, max_workers=1, on_result=on_result, mode=mode, **kwargs
        )

    for module in modules:
        monkeypatch.setattr(module, "parallel_map", wrapper)
    return calls


def _assert_rule(calls):
    assert calls, "entry point never reached parallel_map"
    for max_workers, num_items, _ in calls:
        assert resolve_workers(max_workers, num_items) == resolve_workers(
            None, num_items
        ), (max_workers, num_items)


def _bell(n=3):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    qc.measure_all()
    return qc


@pytest.fixture(scope="module")
def device():
    return make_q20a()


def test_compile_batch_resolves_none_to_cpu_count(four_cpus, monkeypatch, device):
    # compile_batch imports parallel_map at call time, so spy at the source.
    import repro.parallel as parallel_mod

    calls = _spy(monkeypatch, parallel_mod)
    compile_mod.compile_batch(
        [_bell(n) for n in (3, 4, 5, 6, 7)], device,
        optimization_level=1, seed=0, max_workers=None,
    )
    _assert_rule(calls)
    assert calls[0][0] == FAKE_CPUS  # the historical bug resolved to 1


def test_feature_matrix_follows_worker_rule(four_cpus, monkeypatch, device):
    calls = _spy(monkeypatch, features_mod)
    circuits = [_bell(n) for n in (3, 4, 5, 6)]
    features_mod.feature_matrix(circuits, max_workers=None)
    _assert_rule(calls)


def test_run_batch_follows_worker_rule(four_cpus, monkeypatch, device):
    compiled = [
        compile_mod.compile_circuit(
            _bell(n), device, optimization_level=1, seed=n
        ).circuit
        for n in (3, 4, 5, 6)
    ]
    calls = _spy(monkeypatch, executor_mod)
    executor_mod.QPUExecutor(device).run_batch(
        compiled, shots=50, seed=1, max_workers=None
    )
    _assert_rule(calls)


def test_forest_fit_follows_worker_rule(four_cpus, monkeypatch):
    calls = _spy(monkeypatch, forest_mod)
    rng = np.random.default_rng(0)
    RandomForestRegressor(
        n_estimators=6, random_state=0, max_workers=None
    ).fit(rng.random((30, 5)), rng.random(30))
    _assert_rule(calls)


def test_model_selection_follows_worker_rule(four_cpus, monkeypatch):
    calls = _spy(monkeypatch, selection_mod)
    rng = np.random.default_rng(1)
    X, y = rng.random((30, 5)), rng.random(30)
    forest = RandomForestRegressor(n_estimators=4, random_state=0)
    cross_val_score(forest, X, y, n_splits=3, seed=0, max_workers=None)
    _assert_rule(calls)
    calls.clear()
    grid_search(
        forest,
        {"n_estimators": [4], "max_depth": [2, 3],
         "min_samples_leaf": [1], "min_samples_split": [2]},
        X, y, n_splits=3, seed=0, max_workers=None,
    )
    _assert_rule(calls)


def test_service_forwards_none_to_both_stages(four_cpus, monkeypatch, device):
    """The service must not remap ``None`` before delegating (the second
    historical divergence: ``feature_workers = 1 if max_workers is None``)."""
    forwarded = {}
    real_compile = service_mod.compile_batch
    real_features = service_mod.feature_matrix

    def spy_compile(circuits, *args, **kwargs):
        forwarded["compile"] = kwargs.get("max_workers", "missing")
        return real_compile(circuits, *args, **kwargs)

    def spy_features(circuits, *args, **kwargs):
        forwarded["features"] = kwargs.get("max_workers", "missing")
        return real_features(circuits, *args, **kwargs)

    monkeypatch.setattr(service_mod, "compile_batch", spy_compile)
    monkeypatch.setattr(service_mod, "feature_matrix", spy_features)

    from repro.predictor.estimator import HellingerEstimator

    rng = np.random.default_rng(2)
    estimator = HellingerEstimator(
        param_grid={"n_estimators": [4], "max_depth": [3],
                    "min_samples_leaf": [1], "min_samples_split": [2]},
        n_splits=3, seed=0, max_workers=1,
    )
    estimator.fit(rng.random((40, 30)), rng.random(40))
    service = service_mod.FomService(estimator, device)
    service.predict([_bell(3), _bell(4), _bell(5)], max_workers=None)
    assert forwarded["compile"] is None
    assert forwarded["features"] is None


def test_each_stage_names_its_fixed_pool_kind(monkeypatch, device):
    """GIL-bound stages (compile, featurize, tree fit, cross-validation,
    grid search) run in processes; numpy stages (noiseless simulation,
    noisy execution) in threads — whatever the worker count."""
    import repro.parallel as parallel_mod
    from repro.bench import build_suite, ideal_distributions

    calls = _spy(
        monkeypatch, parallel_mod, features_mod, forest_mod, selection_mod,
        executor_mod,
    )
    rng = np.random.default_rng(3)
    X, y = rng.random((30, 5)), rng.random(30)
    forest = RandomForestRegressor(n_estimators=4, random_state=0)
    suite = build_suite(max_qubits=3)[:3]
    circuits = [_bell(n) for n in (3, 4, 5)]
    compiled = [
        result.circuit
        for result in compile_mod.compile_batch(
            circuits, device, optimization_level=1, max_workers=1
        )
    ]
    stages = {
        "compile": lambda: compile_mod.compile_batch(
            circuits, device, optimization_level=1, max_workers=2
        ),
        "featurize": lambda: features_mod.feature_matrix(
            circuits, max_workers=2
        ),
        "forest fit": lambda: RandomForestRegressor(
            n_estimators=4, random_state=0, max_workers=2
        ).fit(X, y),
        "cross-validation": lambda: cross_val_score(
            forest, X, y, n_splits=3, max_workers=2
        ),
        "forest grid search": lambda: grid_search(
            forest, {"max_depth": [2, 3]}, X, y, n_splits=3, max_workers=2
        ),
        "generic grid search": lambda: grid_search(
            DecisionTreeRegressor(random_state=0), {"max_depth": [2, 3]},
            X, y, n_splits=3, max_workers=2,
        ),
        "simulate": lambda: ideal_distributions(suite, max_workers=2),
        "execute": lambda: executor_mod.QPUExecutor(device).run_batch(
            compiled, shots=20, seed=0, max_workers=2
        ),
    }
    modes = {}
    for stage, run in stages.items():
        calls.clear()
        run()
        assert calls, f"{stage} never reached parallel_map"
        modes[stage] = {mode for _, _, mode in calls}
    assert modes == {
        "compile": {"process"},
        "featurize": {"process"},
        "forest fit": {"process"},
        "cross-validation": {"process"},
        "forest grid search": {"process"},
        "generic grid search": {"process"},
        "simulate": {"thread"},
        "execute": {"thread"},
    }
