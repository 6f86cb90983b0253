"""The correlation study calls through the hooks a tracer patches.

``perfbench/tracing.py::install_study`` (``perfbench/run.py --trace 1``)
times the Table-I layers by replacing module globals of
:mod:`repro.evaluation.study`, :mod:`repro.predictor.dataset` and
:mod:`repro.predictor.estimator`, and ``QPUExecutor.run_batch``.  This
test wraps the same names with counting wrappers, runs a tiny
``run_study``, and checks that every wrapper ran, so a refactor that
stops calling through one of them fails here rather than in an empty
trace ledger.
"""

import functools

import repro.evaluation.study as study
import repro.predictor.dataset as dataset
import repro.predictor.estimator as estimator
from repro.evaluation.study import StudyConfig, run_study
from repro.hardware import resolve_device
from repro.simulation.executor import QPUExecutor

HOOKS = [
    (study, "train_and_evaluate"),
    (dataset, "compile_batch"),
    (dataset, "ideal_distributions"),
    (dataset, "hellinger_distance"),
    (dataset, "feature_vector"),
    (dataset, "gate_count"),
    (dataset, "circuit_depth"),
    (dataset, "expected_fidelity"),
    (dataset, "esp"),
    (estimator, "grid_search"),
    (QPUExecutor, "run_batch"),
]


def counting(fn, calls, name):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_run_study_calls_through_every_traced_hook(monkeypatch):
    calls = {}
    for owner, name in HOOKS:
        calls[name] = 0
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), calls, name))

    config = StudyConfig(
        max_qubits=3,
        shots=100,
        optimization_level=1,
        max_workers=1,
        param_grid={
            "n_estimators": [4],
            "max_depth": [3],
            "min_samples_leaf": [1],
            "min_samples_split": [2],
        },
    )
    run_study(devices=[resolve_device("q20a")], config=config)
    assert {name: count for name, count in calls.items() if not count} == {}
