"""Stage caching: ``run_study(cache_dir=...)`` hit/miss/invalidation."""

import dataclasses
import json

import numpy as np
import pytest

import repro.evaluation.study as study_module
from repro.evaluation.persistence import PersistenceError
from repro.evaluation.study import StudyConfig, run_study

from .persistence_reference import load_dataset_cache, load_report_cache

TINY_CONFIG = StudyConfig(
    algorithms=["ghz", "bv", "qft"],
    max_qubits=5,
    shots=200,
    seed=0,
    optimization_level=1,
    param_grid={
        "n_estimators": [8],
        "max_depth": [4],
        "min_samples_leaf": [1],
        "min_samples_split": [2],
    },
)


def _config(**overrides) -> StudyConfig:
    return dataclasses.replace(TINY_CONFIG, **overrides)


def test_cache_roundtrip_reproduces_study(tmp_path):
    cold = run_study(config=_config(cache_dir=str(tmp_path)))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert any(name.startswith("dataset_Q20-A_") for name in files)
    assert any(name.startswith("dataset_Q20-B_") for name in files)
    assert any(name.startswith("report_Q20-A_") for name in files)
    assert any(name.startswith("report_Q20-B_") for name in files)

    warm = run_study(config=_config(cache_dir=str(tmp_path)))
    assert warm.correlations == cold.correlations
    assert warm.improvements == cold.improvements
    for name in cold.reports:
        assert np.array_equal(
            warm.reports[name].feature_importances,
            cold.reports[name].feature_importances,
        )
        assert warm.reports[name].best_params == cold.reports[name].best_params


def test_cache_hit_skips_build_and_train(tmp_path, monkeypatch):
    run_study(config=_config(cache_dir=str(tmp_path)))

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("stage re-ran despite a warm cache")

    monkeypatch.setattr(study_module, "build_dataset", boom)
    monkeypatch.setattr(study_module, "train_and_evaluate", boom)
    run_study(config=_config(cache_dir=str(tmp_path)))


@pytest.mark.parametrize("change", [
    {"shots": 300},
    {"seed": 1},
    {"optimization_level": 2},
    {"max_qubits": 6},
])
def test_changed_inputs_invalidate_dataset_cache(tmp_path, change):
    base = _config(cache_dir=str(tmp_path))
    changed = _config(cache_dir=str(tmp_path), **change)
    for name in ("Q20-A", "Q20-B"):
        assert base.dataset_fingerprint(name) != changed.dataset_fingerprint(name)
        assert base.report_fingerprint(name) != changed.report_fingerprint(name)


def test_changed_grid_invalidates_report_but_not_dataset(tmp_path):
    base = _config(cache_dir=str(tmp_path))
    changed = _config(
        cache_dir=str(tmp_path),
        param_grid={"n_estimators": [4], "max_depth": [2],
                    "min_samples_leaf": [1], "min_samples_split": [2]},
    )
    assert base.dataset_fingerprint("Q20-A") == changed.dataset_fingerprint("Q20-A")
    assert base.report_fingerprint("Q20-A") != changed.report_fingerprint("Q20-A")


def test_corrupted_cache_is_rebuilt(tmp_path):
    config = _config(cache_dir=str(tmp_path))
    cold = run_study(config=config)
    for path in tmp_path.iterdir():
        path.write_text("{ corrupted")
    rebuilt = run_study(config=config)
    assert rebuilt.correlations == cold.correlations
    # The rebuild must also have refreshed the cache files.
    for path in tmp_path.iterdir():
        json.loads(path.read_text())


def test_cache_loaders_reject_bad_files(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(PersistenceError, match="no dataset cache"):
        load_dataset_cache(missing, "abc")
    with pytest.raises(PersistenceError, match="no report cache"):
        load_report_cache(missing, "abc")

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all {")
    with pytest.raises(PersistenceError, match="unreadable"):
        load_dataset_cache(garbage, "abc")
    with pytest.raises(PersistenceError, match="unreadable"):
        load_report_cache(garbage, "abc")

    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(PersistenceError, match="not a dataset cache"):
        load_dataset_cache(foreign, "abc")
    with pytest.raises(PersistenceError, match="not a report cache"):
        load_report_cache(foreign, "abc")


def test_stale_fingerprint_rejected(tmp_path):
    config = _config(cache_dir=str(tmp_path))
    run_study(config=config)
    dataset_path = next(
        p for p in tmp_path.iterdir() if p.name.startswith("dataset_Q20-A_")
    )
    with pytest.raises(PersistenceError, match="different inputs"):
        load_dataset_cache(dataset_path, "0123456789abcdef")


def test_run_study_cache_dir_argument_overrides(tmp_path):
    run_study(config=TINY_CONFIG, cache_dir=str(tmp_path))
    assert any(
        p.name.startswith("dataset_") for p in tmp_path.iterdir()
    )


def test_device_content_change_invalidates_cache():
    """A device edited in place (same name) must miss the cache."""
    from repro.hardware import make_q20a

    config = _config()
    original = make_q20a()
    drifted = make_q20a()
    for qubit in drifted.true_calibration.t2:
        drifted.true_calibration.t2[qubit] *= 0.5
    assert config.dataset_fingerprint(original) != config.dataset_fingerprint(drifted)
    assert config.report_fingerprint(original) != config.report_fingerprint(drifted)
    # Identical content hashes identically (stable across objects).
    assert config.dataset_fingerprint(original) == config.dataset_fingerprint(make_q20a())


def test_fit_device_caches_the_report_and_optionally_the_model(tmp_path):
    from types import SimpleNamespace

    from repro.evaluation.artifacts import ArtifactStore
    from repro.evaluation.study import fit_device
    from repro.hardware import make_q20a

    rng = np.random.default_rng(0)
    data = SimpleNamespace(X=rng.uniform(size=(40, 30)), y=rng.uniform(size=40))
    device, config, store = make_q20a(), _config(), ArtifactStore(tmp_path)

    cold = fit_device(data, device, config, store)
    assert not cold.cached and cold.fit_s > 0 and cold.estimator is None
    assert [ref.kind for ref in store.refs()] == ["report"]
    warm = fit_device(data, device, config, store)
    assert warm.cached and warm.fit_s == 0.0
    assert np.array_equal(warm.report.y_test_pred, cold.report.y_test_pred)

    # The report alone cannot serve a caller that needs the model: both
    # are refitted, and the model is the one behind the report's score.
    pair = fit_device(data, device, config, store, keep_estimator=True)
    assert not pair.cached
    assert np.array_equal(
        pair.estimator.predict(data.X[pair.report.test_indices]),
        pair.report.y_test_pred,
    )
    again = fit_device(data, device, config, store, keep_estimator=True)
    assert again.cached
    assert np.array_equal(
        again.estimator.predict(data.X), pair.estimator.predict(data.X)
    )
