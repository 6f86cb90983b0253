"""Unit tests for the Hellinger estimator (the proposed figure of merit)."""

import json

import numpy as np
import pytest

from repro.compiler.search import model_fingerprint
from repro.evaluation.persistence import save_model
from repro.ml.model_selection import split_indices
from repro.predictor.estimator import (
    DEFAULT_PARAM_GRID,
    HellingerEstimator,
    train_and_evaluate,
)

SMALL_GRID = {"n_estimators": [20], "max_depth": [10], "min_samples_leaf": [1],
              "min_samples_split": [2]}


def _synthetic_labels(n=150, seed=0):
    """Labels resembling Hellinger distances driven by 30 features."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 30))
    raw = 2.2 * X[:, 12] + 1.4 * X[:, 8] + 0.7 * X[:, 17]
    y = 1.0 - np.exp(-raw)
    y += 0.02 * rng.standard_normal(n)
    return X, np.clip(y, 0, 1)


def test_fit_predict_quality():
    X, y = _synthetic_labels()
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=0).fit(X, y)
    assert estimator.score(X, y) > 0.9


def test_unfitted_raises():
    estimator = HellingerEstimator()
    with pytest.raises(RuntimeError):
        estimator.predict(np.zeros((1, 30)))
    with pytest.raises(RuntimeError):
        _ = estimator.feature_importances_


def test_grid_search_records_best_params():
    X, y = _synthetic_labels(80)
    grid = {"n_estimators": [5, 15], "max_depth": [2, 6],
            "min_samples_leaf": [1], "min_samples_split": [2]}
    estimator = HellingerEstimator(param_grid=grid, seed=1).fit(X, y)
    assert set(estimator.best_params_) == set(grid)
    assert np.isfinite(estimator.cv_score_)


def test_feature_importances_highlight_signal():
    X, y = _synthetic_labels(300, seed=2)
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=2).fit(X, y)
    top = set(np.argsort(estimator.feature_importances_)[-3:])
    assert 12 in top


def test_default_grid_matches_paper_hyperparameters():
    assert "n_estimators" in DEFAULT_PARAM_GRID
    assert "max_depth" in DEFAULT_PARAM_GRID
    assert "min_samples_leaf" in DEFAULT_PARAM_GRID
    assert "min_samples_split" in DEFAULT_PARAM_GRID


def test_train_and_evaluate_protocol():
    X, y = _synthetic_labels(200, seed=3)
    report = train_and_evaluate(
        X, y, device_name="TEST", test_size=0.2, n_splits=3, seed=0,
        param_grid=SMALL_GRID,
    )
    assert report.device_name == "TEST"
    assert len(report.y_test) == 40
    assert len(report.y_test_pred) == 40
    assert report.test_pearson > 0.8
    assert report.train_pearson >= report.test_pearson - 0.1
    assert report.feature_importances.shape == (30,)


def test_train_test_split_is_disjoint():
    X, y = _synthetic_labels(100, seed=4)
    report = train_and_evaluate(
        X, y, test_size=0.2, seed=5, param_grid=SMALL_GRID
    )
    assert len(set(report.test_indices.tolist())) == len(report.test_indices)
    assert len(report.test_indices) == 20
    _, test_idx = split_indices(100, test_size=0.2, seed=5)
    assert np.array_equal(report.test_indices, test_idx)


def test_deterministic_given_seed():
    X, y = _synthetic_labels(100, seed=6)
    a = train_and_evaluate(X, y, seed=7, param_grid=SMALL_GRID)
    b = train_and_evaluate(X, y, seed=7, param_grid=SMALL_GRID)
    assert a.test_pearson == pytest.approx(b.test_pearson)
    assert np.array_equal(a.test_indices, b.test_indices)


# ----------------------------------------------------------------------
# Cheap refresh: fine_tune / with_trees
# ----------------------------------------------------------------------


def test_fine_tune_appends_without_touching_original():
    X, y = _synthetic_labels()
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=0).fit(X, y)
    before = estimator.predict(X).copy()
    tuned = estimator.fine_tune(X, y, n_trees=5)
    assert tuned is not estimator
    assert tuned.model.n_estimators == estimator.model.n_estimators + 5
    assert tuned.best_params_ == estimator.best_params_
    # The original keeps predicting exactly what it predicted before.
    assert np.array_equal(estimator.predict(X), before)


def test_fine_tune_replace_keeps_forest_size():
    X, y = _synthetic_labels()
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=1).fit(X, y)
    tuned = estimator.fine_tune(X, y, n_trees=4, replace=True)
    assert tuned.model.n_estimators == estimator.model.n_estimators


def test_fine_tune_tracks_fresh_labels():
    """Replacing the whole forest with trees fit on shifted labels must
    move predictions toward the new labels."""
    X, y = _synthetic_labels()
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=2).fit(X, y)
    shifted = np.clip(y * 0.5, 0, 1)
    tuned = estimator.fine_tune(X, shifted, n_trees=20, replace=True)
    stale_error = np.mean(np.abs(estimator.predict(X) - shifted))
    tuned_error = np.mean(np.abs(tuned.predict(X) - shifted))
    assert tuned_error < stale_error


def test_fine_tune_worker_matrix_bit_identical():
    """Both refresh strategies are worker-invariant: the fine-tuned and
    the retrained estimator each predict bit-identically for 1, 2 and 4
    workers."""
    X, y = _synthetic_labels(n=120)
    fine_tuned, retrained = None, None
    for workers in (1, 2, 4):
        estimator = HellingerEstimator(
            param_grid=SMALL_GRID, seed=3, max_workers=workers
        ).fit(X, y)
        tuned = estimator.fine_tune(X, y, n_trees=6)
        fresh = HellingerEstimator(
            param_grid=SMALL_GRID, seed=4, max_workers=workers
        ).fit(X, y)
        tuned_pred = tuned.predict(X)
        fresh_pred = fresh.predict(X)
        if fine_tuned is None:
            fine_tuned, retrained = tuned_pred, fresh_pred
        else:
            assert np.array_equal(tuned_pred, fine_tuned), workers
            assert np.array_equal(fresh_pred, retrained), workers


def test_worker_count_is_not_part_of_model_identity(tmp_path):
    """How many workers trained a model changes neither its content
    fingerprint (the leaderboard key) nor the params it saves."""
    X, y = _synthetic_labels(n=90)
    fingerprints, metas, predictions = [], [], []
    for workers in (1, 2, 4):
        estimator = HellingerEstimator(
            param_grid=SMALL_GRID, seed=6, max_workers=workers
        ).fit(X, y)
        fingerprints.append(model_fingerprint(estimator))
        path = save_model(estimator, tmp_path / f"workers-{workers}.npz")
        with np.load(path) as archive:
            metas.append(json.loads(bytes(archive["meta"]).decode("utf-8")))
        predictions.append(estimator.predict(X))
    assert fingerprints == [fingerprints[0]] * 3
    assert all(meta == metas[0] for meta in metas)
    assert "max_workers" not in metas[0]["params"]
    assert all(np.array_equal(p, predictions[0]) for p in predictions)


def test_fine_tune_prefix_matches_smaller_refresh():
    """fine_tune(n) prefixes agree: slicing a big refresh equals asking
    for a small one (the drift study's one-fit sweep relies on this)."""
    X, y = _synthetic_labels()
    estimator = HellingerEstimator(param_grid=SMALL_GRID, seed=5).fit(X, y)
    big = estimator.model.fit_new_trees(X, y, 8, random_state=99)
    small = estimator.fine_tune(X, y, n_trees=3, random_state=99)
    via_prefix = estimator.with_trees(big[:3])
    assert np.array_equal(small.predict(X), via_prefix.predict(X))


def test_fine_tune_requires_fit():
    with pytest.raises(RuntimeError):
        HellingerEstimator(param_grid=SMALL_GRID).fine_tune(
            np.zeros((4, 30)), np.zeros(4), n_trees=2
        )
