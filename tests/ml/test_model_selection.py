"""Unit tests for train/test splitting, k-fold CV, and grid search."""

import numpy as np
import pytest

from repro.ml.linear import LinearRegression
from repro.ml.model_selection import (
    KFold,
    cross_val_score,
    grid_search,
    split_indices,
    train_test_split,
)
from repro.ml.tree import DecisionTreeRegressor


def _data(n=100, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = X[:, 0] + 0.1 * rng.standard_normal(n)
    return X, y


def test_split_sizes():
    X, y = _data(100)
    Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.2, seed=1)
    assert len(Xte) == 20
    assert len(Xtr) == 80
    assert len(ytr) == 80


def test_split_partitions_data():
    X, y = _data(50)
    Xtr, Xte, _, _ = train_test_split(X, y, test_size=0.3, seed=2)
    combined = np.vstack([Xtr, Xte])
    assert combined.shape == X.shape
    # Every original row appears exactly once.
    original = {tuple(row) for row in X}
    recombined = {tuple(row) for row in combined}
    assert original == recombined


def test_split_deterministic():
    X, y = _data(40)
    a = train_test_split(X, y, seed=3)
    b = train_test_split(X, y, seed=3)
    assert np.array_equal(a[1], b[1])


def test_split_validates():
    X, y = _data(10)
    with pytest.raises(ValueError):
        train_test_split(X, y, test_size=0.0)
    with pytest.raises(ValueError):
        train_test_split(X, y[:5])


def test_split_indices_partition_and_match_train_test_split():
    X, y = _data(30)
    train_idx, test_idx = split_indices(len(X), test_size=0.2, seed=4)
    assert len(test_idx) == 6
    assert sorted(np.concatenate([train_idx, test_idx])) == list(range(30))
    Xtr, Xte, _, _ = train_test_split(X, y, test_size=0.2, seed=4)
    assert np.array_equal(Xtr, X[train_idx])
    assert np.array_equal(Xte, X[test_idx])


@pytest.mark.parametrize("test_size", [0.0, 1.0, -0.2, 1.5])
def test_split_indices_rejects_test_size_outside_unit_interval(test_size):
    with pytest.raises(ValueError, match="test_size"):
        split_indices(10, test_size=test_size)


def test_kfold_covers_all_indices():
    kf = KFold(n_splits=4, seed=0)
    seen = []
    for train_idx, test_idx in kf.split(21):
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        seen.extend(test_idx.tolist())
    assert sorted(seen) == list(range(21))


def test_kfold_validates():
    with pytest.raises(ValueError):
        KFold(n_splits=1)
    with pytest.raises(ValueError):
        list(KFold(n_splits=5).split(3))


def test_cross_val_score_shape_and_quality():
    X, y = _data(120)
    scores = cross_val_score(LinearRegression(), X, y, n_splits=3, seed=1)
    assert scores.shape == (3,)
    assert np.all(scores > 0.9)


def test_grid_search_finds_better_depth():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = np.sign(X[:, 0]) * np.sign(X[:, 1])  # needs depth >= 2
    result = grid_search(
        DecisionTreeRegressor(),
        {"max_depth": [1, 4]},
        X, y, n_splits=3, seed=0,
    )
    assert result.best_params == {"max_depth": 4}
    assert result.best_score > 0.8
    assert len(result.results) == 2


def test_grid_search_empty_grid_rejected():
    X, y = _data(30)
    with pytest.raises(ValueError):
        grid_search(DecisionTreeRegressor(), {"max_depth": []}, X, y)


def test_grid_search_multiple_parameters():
    X, y = _data(90)
    result = grid_search(
        DecisionTreeRegressor(),
        {"max_depth": [2, 3], "min_samples_leaf": [1, 5]},
        X, y, n_splits=3, seed=2,
    )
    assert len(result.results) == 4
    assert set(result.best_params) == {"max_depth", "min_samples_leaf"}


def test_cross_val_score_worker_invariant():
    X, y = _data(90)
    seq = cross_val_score(LinearRegression(), X, y, n_splits=3, max_workers=1)
    par = cross_val_score(LinearRegression(), X, y, n_splits=3, max_workers=3)
    assert np.array_equal(seq, par)


def test_grid_search_worker_invariant_forest_path():
    from repro.ml.forest import RandomForestRegressor

    rng = np.random.default_rng(8)
    X = rng.uniform(size=(80, 6))
    y = X[:, 0] - X[:, 3] + 0.1 * rng.standard_normal(80)
    grid = {"n_estimators": [4, 8], "max_depth": [None, 3]}
    base = RandomForestRegressor(random_state=0)
    seq = grid_search(base, grid, X, y, n_splits=3, seed=1, max_workers=1)
    par = grid_search(base, grid, X, y, n_splits=3, seed=1, max_workers=4)
    assert seq.best_params == par.best_params
    assert seq.best_score == par.best_score
    assert seq.results == par.results


def test_grid_search_worker_invariant_generic_path():
    X, y = _data(90)
    grid = {"max_depth": [2, 4], "min_samples_leaf": [1, 3]}
    seq = grid_search(DecisionTreeRegressor(random_state=0), X=X, y=y,
                      param_grid=grid, n_splits=3, seed=3, max_workers=1)
    par = grid_search(DecisionTreeRegressor(random_state=0), X=X, y=y,
                      param_grid=grid, n_splits=3, seed=3, max_workers=4)
    assert seq.results == par.results
