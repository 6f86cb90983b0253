"""Unit tests for the random forest regressor."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import pearson_r


def _regression_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 5))
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] + 0.05 * rng.standard_normal(n)
    return X, y


def test_fits_nonlinear_function():
    X, y = _regression_data()
    forest = RandomForestRegressor(n_estimators=40, random_state=0).fit(X, y)
    predictions = forest.predict(X)
    assert pearson_r(y, predictions) > 0.97


def test_generalizes_to_test_set():
    X, y = _regression_data(400)
    forest = RandomForestRegressor(n_estimators=40, random_state=1)
    forest.fit(X[:300], y[:300])
    assert pearson_r(y[300:], forest.predict(X[300:])) > 0.9


def test_feature_importances_sum_to_one():
    X, y = _regression_data()
    forest = RandomForestRegressor(n_estimators=20, random_state=2).fit(X, y)
    assert forest.feature_importances_.sum() == pytest.approx(1.0)
    # Features 0 and 1 carry the signal.
    top_two = set(np.argsort(forest.feature_importances_)[-2:])
    assert top_two == {0, 1}


def test_deterministic_given_seed():
    X, y = _regression_data(100)
    a = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y)
    b = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))


def test_seed_changes_model():
    X, y = _regression_data(100)
    a = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y)
    b = RandomForestRegressor(n_estimators=10, random_state=4).fit(X, y)
    assert not np.array_equal(a.predict(X), b.predict(X))


def test_bootstrap_off_uses_all_rows():
    X, y = _regression_data(80)
    forest = RandomForestRegressor(
        n_estimators=5, bootstrap=False, max_features=None, random_state=0
    ).fit(X, y)
    # Without bootstrap or feature sampling all trees are identical.
    preds = np.stack([t.predict(X) for t in forest.estimators_])
    assert np.allclose(preds, preds[0])


def test_predictions_within_label_range():
    X, y = _regression_data()
    forest = RandomForestRegressor(n_estimators=15, random_state=5).fit(X, y)
    predictions = forest.predict(X)
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9


def test_predict_std_nonnegative():
    X, y = _regression_data(100)
    forest = RandomForestRegressor(n_estimators=10, random_state=6).fit(X, y)
    std = forest.predict_std(X)
    assert np.all(std >= 0)


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict([[0.0]])


def test_invalid_n_estimators():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0).fit(
            np.zeros((5, 2)), np.zeros(5)
        )


def test_clone_params_roundtrip():
    forest = RandomForestRegressor(n_estimators=7, max_depth=3)
    clone = forest.clone()
    assert clone.get_params() == forest.get_params()
    clone.set_params(n_estimators=9)
    assert forest.n_estimators == 7


def test_hyperparameters_forwarded_to_trees():
    X, y = _regression_data(100)
    forest = RandomForestRegressor(
        n_estimators=3, max_depth=2, random_state=0
    ).fit(X, y)
    assert all(tree.depth() <= 2 for tree in forest.estimators_)


def test_max_workers_does_not_change_model():
    X, y = _regression_data(120)
    seq = RandomForestRegressor(
        n_estimators=12, random_state=7, max_workers=1
    ).fit(X, y)
    par = RandomForestRegressor(
        n_estimators=12, random_state=7, max_workers=4
    ).fit(X, y)
    assert np.array_equal(seq.predict(X), par.predict(X))
    assert np.array_equal(seq.feature_importances_, par.feature_importances_)


def test_max_workers_in_params_roundtrip():
    forest = RandomForestRegressor(max_workers=3)
    clone = forest.clone()
    assert clone.max_workers == 3
    clone.set_params(max_workers=None)
    assert forest.max_workers == 3


# ----------------------------------------------------------------------
# Fine-tune machinery: fit_new_trees / refreshed
# ----------------------------------------------------------------------


def test_fit_new_trees_prefix_property():
    """The first k of n new trees equal a k-tree fit: one max-count fit
    serves a whole refresh-size sweep by slicing prefixes."""
    X, y = _regression_data(120)
    forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
    many = forest.fit_new_trees(X, y, 8, random_state=17)
    few = forest.fit_new_trees(X, y, 3, random_state=17)
    assert len(many) == 8 and len(few) == 3
    for tree_a, tree_b in zip(many, few):
        assert np.array_equal(tree_a.predict(X), tree_b.predict(X))


def test_fit_new_trees_worker_invariance():
    X, y = _regression_data(150)
    forest = RandomForestRegressor(n_estimators=4, random_state=1).fit(X, y)
    baseline = None
    for workers in (1, 2, 4):
        trees = forest.fit_new_trees(
            X, y, 6, random_state=23, max_workers=workers
        )
        stacked = np.stack([tree.predict(X) for tree in trees])
        if baseline is None:
            baseline = stacked
        else:
            assert np.array_equal(stacked, baseline), workers


def test_refreshed_appends_trees():
    X, y = _regression_data(100)
    forest = RandomForestRegressor(n_estimators=5, random_state=2).fit(X, y)
    trees = forest.fit_new_trees(X, y, 3, random_state=5)
    grown = forest.refreshed(trees)
    assert grown.n_estimators == 8
    assert len(grown.estimators_) == 8
    # Original members first, in order; the original forest is untouched.
    for kept, original in zip(grown.estimators_, forest.estimators_):
        assert kept is original
    assert forest.n_estimators == 5
    assert grown.feature_importances_.sum() == pytest.approx(1.0)


def test_refreshed_replace_keeps_size():
    X, y = _regression_data(100)
    forest = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y)
    trees = forest.fit_new_trees(X, y, 2, random_state=5)
    swapped = forest.refreshed(trees, replace=True)
    assert swapped.n_estimators == 5
    # The two oldest members retired; the three youngest survive.
    assert swapped.estimators_[:3] == forest.estimators_[2:]
    assert swapped.estimators_[3:] == list(trees)


def test_refreshed_requires_fit_and_trees():
    X, y = _regression_data(60)
    fitted = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
    with pytest.raises(RuntimeError):
        RandomForestRegressor(n_estimators=3).refreshed(fitted.estimators_)
    with pytest.raises(ValueError):
        fitted.refreshed([])
    with pytest.raises(ValueError):
        fitted.fit_new_trees(X, y, 0, random_state=0)
