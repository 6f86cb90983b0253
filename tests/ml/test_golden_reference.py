"""Golden tests: the vectorized training layer vs the frozen original.

PR 3 rebuilt ``DecisionTreeRegressor.fit`` (presorted features, one
cumulative-sum sweep per node, iterative frontier), parallelized
``RandomForestRegressor.fit`` and ``grid_search``, and added
cross-candidate work sharing to the forest grid search.  All of that is
required to be **bit-identical** to the original recursive sequential
implementation, which is preserved verbatim in ``reference_impl.py``.
Since then the forest grows all of its trees in one lockstep sweep
(``repro.ml.tree.fit_trees``), and a single tree is that sweep's one-tree
case; the lockstep matrix below pins every tree-shape knob against the
same frozen reference.  Every comparison here uses exact equality — no
tolerances.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.evaluation.persistence import save_model
from repro.ml.forest import RandomForestRegressor
from repro.ml.model_selection import grid_search
from repro.ml.tree import DecisionTreeRegressor
from repro.predictor.estimator import HellingerEstimator

from . import reference_impl as ref

TREE_CONFIGS = [
    {},
    {"max_depth": 3},
    {"min_samples_leaf": 4},
    {"min_samples_split": 10},
    {"max_features": "sqrt", "random_state": 0},
    {"max_features": "log2", "random_state": 5},
    {"max_features": 0.5, "random_state": 1},
    {"max_features": 2, "random_state": 9},
    {"max_depth": 6, "max_features": "sqrt", "random_state": 3,
     "min_samples_leaf": 2},
]


def _dataset(seed, n, m, constant=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(n)
    # Quantize one feature so duplicate values (tie handling) are exercised.
    X[:, 0] = np.round(X[:, 0], 1)
    if constant:
        y = np.full(n, 1e10)
    return X, y, rng.uniform(size=(37, m))


@pytest.mark.parametrize("shape", [(60, 3), (150, 8), (250, 30), (40, 1)])
def test_tree_bit_identical_to_reference(shape):
    X, y, X_query = _dataset(hash(shape) % 1000, *shape)
    for config in TREE_CONFIGS:
        old = ref.DecisionTreeRegressor(**config).fit(X, y)
        new = DecisionTreeRegressor(**config).fit(X, y)
        assert np.array_equal(old.predict(X_query), new.predict(X_query)), config
        assert np.array_equal(
            old.feature_importances_, new.feature_importances_
        ), config
        assert old.depth() == new.depth(), config
        assert old.num_leaves() == new.num_leaves(), config


def test_tree_constant_huge_labels_stay_leaf():
    """Near-zero variance from float rounding must not create splits."""
    X, y, X_query = _dataset(7, 90, 30, constant=True)
    for config in TREE_CONFIGS:
        old = ref.DecisionTreeRegressor(**config).fit(X, y)
        new = DecisionTreeRegressor(**config).fit(X, y)
        assert np.array_equal(old.predict(X_query), new.predict(X_query))
        assert old.num_leaves() == new.num_leaves() == 1


@pytest.mark.parametrize("config", [
    {"n_estimators": 10, "random_state": 0},
    {"n_estimators": 15, "random_state": 3, "max_depth": 5},
    {"n_estimators": 8, "random_state": 1, "bootstrap": False},
    {"n_estimators": 12, "random_state": 2, "min_samples_leaf": 3,
     "max_features": "sqrt"},
])
def test_forest_bit_identical_to_reference(config):
    X, y, X_query = _dataset(11, 120, 12)
    old = ref.RandomForestRegressor(**config).fit(X, y)
    new = RandomForestRegressor(**config).fit(X, y)
    assert np.array_equal(old.predict(X_query), new.predict(X_query))
    assert np.array_equal(old.feature_importances_, new.feature_importances_)
    assert np.array_equal(old.predict_std(X_query), new.predict_std(X_query))


def test_forest_grid_search_bit_identical_to_reference():
    """The work-sharing forest grid path (prefix trees across
    ``n_estimators``, depth-cap reuse, shared per-tree predictions) must
    reproduce every candidate's CV score exactly."""
    X, y, _ = _dataset(21, 100, 10)
    grid = {
        "n_estimators": [5, 10],
        "max_depth": [None, 4, 16],
        "min_samples_leaf": [1, 2],
        "min_samples_split": [2, 4],
    }
    old_best, old_score, old_results = ref.grid_search(
        ref.RandomForestRegressor(random_state=0, max_features="sqrt"),
        grid, X, y, n_splits=3, seed=0,
    )
    new = grid_search(
        RandomForestRegressor(random_state=0, max_features="sqrt"),
        grid, X, y, n_splits=3, seed=0,
    )
    assert new.best_params == old_best
    assert new.best_score == old_score
    assert len(new.results) == len(old_results)
    for (old_params, old_mean), (new_params, new_mean) in zip(
        old_results, new.results
    ):
        assert old_params == new_params
        assert old_mean == new_mean


def test_generic_grid_search_bit_identical_to_reference():
    """Non-forest models take the generic path; it must match too."""
    X, y, _ = _dataset(31, 90, 4)
    grid = {"max_depth": [2, 4, 8], "min_samples_leaf": [1, 3]}
    old_best, old_score, old_results = ref.grid_search(
        ref.DecisionTreeRegressor(random_state=0), grid, X, y,
        n_splits=3, seed=2,
    )
    new = grid_search(
        DecisionTreeRegressor(random_state=0), grid, X, y, n_splits=3, seed=2
    )
    assert new.best_params == old_best
    assert new.best_score == old_score
    for (old_params, old_mean), (new_params, new_mean) in zip(
        old_results, new.results
    ):
        assert old_params == new_params
        assert old_mean == new_mean


def _assert_forests_equal(old, new, X_query):
    assert len(old.estimators_) == len(new.estimators_)
    assert np.array_equal(old.predict(X_query), new.predict(X_query))
    assert np.array_equal(old.predict_std(X_query), new.predict_std(X_query))
    assert np.array_equal(old.feature_importances_, new.feature_importances_)
    for old_tree, new_tree in zip(old.estimators_, new.estimators_):
        assert old_tree.depth() == new_tree.depth()
        assert old_tree.num_leaves() == new_tree.num_leaves()


@pytest.mark.parametrize(
    "min_samples_leaf, max_depth, max_features, bootstrap",
    list(itertools.product([1, 2], [None, 3, 10], ["sqrt", None, 4], [True, False])),
)
def test_lockstep_forest_knobs_match_reference(
    min_samples_leaf, max_depth, max_features, bootstrap
):
    """Every tree-shape knob of the lockstep sweep, two trees at a time
    (the second tree's nodes pad against the first's)."""
    X, y, X_query = _dataset(41, 60, 8)
    params = dict(
        n_estimators=2, random_state=7, min_samples_leaf=min_samples_leaf,
        max_depth=max_depth, max_features=max_features, bootstrap=bootstrap,
    )
    old = ref.RandomForestRegressor(**params).fit(X, y)
    new = RandomForestRegressor(**params).fit(X, y)
    _assert_forests_equal(old, new, X_query)


@pytest.fixture(scope="module")
def lockstep_data():
    return _dataset(43, 70, 8)


@pytest.fixture(scope="module")
def reference_forests(lockstep_data):
    X, y, _ = lockstep_data
    return {
        n_estimators: ref.RandomForestRegressor(
            n_estimators=n_estimators, random_state=3, max_features="sqrt",
            min_samples_leaf=2,
        ).fit(X, y)
        for n_estimators in (1, 2, 50)
    }


@pytest.mark.parametrize("max_workers", [1, 2])
@pytest.mark.parametrize("n_estimators", [1, 2, 50])
def test_lockstep_forest_sizes_and_workers_match_reference(
    lockstep_data, reference_forests, n_estimators, max_workers
):
    """One tree, a pair, and a full forest, fitted in one sweep or in one
    contiguous chunk of trees per worker."""
    X, y, X_query = lockstep_data
    new = RandomForestRegressor(
        n_estimators=n_estimators, random_state=3, max_features="sqrt",
        min_samples_leaf=2, max_workers=max_workers,
    ).fit(X, y)
    _assert_forests_equal(reference_forests[n_estimators], new, X_query)


#: SHA-256 of the ``save_model`` file below, as the per-tree fit that the
#: lockstep sweep replaced wrote it.
PINNED_MODEL_SHA256 = (
    "105e7738a8c72b3da3e74891668549d67bbef741da352d40654f9e81a98b4c0c"
)


def test_saved_model_bytes_are_pinned(tmp_path):
    """A grid-searched estimator saves to exactly the bytes the per-tree
    fit saved: the lockstep sweep changes no node, importance or meta
    field."""
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(70, 12))
    y = np.sin(2 * X[:, 1]) + 0.2 * rng.standard_normal(70)
    X[:, 0] = np.round(X[:, 0], 1)
    grid = {
        "n_estimators": [20], "max_depth": [None, 4],
        "min_samples_leaf": [1, 2], "min_samples_split": [2],
    }
    estimator = HellingerEstimator(
        param_grid=grid, n_splits=3, seed=0, max_workers=1
    ).fit(X, y)
    path = save_model(estimator, tmp_path / "model.npz")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256
