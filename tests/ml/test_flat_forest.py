"""The flat-forest descent vs the frozen per-tree prediction loop.

Every tree and forest prediction runs on :class:`repro.ml.tree.FlatForest`:
all member trees' node arrays concatenated, descended together.  These
tests pin it **bit for bit** against the per-tree loop it replaced
(``reference_impl.per_tree_predict``), for every caller of the kernel —
tree and forest predict, ``predict_std``, the grid search's prefix
scoring — and for every way a forest gets its trees (fit, refresh,
fine-tune, model load, unpickling in a pool worker).  Reference answers
use several query rows: there ``mean(axis=0)`` sums sequentially, as the
forest does for every row count.
"""

import numpy as np
import pytest

from repro.compiler.search import model_fingerprint
from repro.evaluation.persistence import load_model, save_model
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import pearson_r
from repro.ml.model_selection import _score_forest_group
from repro.ml.tree import DecisionTreeRegressor, FlatForest, TREE_ARRAY_KEYS
from repro.parallel import parallel_map
from repro.predictor.estimator import HellingerEstimator

from . import reference_impl as ref
from .test_golden_reference import TREE_CONFIGS, _dataset

FOREST_CONFIGS = [
    {"n_estimators": 10, "random_state": 0},
    {"n_estimators": 15, "random_state": 3, "max_depth": 5},
    {"n_estimators": 8, "random_state": 1, "bootstrap": False},
    {"n_estimators": 12, "random_state": 2, "min_samples_leaf": 3,
     "max_features": "sqrt"},
    {"n_estimators": 24, "random_state": 4, "max_depth": 2},
]


def _assert_same(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _forest(config, shape=(120, 12), seed=11):
    X, y, X_query = _dataset(seed, *shape)
    return RandomForestRegressor(**config).fit(X, y), X, y, X_query


@pytest.mark.parametrize("shape", [(60, 3), (150, 8), (40, 1)])
def test_tree_predict_matches_per_tree_reference(shape):
    X, y, X_query = _dataset(hash(shape) % 1000, *shape)
    for config in TREE_CONFIGS:
        tree = DecisionTreeRegressor(**config).fit(X, y)
        _assert_same(tree.predict(X_query), ref.per_tree_predict(tree, X_query))
        _assert_same(tree.predict(X), ref.per_tree_predict(tree, X))


def test_mixed_depths_and_single_leaf_trees_share_one_descent():
    """Depth-capped, unbounded and single-leaf trees in one flat forest:
    shallow trees park at their (self-linked) leaves while deep ones
    keep descending, and offsets keep every tree on its own nodes."""
    X, y, X_query = _dataset(5, 150, 8)
    trees = [DecisionTreeRegressor(**config).fit(X, y) for config in TREE_CONFIGS]
    leaf_only = DecisionTreeRegressor().fit(X, np.full(len(y), 0.25))
    assert leaf_only.num_nodes() == 1
    trees.insert(3, leaf_only)
    trees.append(leaf_only)
    flat = FlatForest(trees)
    assert flat.depth == max(tree.depth() for tree in trees)
    _assert_same(flat.leaf_values(X_query), ref.per_tree_matrix(trees, X_query))
    _assert_same(leaf_only.predict(X_query), np.full(len(X_query), 0.25))


@pytest.mark.parametrize("config", FOREST_CONFIGS)
def test_forest_predict_and_std_match_per_tree_reference(config):
    forest, _, _, X_query = _forest(config)
    _assert_same(forest.predict(X_query), ref.per_tree_forest_predict(forest, X_query))
    _assert_same(
        forest.predict_std(X_query),
        ref.per_tree_forest_predict_std(forest, X_query),
    )


@pytest.mark.parametrize("config", FOREST_CONFIGS)
def test_solo_answer_equals_its_batched_answer(config):
    """A row's prediction does not depend on the rows sharing its call."""
    forest, _, _, X_query = _forest(config)
    rng = np.random.default_rng(config["random_state"])
    for _ in range(5):
        batch = X_query[rng.choice(len(X_query), size=rng.integers(2, 9))]
        batched = forest.predict(batch)
        batched_std = forest.predict_std(batch)
        for i in range(len(batch)):
            solo = batch[i:i + 1]
            _assert_same(forest.predict(solo), batched[i:i + 1])
            _assert_same(forest.predict_std(solo), batched_std[i:i + 1])


def test_grid_prefix_scores_match_per_candidate_reference():
    """The grid search scores every (n_estimators, max_depth) candidate
    from one descent over the group's trees; each score equals fitting
    that candidate alone and predicting with the per-tree loop."""
    X, y, _ = _dataset(21, 100, 10)
    train_idx, test_idx = np.arange(70), np.arange(70, 100)
    template = RandomForestRegressor(random_state=0, max_features="sqrt")
    candidates = [(n, depth) for depth in (None, 3, 16) for n in (4, 9)]
    group = {"forest": template, "depths": {}, "max_n": 9}
    for index, (_, depth) in enumerate(candidates):
        group["depths"].setdefault(depth, []).append(index)
    n_by_index = {index: n for index, (n, _) in enumerate(candidates)}
    scored = dict(_score_forest_group(
        group, (train_idx, test_idx), X, y, n_by_index, pearson_r
    ))
    assert sorted(scored) == list(range(len(candidates)))
    for index, (n, depth) in enumerate(candidates):
        forest = template.clone().set_params(n_estimators=n, max_depth=depth)
        forest.fit(X[train_idx], y[train_idx])
        expected = pearson_r(
            y[test_idx], ref.per_tree_forest_predict(forest, X[test_idx])
        )
        assert scored[index] == expected, (n, depth)


def test_npz_roundtrip_stores_only_the_tree_arrays(tmp_path):
    forest, _, _, X_query = _forest(FOREST_CONFIGS[0])
    path = save_model(forest, tmp_path / "forest.npz")
    with np.load(path) as data:
        stored = set(data.files)
    expected = {"meta", "forest_importances"} | {
        f"tree{index}_{key}"
        for index in range(len(forest.estimators_))
        for key in (*TREE_ARRAY_KEYS, "importances")
    }
    assert stored == expected
    loaded = load_model(path)
    assert model_fingerprint(loaded) == model_fingerprint(forest)
    _assert_same(loaded.predict(X_query), ref.per_tree_forest_predict(forest, X_query))
    _assert_same(
        loaded.predict_std(X_query),
        ref.per_tree_forest_predict_std(forest, X_query),
    )


@pytest.mark.parametrize("replace", [False, True])
def test_refreshed_forest_descends_its_new_trees(replace):
    forest, X, y, X_query = _forest(FOREST_CONFIGS[0])
    before = forest.predict(X_query)
    trees = forest.fit_new_trees(X, 1.0 - y, n_trees=4, random_state=9)
    grown = forest.refreshed(trees, replace=replace)
    expected = ref.per_tree_forest_predict(grown, X_query)
    _assert_same(grown.predict(X_query), expected)
    _assert_same(
        grown.predict_std(X_query), ref.per_tree_forest_predict_std(grown, X_query)
    )
    assert not np.array_equal(expected, before)
    _assert_same(forest.predict(X_query), before)


@pytest.mark.parametrize("replace", [False, True])
def test_fine_tuned_estimator_descends_its_new_trees(replace):
    X, y, X_query = _dataset(13, 90, 6)
    grid = {"n_estimators": [6], "max_depth": [None], "min_samples_leaf": [1],
            "min_samples_split": [2]}
    estimator = HellingerEstimator(param_grid=grid, seed=0).fit(X, y)
    before = estimator.predict(X_query)
    tuned = estimator.fine_tune(X, 1.0 - y, n_trees=3, replace=replace)
    expected = ref.per_tree_forest_predict(tuned.model, X_query)
    _assert_same(tuned.predict(X_query), expected)
    assert not np.array_equal(expected, before)
    _assert_same(estimator.predict(X_query), before)


def _predict_in_worker(item):
    forest, X = item
    return forest.predict(X), forest.predict_std(X)


def test_forest_pickled_across_a_process_pool():
    forest, _, _, X_query = _forest(FOREST_CONFIGS[1])
    chunks = np.array_split(X_query, 3)
    results = parallel_map(
        _predict_in_worker, [(forest, chunk) for chunk in chunks],
        max_workers=2, mode="process",
    )
    for chunk, (predictions, std) in zip(chunks, results):
        _assert_same(predictions, ref.per_tree_forest_predict(forest, chunk))
        _assert_same(std, ref.per_tree_forest_predict_std(forest, chunk))


def test_zero_row_queries():
    forest, X, _, _ = _forest(FOREST_CONFIGS[0])
    empty = np.empty((0, X.shape[1]))
    _assert_same(forest.predict(empty), np.empty(0))
    _assert_same(forest.predict_std(empty), np.empty(0))
    _assert_same(forest.estimators_[0].predict(empty), np.empty(0))


def test_query_must_cover_every_split_feature():
    forest, X, _, X_query = _forest(FOREST_CONFIGS[0])
    with pytest.raises(ValueError, match="features"):
        forest.predict(X_query[:, :2])
    with pytest.raises(ValueError, match="2-D"):
        forest.predict(X_query[0])
