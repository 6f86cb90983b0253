"""Model persistence: save→load→predict bit-equality and error paths."""

import json

import numpy as np
import pytest

from repro.evaluation.persistence import (
    PersistenceError,
    load_model,
    save_model,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.predictor.estimator import HellingerEstimator


def _data(n=120, m=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, m))
    y = 1.0 - np.exp(-(2 * X[:, 1] + X[:, m - 1])) + 0.05 * rng.standard_normal(n)
    return X, y


def test_tree_roundtrip_bit_equal(tmp_path):
    X, y = _data()
    tree = DecisionTreeRegressor(
        max_depth=6, max_features="sqrt", random_state=3
    ).fit(X, y)
    path = save_model(tree, tmp_path / "tree.npz")
    loaded = load_model(path)
    assert isinstance(loaded, DecisionTreeRegressor)
    assert np.array_equal(tree.predict(X), loaded.predict(X))
    assert np.array_equal(
        tree.feature_importances_, loaded.feature_importances_
    )
    assert loaded.get_params() == tree.get_params()
    assert loaded.depth() == tree.depth()
    assert loaded.num_leaves() == tree.num_leaves()


def test_forest_roundtrip_bit_equal(tmp_path):
    X, y = _data()
    forest = RandomForestRegressor(n_estimators=9, random_state=1).fit(X, y)
    path = save_model(forest, tmp_path / "forest.npz")
    loaded = load_model(path)
    assert isinstance(loaded, RandomForestRegressor)
    assert np.array_equal(forest.predict(X), loaded.predict(X))
    assert np.array_equal(forest.predict_std(X), loaded.predict_std(X))
    assert np.array_equal(
        forest.feature_importances_, loaded.feature_importances_
    )
    assert loaded.get_params() == forest.get_params()
    assert len(loaded.estimators_) == 9


def test_file_with_legacy_worker_params_still_loads(tmp_path):
    """Model files written while forests stored their worker settings
    among their params (``max_workers``, ``workers_mode``) load, predict
    byte-equal, and still hit as an ArtifactStore estimator entry."""
    from repro.compiler.search import model_fingerprint
    from repro.evaluation.artifacts import ArtifactStore
    from repro.evaluation.persistence import MODEL, _model_body

    X, y = _data(100)
    grid = {"n_estimators": [6], "max_depth": [None, 4],
            "min_samples_leaf": [1], "min_samples_split": [2]}
    estimator = HellingerEstimator(param_grid=grid, seed=0).fit(X, y)
    body = _model_body(estimator)
    body["params"] = {
        **body["params"], "max_workers": 4, "workers_mode": "thread",
    }
    legacy = MODEL.layout.dump(MODEL.header(None), body)

    path = tmp_path / "legacy.npz"
    path.write_bytes(legacy)
    loaded = load_model(path)
    assert isinstance(loaded, HellingerEstimator)
    assert loaded.predict(X).tobytes() == estimator.predict(X).tobytes()
    assert model_fingerprint(loaded) == model_fingerprint(estimator)

    store = ArtifactStore(tmp_path / "store")
    store.path("estimator", "Q20-A", "abc").parent.mkdir(parents=True)
    store.path("estimator", "Q20-A", "abc").write_bytes(legacy)
    hit = store.get("estimator", "Q20-A", "abc")
    assert isinstance(hit, HellingerEstimator)
    assert hit.predict(X).tobytes() == estimator.predict(X).tobytes()


def test_estimator_roundtrip_bit_equal(tmp_path):
    X, y = _data(100)
    grid = {"n_estimators": [6], "max_depth": [None, 4],
            "min_samples_leaf": [1], "min_samples_split": [2]}
    estimator = HellingerEstimator(param_grid=grid, seed=0).fit(X, y)
    path = save_model(estimator, tmp_path / "estimator.npz")
    loaded = load_model(path)
    assert isinstance(loaded, HellingerEstimator)
    assert np.array_equal(estimator.predict(X), loaded.predict(X))
    assert np.array_equal(
        estimator.feature_importances_, loaded.feature_importances_
    )
    assert loaded.best_params_ == estimator.best_params_
    assert loaded.cv_score_ == estimator.cv_score_
    assert loaded.param_grid == estimator.param_grid
    assert loaded.score(X, y) == estimator.score(X, y)


def test_unfitted_models_rejected(tmp_path):
    for model in (DecisionTreeRegressor(), RandomForestRegressor(),
                  HellingerEstimator()):
        with pytest.raises(PersistenceError, match="unfitted"):
            save_model(model, tmp_path / "nope.npz")


def test_unsupported_object_rejected(tmp_path):
    with pytest.raises(PersistenceError, match="cannot persist"):
        save_model(object(), tmp_path / "nope.npz")


def test_missing_file_raises(tmp_path):
    with pytest.raises(PersistenceError, match="no model file"):
        load_model(tmp_path / "absent.npz")


def test_corrupted_file_raises(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not a numpy archive at all")
    with pytest.raises(PersistenceError, match="not a repro model file"):
        load_model(path)


def test_truncated_file_raises(tmp_path):
    X, y = _data(60, 4)
    tree = DecisionTreeRegressor(random_state=0).fit(X, y)
    path = save_model(tree, tmp_path / "tree.npz")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(PersistenceError):
        load_model(path)


def test_foreign_npz_raises(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, values=np.arange(4))
    with pytest.raises(PersistenceError, match="not a repro model file"):
        load_model(path)


def test_wrong_version_raises(tmp_path):
    X, y = _data(60, 4)
    path = save_model(DecisionTreeRegressor().fit(X, y), tmp_path / "t.npz")
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(data["meta"]).decode())
    meta["version"] = 999
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(PersistenceError, match="unsupported model version"):
        load_model(path)


def test_missing_array_raises(tmp_path):
    X, y = _data(60, 4)
    path = save_model(DecisionTreeRegressor().fit(X, y), tmp_path / "t.npz")
    data = dict(np.load(path, allow_pickle=False))
    del data["tree_threshold"]
    np.savez(path, **data)
    with pytest.raises(PersistenceError, match="missing array"):
        load_model(path)


def test_corrupted_child_pointers_raise(tmp_path):
    """Backward/cyclic child links must be rejected, not walked."""
    X, y = _data(60, 4)
    tree = DecisionTreeRegressor(random_state=0, max_depth=3).fit(X, y)
    path = save_model(tree, tmp_path / "t.npz")
    data = dict(np.load(path, allow_pickle=False))
    left = data["tree_left"].copy()
    internal = data["tree_feature"] >= 0
    left[np.nonzero(internal)[0][0]] = 0  # back-pointer -> cycle
    data["tree_left"] = left
    np.savez(path, **data)
    with pytest.raises(PersistenceError, match="bad child indices"):
        load_model(path)


def test_corrupted_node_depths_raise(tmp_path):
    """Prediction descends ``depth()`` levels, so an understated depth
    must be rejected rather than stop the descent early."""
    X, y = _data(60, 4)
    tree = DecisionTreeRegressor(random_state=0, max_depth=3).fit(X, y)
    path = save_model(tree, tmp_path / "t.npz")
    data = dict(np.load(path, allow_pickle=False))
    data["tree_node_depth"] = np.minimum(data["tree_node_depth"], 1)
    np.savez(path, **data)
    with pytest.raises(PersistenceError, match="bad node depths"):
        load_model(path)


def test_corrupted_feature_indices_raise(tmp_path):
    X, y = _data(60, 4)
    tree = DecisionTreeRegressor(random_state=0, max_depth=3).fit(X, y)
    path = save_model(tree, tmp_path / "t.npz")
    data = dict(np.load(path, allow_pickle=False))
    feature = data["tree_feature"].copy()
    feature[np.nonzero(feature >= 0)[0][0]] = 57  # > num_features
    data["tree_feature"] = feature
    np.savez(path, **data)
    with pytest.raises(PersistenceError, match="bad feature indices"):
        load_model(path)
