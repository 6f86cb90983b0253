"""Frozen copy of the pre-vectorization CART tree / random forest.

This module preserves, verbatim, the recursive pure-Python implementation
that shipped before the vectorized training layer (PR 3), so the golden
tests in ``test_golden_reference.py`` can assert bit-identical predictions
and feature importances between the two.  It also keeps the per-tree
prediction loop that the flat-forest descent replaced (at the end), for
``test_flat_forest.py``.  Do not "fix" or modernise this file: its value
is that it never changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """A tree node; leaves carry ``value``, internal nodes a split."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """Regression tree with variance-reduction splits.

    Args:
        max_depth: maximum tree depth (``None`` = unbounded).
        min_samples_split: minimum samples required to attempt a split.
        min_samples_leaf: minimum samples in each child.
        max_features: number of features examined per split: ``None`` (all),
            an int, a float fraction, or ``"sqrt"``/``"log2"``.
        random_state: seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: Optional[int] = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self._num_features = 0
        self.feature_importances_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def get_params(self) -> dict:
        """Hyper-parameters as a dict (grid-search support)."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "random_state": self.random_state,
        }

    def set_params(self, **params) -> "DecisionTreeRegressor":
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"unknown parameter '{key}'")
            setattr(self, key, value)
        return self

    def clone(self) -> "DecisionTreeRegressor":
        return DecisionTreeRegressor(**self.get_params())

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._num_features = X.shape[1]
        self._importance = np.zeros(self._num_features)
        rng = np.random.default_rng(self.random_state)
        self._root = self._build(X, y, depth=0, rng=rng)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance.copy()
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def num_leaves(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self._root)

    # ------------------------------------------------------------------

    def _n_split_features(self) -> int:
        m = self._num_features
        mf = self.max_features
        if mf is None:
            return m
        if mf == "sqrt":
            return max(1, int(math.sqrt(m)))
        if mf == "log2":
            return max(1, int(math.log2(m)))
        if isinstance(mf, float):
            return max(1, int(mf * m))
        return max(1, min(int(mf), m))

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        node_value = float(y.mean())
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y == y[0])
        ):
            return _Node(value=node_value)

        feature, threshold, gain = self._best_split(X, y, rng)
        if feature < 0:
            return _Node(value=node_value)

        mask = X[:, feature] <= threshold
        # Guard against degenerate thresholds: if two adjacent distinct
        # values are so close that their midpoint rounds onto one of them,
        # a child can end up empty — treat the node as a leaf instead.
        if not mask.any() or mask.all():
            return _Node(value=node_value)
        self._importance[feature] += gain * len(y)
        left = self._build(X[mask], y[mask], depth + 1, rng)
        right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return _Node(
            value=node_value, feature=feature, threshold=threshold,
            left=left, right=right,
        )

    def _best_split(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        n = len(y)
        parent_var = y.var()
        if parent_var <= 0:
            return -1, 0.0, 0.0
        k = self._n_split_features()
        if k < self._num_features:
            features = rng.choice(self._num_features, size=k, replace=False)
        else:
            features = np.arange(self._num_features)

        best_feature, best_threshold, best_gain = -1, 0.0, 0.0
        min_leaf = self.min_samples_leaf
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            # Cumulative sums allow O(n) evaluation of all split points.
            csum = np.cumsum(ys)
            csum_sq = np.cumsum(ys ** 2)
            total, total_sq = csum[-1], csum_sq[-1]
            # Valid split positions: between i and i+1 where value changes.
            idx = np.arange(min_leaf, n - min_leaf + 1)
            if len(idx) == 0:
                continue
            # Exclude positions where xs[i-1] == xs[i] (can't split there).
            distinct = xs[idx - 1] < xs[idx]
            idx = idx[distinct]
            if len(idx) == 0:
                continue
            left_n = idx.astype(float)
            right_n = n - left_n
            left_sum = csum[idx - 1]
            left_sq = csum_sq[idx - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_var = left_sq / left_n - (left_sum / left_n) ** 2
            right_var = right_sq / right_n - (right_sum / right_n) ** 2
            weighted = (left_n * left_var + right_n * right_var) / n
            gains = parent_var - weighted
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain + 1e-15:
                best_gain = float(gains[best_local])
                best_feature = int(feature)
                pos = idx[best_local]
                best_threshold = float((xs[pos - 1] + xs[pos]) / 2.0)
        return best_feature, best_threshold, best_gain



from typing import List, Optional

import numpy as np



class RandomForestRegressor:
    """Ensemble of variance-reduction CART trees.

    Args:
        n_estimators: number of trees.
        max_depth / min_samples_split / min_samples_leaf / max_features:
            per-tree hyper-parameters (see :class:`DecisionTreeRegressor`).
            ``max_features`` defaults to ``1.0`` (all features), matching
            scikit-learn's regressor default.
        bootstrap: sample training rows with replacement per tree.
        random_state: master seed; per-tree seeds derive from it.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: List[DecisionTreeRegressor] = []
        self.feature_importances_: Optional[np.ndarray] = None

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "random_state": self.random_state,
        }

    def set_params(self, **params) -> "RandomForestRegressor":
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"unknown parameter '{key}'")
            setattr(self, key, value)
        return self

    def clone(self) -> "RandomForestRegressor":
        return RandomForestRegressor(**self.get_params())

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        self.estimators_ = []
        importances = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31)),
            )
            if self.bootstrap:
                rows = rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            tree.fit(X[rows], y[rows])
            self.estimators_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Ensemble standard deviation (a crude predictive uncertainty)."""
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.std(axis=0)


# ----------------------------------------------------------------------
# Frozen copy of the pre-PR-3 sequential cross-validation / grid search.

import itertools

from repro.ml.metrics import pearson_r


class KFoldRef:
    def __init__(self, n_splits=3, seed=0):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n_samples):
        if n_samples < self.n_splits:
            raise ValueError("more folds than samples")
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n_samples)
        folds = np.array_split(order, self.n_splits)
        for i in range(self.n_splits):
            test_idx = folds[i]
            train_idx = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != i]
            )
            yield train_idx, test_idx


def cross_val_score(model, X, y, n_splits=3, seed=0, scorer=pearson_r):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    scores = []
    for train_idx, test_idx in KFoldRef(n_splits, seed).split(len(X)):
        fold_model = model.clone()
        fold_model.fit(X[train_idx], y[train_idx])
        predictions = fold_model.predict(X[test_idx])
        scores.append(scorer(y[test_idx], predictions))
    return np.array(scores)


def grid_search(model, param_grid, X, y, n_splits=3, seed=0, scorer=pearson_r):
    names = sorted(param_grid)
    combos = list(itertools.product(*(param_grid[name] for name in names)))
    if not combos:
        raise ValueError("empty parameter grid")
    results = []
    best_params = {}
    best_score = -np.inf
    for combo in combos:
        params = dict(zip(names, combo))
        candidate = model.clone().set_params(**params)
        scores = cross_val_score(
            candidate, X, y, n_splits=n_splits, seed=seed, scorer=scorer
        )
        mean_score = float(scores.mean())
        results.append((params, mean_score))
        if mean_score > best_score:
            best_score = mean_score
            best_params = params
    return best_params, best_score, results


# ----------------------------------------------------------------------
# Frozen copy of the per-tree prediction loop that preceded the
# flat-forest descent.  Each tree descends level by level on its own node
# arrays (the attributes of a fitted ``repro.ml.tree.DecisionTreeRegressor``);
# the forest stacks the per-tree rows and averages them with
# ``mean(axis=0)``.


def per_tree_predict(tree, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n = len(X)
    node = np.zeros(n, dtype=np.intp)
    while True:
        rows = np.nonzero(tree._feature[node] >= 0)[0]
        if len(rows) == 0:
            break
        at = node[rows]
        go_left = X[rows, tree._feature[at]] <= tree._threshold[at]
        node[rows] = np.where(go_left, tree._left[at], tree._right[at])
    return tree._value[node]


def per_tree_matrix(trees, X):
    return np.stack([per_tree_predict(tree, X) for tree in trees])


def per_tree_forest_predict(forest, X):
    return per_tree_matrix(forest.estimators_, X).mean(axis=0)


def per_tree_forest_predict_std(forest, X):
    return per_tree_matrix(forest.estimators_, X).std(axis=0)
