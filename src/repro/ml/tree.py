"""CART regression tree, implemented from scratch on numpy.

Splits minimize weighted child variance (equivalently maximize impurity
decrease).  Supports the hyper-parameters the paper's grid search tunes:
``max_depth``, ``min_samples_split``, ``min_samples_leaf``, and
``max_features`` (random feature subsampling, the ingredient that makes
random forests de-correlated).

The trainer is vectorized (PR 3) while staying bit-identical to the
original recursive implementation (pinned by the golden tests against the
frozen copy in ``tests/ml/reference_impl.py``):

* every feature column is argsorted **once** at the root; child nodes
  inherit sorted order through a stable boolean partition of the per-node
  ``(num_features, node_size)`` index/value matrices, which restricted to a
  subset of rows is exactly the stable argsort of that subset;
* all candidate thresholds of all candidate features are scored in one
  cumulative-sum sweep over a 2-D array instead of a per-feature Python
  loop (the acceptance scan over per-feature maxima stays sequential in
  the feature-draw order, preserving the original tie-breaking);
* the recursion is replaced by an explicit depth-first frontier that
  consumes the feature-subsampling RNG in the original preorder;
* fitted trees are stored as flat parallel node arrays (value, feature,
  threshold, children), which gives persistence a natural ``.npz``
  encoding (:meth:`to_arrays` / :meth:`from_arrays`).

Prediction runs on :class:`FlatForest`: the node arrays of any number of
trees concatenated into one set, so a whole forest descends in one
vectorized loop; :meth:`DecisionTreeRegressor.predict` is its one-tree
case.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

#: Keys of the flat node encoding produced by :meth:`DecisionTreeRegressor.to_arrays`.
TREE_ARRAY_KEYS = ("value", "feature", "threshold", "left", "right", "node_depth")


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
        self._num_features = 0
        # Flat node arrays (preorder); leaves have feature == -1.
        self._value: Optional[np.ndarray] = None
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._node_depth: Optional[np.ndarray] = None
        self.feature_importances_: Optional[np.ndarray] = None
        # One-tree FlatForest, built by the first predict after a fit.
        self._flat: Optional["FlatForest"] = None

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
        num_features = X.shape[1]
        self._num_features = num_features
        self._importance = np.zeros(num_features)
        rng = np.random.default_rng(self.random_state)

        # Presort every feature once; child nodes inherit sorted order by a
        # stable partition of this row-index matrix, never re-sorting.
        # (Feature/label values for the candidate features of a node are
        # gathered on demand — partitioning one index matrix is 3x less
        # traffic than carrying value matrices alongside it.)
        sorted_rows = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self._x_t = np.ascontiguousarray(X.T)
        self._y = y
        self._pos_cache = {}
        self._all_features = np.arange(num_features)

        values, features, thresholds, depths = [], [], [], []
        lefts, rights = [], []
        # Scratch buffer over root rows for broadcasting a split decision
        # onto the per-feature sorted matrix.
        left_lookup = np.zeros(len(y), dtype=bool)

        # Depth-first frontier in preorder (node, left subtree, right
        # subtree) so the feature-subsampling RNG stream matches the
        # original recursion.  Each entry: (parent slot, is-left-child,
        # depth, row indices in original order, node y, per-feature sorted
        # row matrix).
        root_idx = np.arange(len(y))
        stack = [(-1, False, 0, root_idx, y, sorted_rows)]
        while stack:
            parent, is_left, depth, idx, y_node, rows = stack.pop()
            node_id = len(values)
            if parent >= 0:
                (lefts if is_left else rights)[parent] = node_id
            n_node = len(y_node)
            # np.add.reduce is the pairwise-summation kernel behind
            # ndarray.mean, minus the wrapper overhead that dominates on
            # the many small nodes deep in the tree (bit-identical).
            values.append(float(np.add.reduce(y_node) / n_node))
            features.append(-1)
            thresholds.append(0.0)
            depths.append(depth)
            lefts.append(-1)
            rights.append(-1)

            if (
                n_node < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or bool((y_node == y_node[0]).all())
            ):
                continue
            feature, threshold, gain = self._best_split(y_node, rows, rng)
            if feature < 0:
                continue
            goes_left = self._x_t[feature, idx] <= threshold
            # Guard against degenerate thresholds: if two adjacent distinct
            # values are so close that their midpoint rounds onto one of
            # them, a child can end up empty — treat the node as a leaf.
            n_left = int(goes_left.sum())
            if n_left == 0 or n_left == n_node:
                continue
            self._importance[feature] += gain * n_node

            features[node_id] = feature
            thresholds[node_id] = threshold
            left_lookup[idx] = goes_left
            mask = left_lookup[rows]
            stack.append((
                node_id, False, depth + 1, idx[~goes_left], y_node[~goes_left],
                rows[~mask].reshape(num_features, n_node - n_left),
            ))
            stack.append((
                node_id, True, depth + 1, idx[goes_left], y_node[goes_left],
                rows[mask].reshape(num_features, n_left),
            ))
        del self._x_t, self._y, self._pos_cache, self._all_features

        self._value = np.array(values)
        self._feature = np.array(features, dtype=np.intp)
        self._threshold = np.array(thresholds)
        self._left = np.array(lefts, dtype=np.intp)
        self._right = np.array(rights, dtype=np.intp)
        self._node_depth = np.array(depths, dtype=np.intp)
        self._flat = None
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance.copy()
        )
        return self

    def _best_split(
        self, y_node: np.ndarray, rows: np.ndarray, rng: np.random.Generator
    ):
        """Best (feature, threshold, gain) over one 2-D cumulative-sum sweep.

        ``rows`` is the node's per-feature sorted row-index matrix of shape
        ``(num_features, node_size)``.
        """
        n = len(y_node)
        # Inlined ndarray.var (same pairwise kernels, no wrapper cost).
        deviation = y_node - np.add.reduce(y_node) / n
        parent_var = np.add.reduce(deviation * deviation) / n
        if parent_var <= 0:
            return -1, 0.0, 0.0
        k = self._n_split_features()
        if k < self._num_features:
            candidates = rng.choice(self._num_features, size=k, replace=False)
            rows_k = rows[candidates]
            xs = self._x_t[candidates[:, None], rows_k]
        else:
            candidates = None
            rows_k = rows
            xs = self._x_t[self._all_features[:, None], rows_k]
        ys = self._y[rows_k]
        min_leaf = self.min_samples_leaf
        # Valid split positions: between i-1 and i for i in [lo, hi).
        lo, hi = min_leaf, n - min_leaf + 1
        if hi <= lo:
            return -1, 0.0, 0.0

        # Cumulative sums evaluate every split position of every candidate
        # feature at once; positions where the value does not change are
        # masked out (can't split there).
        csum = ys.cumsum(axis=1)
        csum_sq = (ys ** 2).cumsum(axis=1)
        left_n, right_n = self._split_positions(n, lo, hi)
        left_sum = csum[:, lo - 1:hi - 1]
        left_sq = csum_sq[:, lo - 1:hi - 1]
        right_sum = csum[:, -1:] - left_sum
        right_sq = csum_sq[:, -1:] - left_sq
        left_var = left_sq / left_n - (left_sum / left_n) ** 2
        right_var = right_sq / right_n - (right_sum / right_n) ** 2
        weighted = (left_n * left_var + right_n * right_var) / n
        gains = parent_var - weighted
        distinct = xs[:, lo - 1:hi - 1] < xs[:, lo:hi]
        gains = np.where(distinct, gains, -np.inf)
        best_pos = gains.argmax(axis=1)
        best_gains = gains[self._all_features[:len(best_pos)], best_pos]

        # Sequential acceptance in feature-draw order: strictly-better-only
        # updates reproduce the original per-feature loop's tie-breaking.
        best_feature, best_threshold, best_gain = -1, 0.0, 0.0
        for j in range(len(best_gains)):
            if best_gains[j] > best_gain + 1e-15:
                best_gain = float(best_gains[j])
                best_feature = int(candidates[j]) if candidates is not None else j
                pos = lo + int(best_pos[j])
                best_threshold = float((xs[j, pos - 1] + xs[j, pos]) / 2.0)
        return best_feature, best_threshold, best_gain

    def _split_positions(self, n: int, lo: int, hi: int):
        """Cached (left-count, right-count) vectors for a node size."""
        cached = self._pos_cache.get(n)
        if cached is None:
            left_n = np.arange(lo, hi).astype(float)
            cached = (left_n, n - left_n)
            self._pos_cache[n] = cached
        return cached

    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._value is None:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            self._flat = FlatForest([self])
        return self._flat.leaf_values(X)[0]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._node_depth is None or len(self._node_depth) == 0:
            return 0
        return int(self._node_depth.max())

    def num_leaves(self) -> int:
        if self._feature is None:
            return 0
        return int(np.count_nonzero(self._feature < 0))

    def num_nodes(self) -> int:
        return 0 if self._value is None else len(self._value)

    # ------------------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat node encoding of a fitted tree (persistence support).

        Returns the preorder parallel arrays listed in
        :data:`TREE_ARRAY_KEYS` plus ``importances``; feed the result to
        :meth:`from_arrays` to reconstruct an identical predictor.
        """
        if self._value is None:
            raise RuntimeError("tree is not fitted")
        return {
            "value": self._value.copy(),
            "feature": self._feature.copy(),
            "threshold": self._threshold.copy(),
            "left": self._left.copy(),
            "right": self._right.copy(),
            "node_depth": self._node_depth.copy(),
            "importances": self.feature_importances_.copy(),
        }

    @classmethod
    def from_arrays(
        cls, params: dict, num_features: int, arrays: Dict[str, np.ndarray]
    ) -> "DecisionTreeRegressor":
        """Rebuild a fitted tree from :meth:`to_arrays` output."""
        missing = [key for key in TREE_ARRAY_KEYS if key not in arrays]
        if missing or "importances" not in arrays:
            raise ValueError(f"incomplete tree encoding: missing {missing}")
        tree = cls(**params)
        tree._num_features = int(num_features)
        tree._value = np.asarray(arrays["value"], dtype=float)
        tree._feature = np.asarray(arrays["feature"], dtype=np.intp)
        tree._threshold = np.asarray(arrays["threshold"], dtype=float)
        tree._left = np.asarray(arrays["left"], dtype=np.intp)
        tree._right = np.asarray(arrays["right"], dtype=np.intp)
        tree._node_depth = np.asarray(arrays["node_depth"], dtype=np.intp)
        tree.feature_importances_ = np.asarray(
            arrays["importances"], dtype=float
        )
        n = len(tree._value)
        for name in ("feature", "threshold", "left", "right", "node_depth"):
            if len(arrays[name]) != n:
                raise ValueError("inconsistent tree encoding: ragged arrays")
        if n == 0:
            raise ValueError("inconsistent tree encoding: empty tree")
        internal = tree._feature >= 0
        if (tree._feature >= num_features).any() or (tree._feature < -1).any():
            raise ValueError("inconsistent tree encoding: bad feature indices")
        # Nodes are stored in preorder, so children always point forward;
        # enforcing that rules out cycles (predict would never terminate)
        # as well as out-of-range links.  Leaves carry the -1 sentinel.
        node_ids = np.arange(n)
        for child in (tree._left, tree._right):
            if (internal & ((child <= node_ids) | (child >= n))).any():
                raise ValueError("inconsistent tree encoding: bad child indices")
            if (~internal & (child != -1)).any():
                raise ValueError("inconsistent tree encoding: bad child indices")
        # The flat-forest descent takes ``depth()`` steps, so every child
        # must sit exactly one level below its parent.
        depth = tree._node_depth
        if depth[0] != 0 or any(
            (depth[child[internal]] != depth[internal] + 1).any()
            for child in (tree._left, tree._right)
        ):
            raise ValueError("inconsistent tree encoding: bad node depths")
        return tree

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


class FlatForest:
    """The node arrays of several fitted trees, concatenated for prediction.

    Each tree's child links are offset by its start position in the
    concatenation, and every leaf links to itself (testing feature 0), so
    a descent of ``depth`` steps needs no active-row mask: a row that
    reaches a leaf early just stays there.  Built once per fitted model
    and never persisted; the trees' own arrays stay the stored format.
    """

    def __init__(self, trees: Sequence[DecisionTreeRegressor]):
        sizes = [len(tree._value) for tree in trees]
        starts = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        feature = np.concatenate([tree._feature for tree in trees])
        leaf = feature < 0
        node_ids = np.arange(len(feature), dtype=np.intp)
        self.roots = starts[:, None]
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([tree._threshold for tree in trees])
        self.left = np.where(leaf, node_ids, np.concatenate(
            [tree._left + start for tree, start in zip(trees, starts)]
        ))
        self.right = np.where(leaf, node_ids, np.concatenate(
            [tree._right + start for tree, start in zip(trees, starts)]
        ))
        self.value = np.concatenate([tree._value for tree in trees])
        self.depth = max(tree.depth() for tree in trees)
        #: Columns a query needs: one past the highest split feature.
        self.width = int(feature.max()) + 1

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The ``(trees, rows)`` matrix of each tree's prediction per row.

        One gather/compare/select per level moves every (tree, row) pair
        down a level at once; the leaf values are gathered once at the end.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n_rows, n_cols = X.shape
        if n_cols < self.width:
            raise ValueError(
                f"X has {n_cols} features; the model splits on feature "
                f"{self.width - 1}"
            )
        node = np.repeat(self.roots, n_rows, axis=1)
        cells = X.ravel()
        row_start = np.arange(n_rows, dtype=np.intp) * n_cols
        for _ in range(self.depth):
            go_left = cells[self.feature[node] + row_start] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]
