"""CART regression tree, implemented from scratch on numpy.

Splits minimize weighted child variance (equivalently maximize impurity
decrease).  Supports the hyper-parameters the paper's grid search tunes:
``max_depth``, ``min_samples_split``, ``min_samples_leaf``, and
``max_features`` (random feature subsampling, the ingredient that makes
random forests de-correlated).

The trainer stays bit-identical to the original recursive implementation
(pinned by the golden tests against the frozen copy in
``tests/ml/reference_impl.py``), and grows many trees at once
(:func:`fit_trees`; :meth:`DecisionTreeRegressor.fit` is its one-tree
case):

* each tree keeps its own feature-subsampling RNG and an explicit
  preorder depth-first stack, so it draws its candidate features in the
  original recursion's order;
* each lockstep step pops one node of every unfinished tree and scores
  all candidate thresholds of all candidate features of all those nodes
  in one padded cumulative-sum sweep (a prefix sum does not depend on
  what pads it, so every tree's sums are the ones its own sweep would
  give);
* a node's rows stay in increasing order, so a stable sort of a
  candidate feature's values at the node is exactly the root presort
  restricted to those rows, ties included;
* what rounds by length — the node value and parent variance — reduces
  exact-length slices, and the strictly-better acceptance scan over the
  per-feature maxima runs per node in feature-draw order, preserving
  the original tie-breaking;
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
from typing import Dict, List, Optional, Sequence, Tuple

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
        _grow([self], X[None], y[None])
        return self

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


def fit_trees(
    X: np.ndarray,
    y: np.ndarray,
    draws: Sequence[Tuple[int, np.ndarray]],
    **params,
) -> List[DecisionTreeRegressor]:
    """One tree per ``(seed, rows)`` draw, fitted on ``(X[rows], y[rows])``
    with seed ``seed`` and the hyper-parameters ``params``, all grown in
    one lockstep sweep (see :func:`_grow`).  Every draw must pick the
    same number of rows, as a forest's bootstrap draws do.

    Each tree is bit-identical to ``DecisionTreeRegressor(random_state=
    seed, **params).fit(X[rows], y[rows])``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    trees = [
        DecisionTreeRegressor(random_state=seed, **params) for seed, _ in draws
    ]
    if trees:
        rows = np.stack([rows for _, rows in draws])
        _grow(trees, X[rows], y[rows])
    return trees


class _Growth:
    """One tree's state in a lockstep sweep: its RNG, its preorder DFS
    stack and the node arrays grown so far."""

    def __init__(self, tree: DecisionTreeRegressor, index: int):
        self.tree = tree
        self.index = index
        self.rng = np.random.default_rng(tree.random_state)
        self.stack: list = []
        self.values: list = []
        self.features: list = []
        self.thresholds: list = []
        self.depths: list = []
        self.lefts: list = []
        self.rights: list = []
        self.importance = np.zeros(tree._num_features)

    def finish(self) -> None:
        """Store the grown node arrays and importances on the tree."""
        tree = self.tree
        tree._value = np.array(self.values)
        tree._feature = np.array(self.features, dtype=np.intp)
        tree._threshold = np.array(self.thresholds)
        tree._left = np.array(self.lefts, dtype=np.intp)
        tree._right = np.array(self.rights, dtype=np.intp)
        tree._node_depth = np.array(self.depths, dtype=np.intp)
        tree._flat = None
        total = self.importance.sum()
        tree.feature_importances_ = (
            self.importance / total if total > 0 else self.importance.copy()
        )


def _grow(
    trees: Sequence[DecisionTreeRegressor], X: np.ndarray, y: np.ndarray
) -> None:
    """Fit tree ``t`` of ``trees`` on ``(X[t], y[t])``, all in lockstep.

    ``X`` is ``(trees, rows, features)`` and ``y`` is ``(trees, rows)``;
    the trees share their hyper-parameters and differ in seed and data.
    Each step pops the next preorder node of every unfinished tree and
    scores the split candidates of all of them in one padded
    cumulative-sum sweep (:func:`_split_pending`).  What decides a
    tree's shape stays per tree: its RNG draws the feature subsample in
    its own preorder, the node value and parent variance reduce
    exact-length slices (pairwise summation rounds by length), and the
    strictly-better acceptance scan runs in feature-draw order.  So every
    tree is bit-identical to fitting it alone.
    """
    head = trees[0]
    _, n_rows, num_features = X.shape
    min_split = head.min_samples_split
    min_leaf = head.min_samples_leaf
    max_depth = head.max_depth
    for tree in trees:
        tree._num_features = num_features
    k = head._n_split_features()
    all_features = np.arange(num_features)
    # Feature-major data with one NaN column (NaN sorts after every
    # value) and one zero label past the rows, for padding a sweep.
    x_t = np.concatenate(
        [X.transpose(0, 2, 1), np.full((len(trees), num_features, 1), np.nan)],
        axis=2,
    )
    y_padded = np.concatenate([y, np.zeros((len(trees), 1))], axis=1)
    growths = [_Growth(tree, t) for t, tree in enumerate(trees)]
    for growth in growths:
        # Entry: (parent slot, is-left-child, depth, the node's row
        # indices in increasing order, its labels).
        growth.stack.append((-1, False, 0, np.arange(n_rows), y[growth.index]))

    growing = growths
    while growing:
        # Pop one node per tree; the nodes that may split are scored
        # together.
        pending = []
        for growth in growing:
            parent, is_left, depth, idx, y_node = growth.stack.pop()
            node_id = len(growth.values)
            if parent >= 0:
                (growth.lefts if is_left else growth.rights)[parent] = node_id
            n_node = len(y_node)
            # np.add.reduce is the pairwise-summation kernel behind
            # ndarray.mean/var, minus the wrapper overhead that dominates
            # on the many small nodes deep in a tree (bit-identical).  A
            # one-row node (always a leaf) is its own mean.
            mean = y_node[0] if n_node == 1 else np.add.reduce(y_node) / n_node
            growth.values.append(float(mean))
            growth.features.append(-1)
            growth.thresholds.append(0.0)
            growth.depths.append(depth)
            growth.lefts.append(-1)
            growth.rights.append(-1)
            if (
                n_node == 1
                or n_node < min_split
                or (max_depth is not None and depth >= max_depth)
                # (Distinct end labels settle most nodes in one compare.)
                or (y_node[0] == y_node[-1] and bool((y_node == y_node[0]).all()))
            ):
                continue
            deviation = y_node - mean
            parent_var = np.add.reduce(deviation * deviation) / n_node
            if parent_var <= 0:
                continue
            if k < num_features:
                candidates = growth.rng.choice(num_features, size=k, replace=False)
            else:
                candidates = all_features
            if n_node - min_leaf + 1 <= min_leaf:
                continue
            pending.append(
                (growth, node_id, depth, idx, y_node, candidates, parent_var)
            )
        if pending:
            _split_pending(pending, x_t, y_padded, k, min_leaf)
        growing = [growth for growth in growing if growth.stack]
    for growth in growths:
        growth.finish()


def _split_pending(
    pending: list, x_t: np.ndarray, y: np.ndarray, k: int, min_leaf: int
) -> None:
    """Score every pending node's split candidates in one sweep, then
    split each node whose best candidate is accepted.

    Node ``i``'s ``(k, n_i)`` candidate values are padded to the widest
    node with NaN, which sorts after every value; split position ``p``
    puts ``p + 1`` rows on the left.
    """
    count = len(pending)
    sizes = np.array([len(entry[4]) for entry in pending])
    width = int(sizes.max())
    stride = x_t.shape[2]
    # Padding cells index the NaN column past every tree's rows.
    rows = np.full((count, width), stride - 1, dtype=np.intp)
    for i, entry in enumerate(pending):
        rows[i, :sizes[i]] = entry[3]
    tree_index = np.array([entry[0].index for entry in pending])[:, None, None]
    features = np.array([entry[5] for entry in pending])[:, :, None]
    values = x_t[tree_index, features, rows[:, None, :]]
    # A node's rows are in increasing order, so a stable sort of its
    # values breaks ties by row, exactly as sorting the feature once and
    # partitioning it down the tree would.
    order = values.argsort(axis=2, kind="stable")
    # Gathers along the sorted order are flat takes: far cheaper than
    # indexing with several broadcast index arrays.
    xs = values.reshape(-1).take(
        order + (np.arange(count * k) * width).reshape(count, k, 1)
    )
    sorted_rows = rows.reshape(-1).take(
        order + (np.arange(count) * width)[:, None, None]
    )
    ys = y.reshape(-1).take(tree_index * stride + sorted_rows)

    # Cumulative sums evaluate every split position of every candidate
    # feature of every node at once.  A prefix sum does not depend on the
    # padding after it, so each node's sums equal its own sweep's, and
    # the element-wise steps below round exactly as they would alone.
    csum = ys.cumsum(axis=2)
    csum_sq = (ys ** 2).cumsum(axis=2)
    n = sizes.astype(float)[:, None, None]
    node_rows = np.arange(count)
    total = csum[node_rows, :, sizes - 1][:, :, None]
    total_sq = csum_sq[node_rows, :, sizes - 1][:, :, None]
    left_n = np.arange(1, width, dtype=float)
    right_n = n - left_n
    left_sum = csum[:, :, :-1]
    left_sq = csum_sq[:, :, :-1]
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        left_var = left_sq / left_n - (left_sum / left_n) ** 2
        right_var = right_sq / right_n - (right_sum / right_n) ** 2
        weighted = (left_n * left_var + right_n * right_var) / n
    parent_var = np.array([entry[6] for entry in pending])[:, None, None]
    gains = parent_var - weighted
    # A valid position leaves min_leaf rows on each side (so none lies
    # past a node's end) and splits between distinct values.
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    valid = valid & (xs[:, :, :-1] < xs[:, :, 1:])
    gains[~valid] = -np.inf
    best_pos = gains.argmax(axis=2)
    best_gains = gains.reshape(-1, width - 1)[
        np.arange(count * k), best_pos.reshape(-1)
    ].reshape(count, k)

    for i, (growth, node_id, depth, idx, y_node, candidates, _), node_gains, (
        node_pos
    ) in zip(range(count), pending, best_gains.tolist(), best_pos.tolist()):
        # Sequential acceptance in feature-draw order: strictly-better-only
        # updates reproduce the original per-feature loop's tie-breaking.
        best_j, best_gain = -1, 0.0
        for j, gain in enumerate(node_gains):
            if gain > best_gain + 1e-15:
                best_j, best_gain = j, gain
        if best_j < 0:
            continue
        feature = int(candidates[best_j])
        pos = node_pos[best_j]
        threshold = float((xs[i, best_j, pos] + xs[i, best_j, pos + 1]) / 2.0)
        n_node = int(sizes[i])
        goes_left = values[i, best_j, :n_node] <= threshold
        # Guard against degenerate thresholds: if two adjacent distinct
        # values are so close that their midpoint rounds onto one of
        # them, a child can end up empty — treat the node as a leaf.
        n_left = int(np.count_nonzero(goes_left))
        if n_left == 0 or n_left == n_node:
            continue
        growth.importance[feature] += best_gain * n_node
        growth.features[node_id] = feature
        growth.thresholds[node_id] = threshold
        goes_right = ~goes_left
        growth.stack.append(
            (node_id, False, depth + 1, idx[goes_right], y_node[goes_right])
        )
        growth.stack.append(
            (node_id, True, depth + 1, idx[goes_left], y_node[goes_left])
        )


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
