"""Random forest regressor (bagged CART trees) with feature importances.

Matches the semantics of scikit-learn's ``RandomForestRegressor`` that the
paper uses: bootstrap sampling per tree, random feature subsets per split,
mean aggregation, and mean-impurity-decrease feature importances (the
quantity plotted in the paper's Fig. 3).

Training is parallel (PR 3): the per-tree seeds and bootstrap rows are
drawn up front from the master RNG in the original interleaved order, so
every tree is an independent deterministic computation and the fitted
model is bit-identical for every ``max_workers`` value — and to the
sequential pre-vectorization implementation (pinned by the golden
tests).  The draws are split into contiguous chunks, an equal share per
worker (:func:`~repro.parallel.contiguous_chunks`), and each chunk grows
all of its trees together in one lockstep sweep
(:func:`~.tree.fit_trees`).  Tree fitting is GIL-bound, so pooled fits
run on the shared spawn pool of :mod:`repro.parallel`: each fit's
``(X, y)`` travels as the call's ``shared`` payload, pickled once and
installed in every worker before the first chunk it fits for that call,
and fitted trees return as flat numpy arrays.

Prediction descends every tree at once on one :class:`~.tree.FlatForest`,
built whenever the member list is assigned (fit, refresh, model load),
and averages over trees with a sequential sum, so a row's prediction does
not depend on which other rows share its call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..parallel import contiguous_chunks, parallel_map
from .tree import DecisionTreeRegressor, FlatForest, fit_trees


def _fit_chunk(
    X: np.ndarray,
    y: np.ndarray,
    tree_params: dict,
    draws: List[Tuple[int, np.ndarray]],
) -> List[DecisionTreeRegressor]:
    """Fit one contiguous chunk of a forest's bootstrap ``(seed, rows)``
    draws, in one lockstep sweep."""
    return fit_trees(X, y, draws, **tree_params)


def tree_mean(leaf_values: np.ndarray) -> np.ndarray:
    """Mean over the tree axis of a ``(trees, rows)`` prediction matrix.

    The sum runs sequentially in tree order for every row count.  (numpy's
    ``mean(axis=0)`` sums a one-row matrix pairwise but several rows
    sequentially, so a solo answer could differ from its batched one in
    the last bit.)  Bit-identical to ``mean(axis=0)`` on several rows.
    """
    return leaf_values.cumsum(axis=0)[-1] / len(leaf_values)


def bootstrap_draws(
    random_state: Optional[int],
    n_trees: int,
    n_rows: int,
    bootstrap: bool = True,
) -> List[Tuple[int, np.ndarray]]:
    """Per-tree ``(seed, rows)`` pairs of a forest's master RNG stream.

    Draws happen in the original per-tree interleaved order (seed, then
    rows), so the first ``k`` draws of an ``n``-tree forest equal the draws
    of a ``k``-tree forest with the same ``random_state`` — the prefix
    property the grid search exploits to share fitted trees between
    ``n_estimators`` variants.
    """
    rng = np.random.default_rng(random_state)
    draws = []
    for _ in range(n_trees):
        seed = int(rng.integers(0, 2 ** 31))
        if bootstrap:
            rows = rng.integers(0, n_rows, size=n_rows)
        else:
            rows = np.arange(n_rows)
        draws.append((seed, rows))
    return draws


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
        max_workers: process-pool size for tree fitting (``1`` =
            sequential, ``None`` = one per CPU; tree fitting is
            GIL-bound).  Fitted models are identical for every value, so
            it is an execution setting, not a hyper-parameter:
            :meth:`get_params` leaves it out and :meth:`clone` carries it
            over.  The default stays sequential so nested uses (e.g.
            inside a parallel grid search) do not oversubscribe.
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
        max_workers: Optional[int] = 1,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.max_workers = max_workers
        self.estimators_: List[DecisionTreeRegressor] = []
        self.feature_importances_: Optional[np.ndarray] = None

    @property
    def estimators_(self) -> List[DecisionTreeRegressor]:
        """The member trees; assigning a list rebuilds the flat view."""
        return self._estimators

    @estimators_.setter
    def estimators_(self, trees: List[DecisionTreeRegressor]) -> None:
        self._estimators = trees
        self._flat = FlatForest(trees) if trees else None

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
        return RandomForestRegressor(
            **self.get_params(), max_workers=self.max_workers
        )

    def tree_params(self) -> dict:
        """The per-tree hyper-parameters of this forest's members."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.estimators_ = self.fit_new_trees(
            X, y, self.n_estimators, self.random_state
        )
        self._finalize_importances(X.shape[1])
        return self

    def fit_new_trees(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_trees: int,
        random_state: Optional[int],
        max_workers: Optional[int] = None,
    ) -> List[DecisionTreeRegressor]:
        """Fit ``n_trees`` fresh member trees on ``(X, y)`` without touching
        ``self``.

        The trees carry this forest's per-tree hyper-parameters and draw
        their seeds/rows from ``bootstrap_draws(random_state, ...)``, so
        the prefix property holds: the first ``k`` trees of an ``n``-tree
        call equal the ``k``-tree call — a refresh sweep over tree counts
        fits ``max(n)`` trees once and slices prefixes.  The draws go out
        in contiguous chunks, an equal share per worker, each grown in one
        lockstep sweep (:func:`~.tree.fit_trees`), and come back in draw
        order.
        Results are bit-identical for every worker count; :meth:`fit` is
        this with the forest's own tree count, seed and worker count.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        draws = bootstrap_draws(random_state, n_trees, len(X), self.bootstrap)
        workers = self.max_workers if max_workers is None else max_workers
        chunks = parallel_map(
            _fit_chunk,
            contiguous_chunks(draws, workers),
            max_workers=workers,
            mode="process",
            shared=(X, y, self.tree_params()),
        )
        return [tree for chunk in chunks for tree in chunk]

    def refreshed(
        self,
        trees: List[DecisionTreeRegressor],
        replace: bool = False,
    ) -> "RandomForestRegressor":
        """A new fitted forest: this forest's trees plus ``trees``.

        ``replace=False`` appends (the ensemble grows); ``replace=True``
        drops the oldest ``len(trees)`` members first, a sliding window of
        constant size.  ``self`` is untouched; importances are re-finalized
        sequentially in tree order (worker-count independent).
        """
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        if not trees:
            raise ValueError("trees must be non-empty")
        kept = self.estimators_[len(trees) :] if replace else self.estimators_
        members = list(kept) + list(trees)
        if not members:
            raise ValueError("replace would drop every tree")
        forest = self.clone()
        forest.n_estimators = len(members)
        forest.estimators_ = members
        forest._finalize_importances(len(trees[0].feature_importances_))
        return forest

    def _finalize_importances(self, num_features: int) -> None:
        # Sequential accumulation in tree order: identical float rounding
        # to the original sequential fit, independent of worker count.
        importances = np.zeros(num_features)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        return tree_mean(self._leaf_values(X))

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Ensemble standard deviation (a crude predictive uncertainty)."""
        leaf_values = self._leaf_values(X)
        deviation = leaf_values - tree_mean(leaf_values)
        return np.sqrt(tree_mean(deviation * deviation))

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        if self._flat is None:
            raise RuntimeError("forest is not fitted")
        return self._flat.leaf_values(X)
