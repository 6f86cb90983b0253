"""Random forest regressor (bagged CART trees) with feature importances.

Matches the semantics of scikit-learn's ``RandomForestRegressor`` that the
paper uses: bootstrap sampling per tree, random feature subsets per split,
mean aggregation, and mean-impurity-decrease feature importances (the
quantity plotted in the paper's Fig. 3).

Training is parallel (PR 3): the per-tree seeds and bootstrap rows are
drawn up front from the master RNG in the original interleaved order, so
every tree is an independent deterministic task and the fitted model is
bit-identical for every ``max_workers`` value *and* execution mode — and
to the sequential pre-vectorization implementation (pinned by the golden
tests).  Tree fitting is pure Python (GIL-bound), so pooled fits default
to the shared spawn pool of :mod:`repro.parallel`: each fit's ``(X, y)``
is pickled once, installed by the pool initializer in every worker
before the first tree it fits for that call, and fitted trees return as
flat numpy arrays.

Prediction descends every tree at once on one :class:`~.tree.FlatForest`,
built whenever the member list is assigned (fit, refresh, model load),
and averages over trees with a sequential sum, so a row's prediction does
not depend on which other rows share its call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..parallel import (
    PROCESS_MIN_ITEMS,
    parallel_map,
    resolve_mode,
    resolve_workers,
)
from .tree import DecisionTreeRegressor, FlatForest


#: Per-batch invariants installed in each pool worker by
#: :func:`_init_fit_worker` (``None`` outside a worker).
_FIT_STATE: Optional[tuple] = None


def _init_fit_worker(X: np.ndarray, y: np.ndarray, tree_params: dict) -> None:
    """Pool initializer: install one fit's training matrix in a worker."""
    global _FIT_STATE
    _FIT_STATE = (X, y, tree_params)


def _fit_tree_in_worker(draw: Tuple[int, np.ndarray]) -> DecisionTreeRegressor:
    """Fit one bootstrap draw against the worker's training matrix."""
    seed, rows = draw
    X, y, tree_params = _FIT_STATE
    return DecisionTreeRegressor(random_state=seed, **tree_params).fit(
        X[rows], y[rows]
    )


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
        max_workers: pool size for tree fitting (``1`` = sequential,
            ``None`` = one per CPU).  Fitted models are identical for
            every value; the default stays sequential so nested uses
            (e.g. inside a parallel grid search) do not oversubscribe.
        workers_mode: ``"process"``/``"thread"`` for pooled fits
            (``None``: the ``REPRO_WORKERS_MODE`` environment override if
            set, else ``"process"`` — tree fitting is GIL-bound).
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
        workers_mode: Optional[str] = None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.max_workers = max_workers
        self.workers_mode = workers_mode
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
            "max_workers": self.max_workers,
            "workers_mode": self.workers_mode,
        }

    def set_params(self, **params) -> "RandomForestRegressor":
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"unknown parameter '{key}'")
            setattr(self, key, value)
        return self

    def clone(self) -> "RandomForestRegressor":
        return RandomForestRegressor(**self.get_params())

    def tree_template(self, seed: int) -> DecisionTreeRegressor:
        """An unfitted member tree carrying this forest's hyper-parameters."""
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        draws = bootstrap_draws(
            self.random_state, self.n_estimators, len(X), self.bootstrap
        )

        workers = resolve_workers(self.max_workers, len(draws))
        mode = resolve_mode(self.workers_mode, default="process")
        if mode == "process" and workers > 1 and len(draws) >= PROCESS_MIN_ITEMS:
            tree_params = {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
            }
            self.estimators_ = parallel_map(
                _fit_tree_in_worker,
                draws,
                max_workers=workers,
                mode="process",
                initializer=_init_fit_worker,
                initargs=(X, y, tree_params),
            )
        else:

            def fit_one(draw: Tuple[int, np.ndarray]) -> DecisionTreeRegressor:
                seed, rows = draw
                return self.tree_template(seed).fit(X[rows], y[rows])

            self.estimators_ = parallel_map(
                fit_one, draws, max_workers=workers, mode="thread"
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
        workers_mode: Optional[str] = None,
    ) -> List[DecisionTreeRegressor]:
        """Fit ``n_trees`` fresh member trees on ``(X, y)`` without touching
        ``self``.

        The trees carry this forest's per-tree hyper-parameters and draw
        their seeds/rows from ``bootstrap_draws(random_state, ...)``, so
        the prefix property holds: the first ``k`` trees of an ``n``-tree
        call equal the ``k``-tree call — a refresh sweep over tree counts
        fits ``max(n)`` trees once and slices prefixes.  Results are
        bit-identical for every worker count and pool mode (same
        construction as :meth:`fit`).
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        draws = bootstrap_draws(random_state, n_trees, len(X), self.bootstrap)

        if max_workers is None:
            max_workers = self.max_workers
        if workers_mode is None:
            workers_mode = self.workers_mode
        workers = resolve_workers(max_workers, len(draws))
        mode = resolve_mode(workers_mode, default="process")
        if mode == "process" and workers > 1 and len(draws) >= PROCESS_MIN_ITEMS:
            tree_params = {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
            }
            return parallel_map(
                _fit_tree_in_worker,
                draws,
                max_workers=workers,
                mode="process",
                initializer=_init_fit_worker,
                initargs=(X, y, tree_params),
            )

        def fit_one(draw: Tuple[int, np.ndarray]) -> DecisionTreeRegressor:
            seed, rows = draw
            return self.tree_template(seed).fit(X[rows], y[rows])

        return parallel_map(fit_one, draws, max_workers=workers, mode="thread")

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
