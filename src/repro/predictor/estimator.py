"""The proposed figure of merit: a trained Hellinger-distance estimator.

Section IV-B / V-A3 of the paper: a random forest regressor per QPU, trained
on the 30-dim feature vectors with measured Hellinger distances as labels,
using an 80/20 train/test split, 3-fold cross-validation, a hyper-parameter
grid search (number of trees, maximum depth, minimum samples per leaf and
split), and the Pearson correlation coefficient as the model score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..ml.forest import RandomForestRegressor
from ..ml.metrics import pearson_r
from ..ml.model_selection import grid_search, split_indices

#: Seed offset for fine-tune tree draws: keeps the refresh trees' seed
#: stream disjoint from the original forest's (same master seed) stream.
FINE_TUNE_SEED_OFFSET = 104729

#: Grid searched in Section V-A3 (trees, depth, leaf/split minima).
DEFAULT_PARAM_GRID: Dict[str, Sequence] = {
    "n_estimators": [50, 100],
    "max_depth": [None, 8, 16],
    "min_samples_leaf": [1, 2, 4],
    "min_samples_split": [2, 4],
}


class HellingerEstimator:
    """Trainable figure of merit predicting a circuit's Hellinger distance.

    Usage matches any other figure of merit after :meth:`fit`: call
    :meth:`predict` on feature vectors of candidate compiled circuits and
    prefer the candidate with the smallest predicted distance.
    """

    def __init__(
        self,
        param_grid: Optional[Dict[str, Sequence]] = None,
        n_splits: int = 3,
        seed: int = 0,
        max_workers: Optional[int] = 1,
    ):
        self.param_grid = dict(param_grid) if param_grid else dict(DEFAULT_PARAM_GRID)
        self.n_splits = n_splits
        self.seed = seed
        self.max_workers = max_workers
        self.model: Optional[RandomForestRegressor] = None
        self.best_params_: Dict[str, object] = {}
        self.cv_score_: float = float("nan")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "HellingerEstimator":
        """Grid-search hyper-parameters with CV, then fit on all of ``X``.

        ``max_workers`` fans the (candidate, fold) grid tasks and the
        final forest's trees over the process pool (fitting is GIL-bound);
        the fitted model is bit-identical for every value.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        # Candidate forests stay sequential (max_workers=1): the grid
        # search parallelizes across candidates/folds instead.
        base = RandomForestRegressor(random_state=self.seed, max_features="sqrt")
        search = grid_search(
            base, self.param_grid, X, y,
            n_splits=self.n_splits, seed=self.seed, scorer=pearson_r,
            max_workers=self.max_workers,
        )
        self.best_params_ = search.best_params
        self.cv_score_ = search.best_score
        self.model = base.clone().set_params(**search.best_params)
        self.model.max_workers = self.max_workers
        self.model.fit(X, y)
        return self

    def with_trees(self, trees, replace: bool = False) -> "HellingerEstimator":
        """A new estimator whose forest is this one refreshed with ``trees``.

        ``self`` is untouched; grid-search results (``best_params_``,
        ``cv_score_``) carry over — a fine-tune deliberately skips the
        search, which is what makes it cheap.
        """
        if self.model is None:
            raise RuntimeError("estimator is not fitted")
        refreshed = HellingerEstimator(
            param_grid=self.param_grid, n_splits=self.n_splits,
            seed=self.seed, max_workers=self.max_workers,
        )
        refreshed.best_params_ = dict(self.best_params_)
        refreshed.cv_score_ = self.cv_score_
        refreshed.model = self.model.refreshed(trees, replace=replace)
        return refreshed

    def fine_tune(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_trees: int,
        replace: bool = False,
        random_state: Optional[int] = None,
    ) -> "HellingerEstimator":
        """Cheap refresh on fresh labels: fit ``n_trees`` new trees on
        ``(X, y)`` with the forest's tuned hyper-parameters and append
        them (or replace the oldest with ``replace=True``).

        No grid search runs — the cost is ``n_trees`` tree fits, a small
        fraction of a full retrain.  Deterministic and worker-invariant
        (see :meth:`RandomForestRegressor.fit_new_trees`); the default
        ``random_state`` derives from the estimator seed via
        ``FINE_TUNE_SEED_OFFSET`` so refresh draws never collide with the
        original fit's stream.
        """
        if self.model is None:
            raise RuntimeError("estimator is not fitted")
        if random_state is None:
            random_state = self.seed + FINE_TUNE_SEED_OFFSET
        trees = self.model.fit_new_trees(X, y, n_trees, random_state)
        return self.with_trees(trees, replace=replace)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("estimator is not fitted")
        return self.model.predict(np.asarray(X, dtype=float))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Pearson correlation between predictions and true labels."""
        return pearson_r(np.asarray(y, dtype=float), self.predict(X))

    @property
    def feature_importances_(self) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("estimator is not fitted")
        return self.model.feature_importances_


@dataclass
class EstimatorReport:
    """Everything the study records about one trained estimator."""

    device_name: str
    test_pearson: float
    train_pearson: float
    cv_score: float
    best_params: Dict[str, object]
    feature_importances: np.ndarray
    y_test: np.ndarray
    y_test_pred: np.ndarray
    test_indices: np.ndarray = field(default_factory=lambda: np.array([]))


def train_and_evaluate_model(
    X: np.ndarray,
    y: np.ndarray,
    device_name: str = "QPU",
    test_size: float = 0.2,
    n_splits: int = 3,
    seed: int = 0,
    param_grid: Optional[Dict[str, Sequence]] = None,
    max_workers: Optional[int] = 1,
) -> "tuple[EstimatorReport, HellingerEstimator]":
    """:func:`train_and_evaluate` that also returns the fitted estimator.

    The cross-device study scores this exact model on foreign devices, so
    its transfer columns and the report's in-domain test score come from
    one and the same forest.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    train_idx, test_idx = split_indices(len(X), test_size, seed)

    estimator = HellingerEstimator(
        param_grid=param_grid, n_splits=n_splits, seed=seed,
        max_workers=max_workers,
    )
    estimator.fit(X[train_idx], y[train_idx])
    test_pred = estimator.predict(X[test_idx])
    train_pred = estimator.predict(X[train_idx])
    report = EstimatorReport(
        device_name=device_name,
        test_pearson=pearson_r(y[test_idx], test_pred),
        train_pearson=pearson_r(y[train_idx], train_pred),
        cv_score=estimator.cv_score_,
        best_params=dict(estimator.best_params_),
        feature_importances=estimator.feature_importances_.copy(),
        y_test=y[test_idx].copy(),
        y_test_pred=test_pred,
        test_indices=test_idx.copy(),
    )
    return report, estimator


def train_and_evaluate(
    X: np.ndarray,
    y: np.ndarray,
    device_name: str = "QPU",
    test_size: float = 0.2,
    n_splits: int = 3,
    seed: int = 0,
    param_grid: Optional[Dict[str, Sequence]] = None,
    max_workers: Optional[int] = 1,
) -> EstimatorReport:
    """Run the paper's full evaluation protocol for one QPU.

    80/20 split, grid search with ``n_splits``-fold CV on the training set,
    final fit on the training set, Pearson scoring on the held-out test set.
    """
    return train_and_evaluate_model(
        X, y,
        device_name=device_name,
        test_size=test_size,
        n_splits=n_splits,
        seed=seed,
        param_grid=param_grid,
        max_workers=max_workers,
    )[0]
