"""Model selection: splits, k-fold cross-validation, and grid search.

Reimplements the scikit-learn workflow the paper describes: an 80/20
train/test split, 3-fold cross-validation scored by the Pearson correlation
coefficient, and a hyper-parameter grid search over tree count, depth, and
leaf/split minima.

The grid search is parallel and, for random forests, shares work between
candidates without changing a single score bit (verified by the golden
tests against the pre-PR sequential implementation):

* every candidate draws the same master RNG stream, so an
  ``n_estimators=50`` forest is a prefix of the ``n_estimators=100``
  forest with the same remaining hyper-parameters — trees and their
  per-fold test predictions are fitted once and sliced;
* a tree fitted without a depth cap is bit-identical to fitting the same
  draw with ``max_depth=L`` whenever its natural depth stays below ``L``
  (no RNG is consumed at pruned depths), so capped variants only refit
  the trees that actually hit the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..parallel import parallel_map
from .forest import RandomForestRegressor, bootstrap_draws, tree_mean
from .metrics import pearson_r
from .tree import FlatForest, fit_trees

Scorer = Callable[[np.ndarray, np.ndarray], float]

# Fitting is GIL-bound pure Python, so pooled cross-validation and grid
# search run in process mode: a call's training data and candidate
# models travel once per worker as its ``shared`` payload, and tasks are
# plain index tuples.  Process mode therefore requires the estimator and
# scorer to be picklable (every estimator and scorer in this repo is).


def _fit_and_score(models, X, y, splits, scorer, task: Tuple[int, int]) -> float:
    """Fit ``models[index]`` on fold ``fold_index``'s training rows and
    score it on the held-out rows."""
    index, fold_index = task
    train_idx, test_idx = splits[fold_index]
    fold_model = models[index].clone()
    fold_model.fit(X[train_idx], y[train_idx])
    return scorer(y[test_idx], fold_model.predict(X[test_idx]))


def split_indices(
    n: int, test_size: float = 0.2, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Shuffled ``(train_idx, test_idx)`` over ``n`` rows: the first
    ``round(n * test_size)`` (at least one) of a seeded permutation are
    held out."""
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_size)))
    return order[n_test:], order[:n_test]


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.2,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into train/test (``test_size`` fraction held out)."""
    X = np.asarray(X)
    y = np.asarray(y)
    train_idx, test_idx = split_indices(len(X), test_size, seed)
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


class KFold:
    """Deterministic shuffled k-fold splitter."""

    def __init__(self, n_splits: int = 3, seed: int = 0):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n_samples: int) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
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


def cross_val_score(
    model,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 3,
    seed: int = 0,
    scorer: Scorer = pearson_r,
    max_workers: Optional[int] = 1,
) -> np.ndarray:
    """Per-fold validation scores of a cloneable model.

    Folds are independent deterministic tasks; ``max_workers`` fans them
    out without changing any score (``1`` = sequential, ``None`` = one
    worker per CPU).  Pooled runs use the process pool (fitting is
    GIL-bound); each worker installs the data once per call as the
    call's ``shared`` payload.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    splits = list(KFold(n_splits, seed).split(len(X)))
    return np.array(parallel_map(
        _fit_and_score,
        [(0, fold_index) for fold_index in range(len(splits))],
        max_workers=max_workers,
        mode="process",
        shared=([model], X, y, splits, scorer),
    ))


@dataclass
class GridSearchResult:
    """Outcome of a grid search."""

    best_params: Dict[str, object]
    best_score: float
    results: List[Tuple[Dict[str, object], float]] = field(default_factory=list)


def grid_search(
    model,
    param_grid: Dict[str, Sequence],
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 3,
    seed: int = 0,
    scorer: Scorer = pearson_r,
    max_workers: Optional[int] = 1,
) -> GridSearchResult:
    """Exhaustive grid search scored by mean cross-validation score.

    Args:
        model: a cloneable estimator with ``set_params``.
        param_grid: mapping parameter name -> candidate values.
        X, y: training data.
        n_splits: cross-validation folds (the paper uses three).
        seed: split seed.
        scorer: score function, larger is better (default: Pearson r).
        max_workers: pool size over independent (candidate, fold) tasks
            (``1`` = sequential, ``None`` = one per CPU); scores are
            identical for every value.  Pooled runs use the process
            pool (fitting is GIL-bound), so estimators and scorers must
            pickle.
    """
    names = sorted(param_grid)
    combos = list(itertools.product(*(param_grid[name] for name in names)))
    if not combos:
        raise ValueError("empty parameter grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    candidates = [
        (dict(zip(names, combo)), model.clone().set_params(**dict(zip(names, combo))))
        for combo in combos
    ]
    splits = list(KFold(n_splits, seed).split(len(X)))

    if all(isinstance(c, RandomForestRegressor) for _, c in candidates):
        fold_scores = _forest_grid_fold_scores(
            candidates, X, y, splits, scorer, max_workers
        )
    else:
        tasks = [
            (index, fold_index)
            for index in range(len(candidates))
            for fold_index in range(len(splits))
        ]
        flat = parallel_map(
            _fit_and_score,
            tasks,
            max_workers=max_workers,
            mode="process",
            shared=(
                [candidate for _, candidate in candidates],
                X, y, splits, scorer,
            ),
        )
        fold_scores = [
            flat[i * len(splits):(i + 1) * len(splits)]
            for i in range(len(candidates))
        ]

    results: List[Tuple[Dict[str, object], float]] = []
    best_params: Dict[str, object] = {}
    best_score = -np.inf
    for (params, _), scores in zip(candidates, fold_scores):
        mean_score = float(np.array(scores).mean())
        results.append((params, mean_score))
        if mean_score > best_score:
            best_score = mean_score
            best_params = params
    return GridSearchResult(
        best_params=best_params, best_score=best_score, results=results
    )


# ----------------------------------------------------------------------
# Forest-specific grid evaluation (work sharing across candidates).


def _score_forest_group(
    group: dict,
    split: Tuple[np.ndarray, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    n_by_index: Dict[int, int],
    scorer: Scorer,
) -> List[Tuple[int, float]]:
    """Score one (fold, candidate-group) task; pure function of its args."""
    train_idx, test_idx = split
    X_train, y_train = X[train_idx], y[train_idx]
    X_test, y_test = X[test_idx], y[test_idx]
    template: RandomForestRegressor = group["forest"]
    draws = bootstrap_draws(
        template.random_state, group["max_n"], len(X_train),
        template.bootstrap,
    )

    # Fit the depth-uncapped sequence first so capped variants can
    # reuse every tree whose natural depth stays below the cap; each
    # variant's remaining trees grow in one lockstep sweep.
    depth_values = sorted(
        group["depths"], key=lambda d: (d is not None, d)
    )
    tree_params = template.tree_params()
    uncapped: List = []
    scored: List[Tuple[int, float]] = []
    for depth in depth_values:
        # (``uncapped`` is still empty while ``depth`` is None.)
        trees = uncapped + [None] * (len(draws) - len(uncapped))
        refit = [
            tree_pos for tree_pos, tree in enumerate(trees)
            if tree is None or tree.depth() >= depth
        ]
        fitted = fit_trees(
            X_train, y_train, [draws[tree_pos] for tree_pos in refit],
            **{**tree_params, "max_depth": depth},
        )
        for tree_pos, tree in zip(refit, fitted):
            trees[tree_pos] = tree
        if depth is None:
            uncapped = trees
        # One descent over every tree, shared by every n_estimators
        # variant: the tree mean over a prefix of the leaf-value matrix is
        # bit-identical to the prefix forest's predict().
        leaf_values = FlatForest(trees).leaf_values(X_test)
        for index in group["depths"][depth]:
            prediction = tree_mean(leaf_values[:n_by_index[index]])
            scored.append((index, scorer(y_test, prediction)))
    return scored


def _forest_grid_task(
    groups, splits, X, y, n_by_index, scorer, task: Tuple[int, int]
) -> List[Tuple[int, float]]:
    """Score the ``(fold_index, group_pos)`` task of a forest grid."""
    fold_index, group_pos = task
    return _score_forest_group(
        groups[group_pos], splits[fold_index], X, y, n_by_index, scorer
    )


def _forest_grid_fold_scores(
    candidates: List[Tuple[Dict[str, object], RandomForestRegressor]],
    X: np.ndarray,
    y: np.ndarray,
    splits: List[Tuple[np.ndarray, np.ndarray]],
    scorer: Scorer,
    max_workers: Optional[int],
) -> List[List[float]]:
    """Per-candidate per-fold CV scores with cross-candidate sharing.

    Candidates are grouped by every hyper-parameter except
    ``n_estimators`` and ``max_depth``; each (fold, group) is an
    independent task that fits the depth-uncapped tree sequence once and
    derives capped/shorter variants from it (see module docstring for why
    this is bit-exact).
    """
    # group key -> {depth values} and the largest tree count needed.
    groups: Dict[tuple, dict] = {}
    for index, (_, forest) in enumerate(candidates):
        params = forest.get_params()
        key = tuple(sorted(
            (name, value) for name, value in params.items()
            if name not in ("n_estimators", "max_depth")
        ))
        group = groups.setdefault(
            key, {"forest": forest, "depths": {}, "max_n": 0}
        )
        group["depths"].setdefault(params["max_depth"], []).append(index)
        group["max_n"] = max(group["max_n"], params["n_estimators"])

    group_list = list(groups.values())
    n_by_index = {
        index: forest.n_estimators
        for index, (_, forest) in enumerate(candidates)
    }
    tasks = [
        (fold_index, group_pos)
        for fold_index in range(len(splits))
        for group_pos in range(len(group_list))
    ]
    task_results = parallel_map(
        _forest_grid_task,
        tasks,
        max_workers=max_workers,
        mode="process",
        shared=(group_list, splits, X, y, n_by_index, scorer),
    )

    fold_scores: List[List[Optional[float]]] = [
        [None] * len(splits) for _ in candidates
    ]
    for (fold_index, _), scored in zip(tasks, task_results):
        for index, score in scored:
            fold_scores[index][fold_index] = score
    return fold_scores
