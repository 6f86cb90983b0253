"""FROZEN reference copy of the artifact writers and readers as of 29ffea5.

Do not edit (beyond these header lines and absolute imports): the
byte-identity tests compare the envelope codec in
``repro/evaluation/persistence.py`` against this verbatim snapshot of the
five hand-written writers (dataset, report, drift and leaderboard caches,
and ``.npz`` models) and the four JSON readers it replaced, the same
pattern ``tests/ml/reference_impl.py`` and
``tests/fom/reference_features.py`` use.  Files written here must load
through :class:`repro.evaluation.artifacts.ArtifactStore`, and the codec
must write the same bytes.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.evaluation.persistence import PersistenceError
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.predictor.dataset import CircuitDataset, DatasetEntry
from repro.predictor.estimator import EstimatorReport, HellingerEstimator

#: Format tag + version embedded in every ``.npz`` model file.
MODEL_FORMAT = "repro-model"
MODEL_VERSION = 1


def _entry_to_dict(entry: DatasetEntry) -> Dict:
    return {
        "name": entry.name,
        "algorithm": entry.algorithm,
        "num_qubits": entry.num_qubits,
        "features": entry.features.tolist(),
        "label": entry.label,
        "fom_values": dict(entry.fom_values),
        "compiled_depth": entry.compiled_depth,
        "compiled_two_qubit_gates": entry.compiled_two_qubit_gates,
        "success_probability": entry.success_probability,
    }


def _entry_from_dict(record: Dict) -> DatasetEntry:
    return DatasetEntry(
        name=record["name"],
        algorithm=record["algorithm"],
        num_qubits=record["num_qubits"],
        features=np.array(record["features"], dtype=float),
        label=float(record["label"]),
        fom_values=dict(record["fom_values"]),
        compiled_depth=int(record["compiled_depth"]),
        compiled_two_qubit_gates=int(record["compiled_two_qubit_gates"]),
        success_probability=float(record["success_probability"]),
    )


def _tree_payload(tree: DecisionTreeRegressor, prefix: str) -> Dict[str, np.ndarray]:
    arrays = tree.to_arrays()
    return {f"{prefix}{key}": value for key, value in arrays.items()}


def _write_npz(path: Path, meta: Dict, arrays: Dict[str, np.ndarray]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"meta": np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )}
    payload.update(arrays)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    path.write_bytes(buffer.getvalue())
    return path


def save_model(
    model: "DecisionTreeRegressor | RandomForestRegressor | HellingerEstimator",
    path: str | Path,
) -> Path:
    """Save a fitted tree, forest, or Hellinger estimator to ``path``.

    The file is a single ``.npz``: flat node arrays per tree plus one JSON
    metadata entry (kind, hyper-parameters, grid-search outcome for
    estimators).  Load with :func:`load_model`.
    """
    if isinstance(model, HellingerEstimator):
        if model.model is None:
            raise PersistenceError("cannot save an unfitted estimator")
        meta, arrays = _forest_content(model.model)
        meta["kind"] = "hellinger_estimator"
        meta["estimator"] = {
            "param_grid": model.param_grid,
            "n_splits": model.n_splits,
            "seed": model.seed,
            "best_params": model.best_params_,
            "cv_score": model.cv_score_,
        }
    elif isinstance(model, RandomForestRegressor):
        meta, arrays = _forest_content(model)
    elif isinstance(model, DecisionTreeRegressor):
        if model.feature_importances_ is None:
            raise PersistenceError("cannot save an unfitted tree")
        meta = {
            "kind": "tree",
            "params": model.get_params(),
            "num_features": model._num_features,
        }
        arrays = _tree_payload(model, "tree_")
    else:
        raise PersistenceError(
            f"cannot persist a {type(model).__name__}; expected a tree, "
            "forest, or HellingerEstimator"
        )
    meta["format"] = MODEL_FORMAT
    meta["version"] = MODEL_VERSION
    return _write_npz(Path(path), meta, arrays)


def _forest_content(forest: RandomForestRegressor):
    if not forest.estimators_:
        raise PersistenceError("cannot save an unfitted forest")
    meta = {
        "kind": "forest",
        "params": forest.get_params(),
        "num_features": forest.estimators_[0]._num_features,
        "num_trees": len(forest.estimators_),
        "tree_params": [t.get_params() for t in forest.estimators_],
    }
    arrays: Dict[str, np.ndarray] = {
        "forest_importances": forest.feature_importances_.copy()
    }
    for index, tree in enumerate(forest.estimators_):
        arrays.update(_tree_payload(tree, f"tree{index}_"))
    return meta, arrays


def save_dataset_cache(
    dataset: CircuitDataset, path: str | Path, fingerprint: str
) -> Path:
    """Write one device's labelled dataset as a cache entry."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "format": "repro-dataset-cache",
        "fingerprint": fingerprint,
        "device_name": dataset.device_name,
        "entries": [_entry_to_dict(entry) for entry in dataset.entries],
    }))
    return path


def load_dataset_cache(
    path: str | Path, fingerprint: str
) -> CircuitDataset:
    """Load a cached dataset; raises :class:`PersistenceError` when the
    file is unreadable, foreign, or was written for different inputs."""
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no dataset cache at {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unreadable dataset cache {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != "repro-dataset-cache":
        raise PersistenceError(f"{path} is not a dataset cache file")
    if data.get("fingerprint") != fingerprint:
        raise PersistenceError(
            f"{path} was built from different inputs "
            f"(fingerprint {data.get('fingerprint')!r} != {fingerprint!r})"
        )
    dataset = CircuitDataset(device_name=data["device_name"])
    try:
        for record in data["entries"]:
            dataset.entries.append(_entry_from_dict(record))
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"corrupted dataset cache {path}: {exc}") from exc
    return dataset


def save_report_cache(
    report: EstimatorReport, path: str | Path, fingerprint: str
) -> Path:
    """Write a trained-estimator report as a cache entry."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "format": "repro-report-cache",
        "fingerprint": fingerprint,
        "device_name": report.device_name,
        "test_pearson": report.test_pearson,
        "train_pearson": report.train_pearson,
        "cv_score": report.cv_score,
        "best_params": report.best_params,
        "feature_importances": report.feature_importances.tolist(),
        "y_test": report.y_test.tolist(),
        "y_test_pred": report.y_test_pred.tolist(),
        "test_indices": report.test_indices.tolist(),
    }))
    return path


def load_report_cache(path: str | Path, fingerprint: str) -> EstimatorReport:
    """Load a cached report; raises :class:`PersistenceError` when stale."""
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no report cache at {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unreadable report cache {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != "repro-report-cache":
        raise PersistenceError(f"{path} is not a report cache file")
    if data.get("fingerprint") != fingerprint:
        raise PersistenceError(
            f"{path} was built from different inputs "
            f"(fingerprint {data.get('fingerprint')!r} != {fingerprint!r})"
        )
    try:
        return EstimatorReport(
            device_name=data["device_name"],
            test_pearson=float(data["test_pearson"]),
            train_pearson=float(data["train_pearson"]),
            cv_score=float(data["cv_score"]),
            best_params=dict(data["best_params"]),
            feature_importances=np.array(
                data["feature_importances"], dtype=float
            ),
            y_test=np.array(data["y_test"], dtype=float),
            y_test_pred=np.array(data["y_test_pred"], dtype=float),
            test_indices=np.array(data["test_indices"], dtype=int),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"corrupted report cache {path}: {exc}") from exc


#: Format tag + version of cached drift-study results.
DRIFT_FORMAT = "repro-drift-cache"
DRIFT_VERSION = 1


def save_drift_cache(result: Dict, path: str | Path, fingerprint: str) -> Path:
    """Write a completed drift-study result (plain-dict form).

    Same contract as the other stage caches: canonical JSON carrying a
    format tag plus the fingerprint of every input, so a rerun with
    unchanged inputs is a pure cache read and any input change is a miss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(result)
    payload["format"] = DRIFT_FORMAT
    payload["version"] = DRIFT_VERSION
    payload["fingerprint"] = fingerprint
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_drift_cache(path: str | Path, fingerprint: str) -> Dict:
    """Load a drift-study cache entry; :class:`PersistenceError` when the
    file is missing, unreadable, foreign, wrong-version, or stale."""
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no drift cache at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unreadable drift cache {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != DRIFT_FORMAT:
        raise PersistenceError(f"{path} is not a drift cache file")
    if data.get("version") != DRIFT_VERSION:
        raise PersistenceError(
            f"{path} has unsupported drift-cache version "
            f"{data.get('version')!r}"
        )
    if data.get("fingerprint") != fingerprint:
        raise PersistenceError(
            f"{path} was built from different inputs "
            f"(fingerprint {data.get('fingerprint')!r} != {fingerprint!r})"
        )
    if not isinstance(data.get("steps"), list):
        raise PersistenceError(f"corrupted drift cache {path}: no steps list")
    # Strip the envelope: callers get back exactly what they stored.
    return {
        key: value
        for key, value in data.items()
        if key not in ("format", "version", "fingerprint")
    }


#: Format tag + version of committed compilation-search leaderboard rows.
LEADERBOARD_FORMAT = "repro-leaderboard"
LEADERBOARD_VERSION = 1

#: The pass-configuration keys every leaderboard entry must carry
#: (mirrors :class:`repro.compiler.search.PassConfig`; validated
#: structurally here to keep evaluation free of compiler imports).
_LEADERBOARD_CONFIG_KEYS = (
    "layout",
    "layout_seed_offset",
    "routing_seed_offset",
    "lookahead_size",
    "opt_iterations",
)


def save_leaderboard_cache(
    entry: Dict, path: str | Path, fingerprint: str
) -> Path:
    """Write one (device-family, width-bucket) leaderboard row.

    Canonical JSON — sorted keys, fixed indentation, trailing newline, no
    timestamps — so re-running the same search over the same estimator
    regenerates the committed file *byte for byte*.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(entry)
    payload["format"] = LEADERBOARD_FORMAT
    payload["version"] = LEADERBOARD_VERSION
    payload["fingerprint"] = fingerprint
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_leaderboard_cache(path: str | Path, fingerprint: str) -> Dict:
    """Load a leaderboard row; raises :class:`PersistenceError` when stale.

    Missing, unreadable, foreign-format, wrong-version, structurally
    invalid, and stale-fingerprint entries all raise — through the
    :class:`~repro.evaluation.artifacts.ArtifactStore` that is a silent
    miss, and the compiler searches fresh.
    """
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no leaderboard entry at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"unreadable leaderboard entry {path}: {exc}"
        ) from exc
    if not isinstance(data, dict) or data.get("format") != LEADERBOARD_FORMAT:
        raise PersistenceError(f"{path} is not a leaderboard entry")
    if data.get("version") != LEADERBOARD_VERSION:
        raise PersistenceError(
            f"{path} has unsupported leaderboard version "
            f"{data.get('version')!r}"
        )
    if data.get("fingerprint") != fingerprint:
        raise PersistenceError(
            f"{path} was built from different inputs "
            f"(fingerprint {data.get('fingerprint')!r} != {fingerprint!r})"
        )
    config = data.get("config")
    if not isinstance(config, dict) or any(
        key not in config for key in _LEADERBOARD_CONFIG_KEYS
    ):
        raise PersistenceError(
            f"corrupted leaderboard entry {path}: incomplete pass config"
        )
    return data
