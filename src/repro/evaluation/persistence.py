"""Persistence: one envelope codec for every on-disk artifact.

Every stage cache, leaderboard row and model file is an *envelope*: a
header around a per-kind body.  The header holds a ``format`` tag, a
``version`` (the dataset and report kinds never wrote one) and the
``fingerprint`` of every input that built the artifact (models carry
theirs in the file name only).  A :class:`Codec` describes one kind:

* its header (format tag, version, whether it is fingerprinted);
* its :class:`Layout` — compact JSON (dataset and report caches),
  canonical JSON with sorted keys, two-space indent and a trailing
  newline (drift results and leaderboard rows, so a rerun regenerates a
  committed file byte for byte), or ``.npz`` (models: flat node arrays
  plus a JSON ``meta`` member);
* its body pair: ``encode`` (artifact to body) and ``decode`` (body to
  artifact).

:meth:`Codec.save` is the one writer.  It adds the header to the body
and writes the bytes to a temp file in the target directory, which
``os.replace`` then renames over the entry: a reader sees the old entry
or the new one, never half of one.  :meth:`Codec.load` is the one
reader.  It checks format, version and fingerprint and turns *every*
problem (missing, unreadable, not UTF-8, not an object, foreign, wrong
version, stale, or a body of the wrong shape) into
:class:`PersistenceError`, which
:class:`~repro.evaluation.artifacts.ArtifactStore` treats as a miss: a
cache must never kill a long study.

:func:`save_model` / :func:`load_model` are the :data:`MODEL` codec; a
loaded model predicts bit-identically to the one that was saved.  Study
archives (:func:`save_study` / :func:`load_study_data` /
:func:`load_datasets`) are plain JSON with no envelope, unchanged from the
original interface.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

import numpy as np

from ..ml.forest import RandomForestRegressor
from ..ml.tree import TREE_ARRAY_KEYS, DecisionTreeRegressor
from ..predictor.dataset import CircuitDataset, DatasetEntry
from ..predictor.estimator import EstimatorReport, HellingerEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from .study import StudyResult


class PersistenceError(ValueError):
    """A model or cache file is missing, corrupted, or incompatible."""


def _replace(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` through a temp file in its directory.

    The rename is atomic, so concurrent readers and writers never see a
    torn entry; a failed write removes the temp file and leaves the old
    entry in place.  No fsync: a reader already treats a torn entry (as
    left by a power cut) as a miss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


# ----------------------------------------------------------------------
# Study archives (JSON) — original interface.


def study_to_dict(result: "StudyResult") -> Dict:
    """Serialize a study result into plain JSON-compatible data."""
    return {
        "device_names": list(result.device_names),
        "correlations": {
            fom: dict(columns) for fom, columns in result.correlations.items()
        },
        "improvements": dict(result.improvements),
        "reports": {
            name: {
                "test_pearson": report.test_pearson,
                "train_pearson": report.train_pearson,
                "cv_score": report.cv_score,
                "best_params": {
                    k: v for k, v in report.best_params.items()
                },
                "feature_importances": report.feature_importances.tolist(),
            }
            for name, report in result.reports.items()
        },
        "datasets": {
            name: [_entry_to_dict(entry) for entry in dataset.entries]
            for name, dataset in result.datasets.items()
        },
    }


def save_study(result: "StudyResult", path: str | Path) -> Path:
    """Write a study result to ``path`` as JSON; returns the path."""
    text = json.dumps(study_to_dict(result), indent=1)
    return _replace(Path(path), text.encode("utf-8"))


def load_study_data(path: str | Path) -> Dict:
    """Load the raw dict written by :func:`save_study`."""
    return json.loads(Path(path).read_text())


def load_datasets(path: str | Path) -> Dict[str, CircuitDataset]:
    """Rebuild :class:`CircuitDataset` objects from a saved study.

    Compiled circuits are not persisted; entries carry ``compiled=None``.
    Everything needed to retrain/score models (features, labels, FoM
    columns) is restored.
    """
    return {
        name: _dataset_from_body({"device_name": name, "entries": entries})
        for name, entries in load_study_data(path)["datasets"].items()
    }


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


# ----------------------------------------------------------------------
# The envelope codec.


class Layout(NamedTuple):
    """How a header and a body become file bytes, and back."""

    dump: Callable[[Dict, Dict], bytes]  # (header, body) -> file bytes
    parse: Callable[[bytes], Any]        # file bytes -> header and body


def _dump_compact(header: Dict, body: Dict) -> bytes:
    return json.dumps({**header, **body}).encode("utf-8")


def _dump_canonical(header: Dict, body: Dict) -> bytes:
    text = json.dumps({**body, **header}, sort_keys=True, indent=2) + "\n"
    return text.encode("utf-8")


def _parse_json(raw: bytes):
    return json.loads(raw.decode("utf-8"))


def _dump_npz(header: Dict, body: Dict) -> bytes:
    """Array values become ``.npz`` members; the rest is JSON ``meta``."""
    arrays = {k: v for k, v in body.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in body.items() if k not in arrays}
    encoded = json.dumps({**meta, **header}).encode("utf-8")
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, meta=np.frombuffer(encoded, dtype=np.uint8), **arrays
    )
    return buffer.getvalue()


def _parse_npz(raw: bytes) -> Dict:
    with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
    return {**arrays, **meta}  # meta last: no array can shadow the header


COMPACT = Layout(_dump_compact, _parse_json)
CANONICAL = Layout(_dump_canonical, _parse_json)
NPZ = Layout(_dump_npz, _parse_npz)

#: What a body of the wrong shape raises in a decode function.
_SHAPE_ERRORS = (KeyError, IndexError, TypeError, ValueError)
#: What an unreadable, damaged or foreign file raises while it is parsed.
_PARSE_ERRORS = (OSError, EOFError, zipfile.BadZipFile, zlib.error, *_SHAPE_ERRORS)


class Codec(NamedTuple):
    """One artifact kind: its envelope header, layout and body pair."""

    format: str                     # the header's "format" tag
    version: Optional[int]          # the header's "version"; None: never written
    layout: Layout
    encode: Callable[[Any], Dict]   # artifact -> body
    decode: Callable[[Dict], Any]   # body -> artifact; may raise on bad shape
    fingerprinted: bool = True      # the header carries the inputs' fingerprint

    @property
    def label(self) -> str:
        """Human name for messages: ``"dataset cache"``, ``"model"``, ..."""
        return self.format[len("repro-"):].replace("-", " ")

    def header(self, fingerprint: Optional[str]) -> Dict:
        header: Dict[str, Any] = {"format": self.format}
        if self.version is not None:
            header["version"] = self.version
        if self.fingerprinted:
            header["fingerprint"] = fingerprint
        return header

    def save(
        self, artifact, path: str | Path, fingerprint: Optional[str] = None
    ) -> Path:
        """Write ``artifact`` in its envelope to ``path``, atomically."""
        data = self.layout.dump(self.header(fingerprint), self.encode(artifact))
        return _replace(Path(path), data)

    def load(self, path: str | Path, fingerprint: Optional[str] = None):
        """The artifact at ``path``; :class:`PersistenceError` on any problem.

        Missing, unreadable, foreign-format, wrong-version,
        stale-fingerprint and wrongly shaped entries all raise.
        """
        path = Path(path)
        try:
            payload = self.layout.parse(path.read_bytes())
        except FileNotFoundError:
            raise PersistenceError(f"no {self.label} file at {path}") from None
        except _PARSE_ERRORS as exc:
            raise PersistenceError(
                f"{path} is not a repro {self.label} file: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != self.format:
            raise PersistenceError(f"{path} is not a repro {self.label} file")
        if self.version is not None and payload.get("version") != self.version:
            raise PersistenceError(
                f"{path} has unsupported {self.label} version "
                f"{payload.get('version')!r}"
            )
        if self.fingerprinted and payload.get("fingerprint") != fingerprint:
            raise PersistenceError(
                f"{path} was built from different inputs "
                f"(fingerprint {payload.get('fingerprint')!r} != {fingerprint!r})"
            )
        header = self.header(fingerprint)
        body = {k: v for k, v in payload.items() if k not in header}
        try:
            return self.decode(body)
        except _SHAPE_ERRORS as exc:
            raise PersistenceError(
                f"corrupted {self.label} file {path}: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Body functions: stage caches.


def _dataset_body(dataset: CircuitDataset) -> Dict:
    return {
        "device_name": dataset.device_name,
        "entries": [_entry_to_dict(entry) for entry in dataset.entries],
    }


def _dataset_from_body(body: Dict) -> CircuitDataset:
    dataset = CircuitDataset(device_name=body["device_name"])
    dataset.entries.extend(_entry_from_dict(record) for record in body["entries"])
    return dataset


def _report_body(report: EstimatorReport) -> Dict:
    return {
        "device_name": report.device_name,
        "test_pearson": report.test_pearson,
        "train_pearson": report.train_pearson,
        "cv_score": report.cv_score,
        "best_params": report.best_params,
        "feature_importances": report.feature_importances.tolist(),
        "y_test": report.y_test.tolist(),
        "y_test_pred": report.y_test_pred.tolist(),
        "test_indices": report.test_indices.tolist(),
    }


def _report_from_body(body: Dict) -> EstimatorReport:
    return EstimatorReport(
        device_name=body["device_name"],
        test_pearson=float(body["test_pearson"]),
        train_pearson=float(body["train_pearson"]),
        cv_score=float(body["cv_score"]),
        best_params=dict(body["best_params"]),
        feature_importances=np.array(body["feature_importances"], dtype=float),
        y_test=np.array(body["y_test"], dtype=float),
        y_test_pred=np.array(body["y_test_pred"], dtype=float),
        test_indices=np.array(body["test_indices"], dtype=int),
    )


def _drift_from_body(body: Dict) -> Dict:
    if not isinstance(body.get("steps"), list):
        raise ValueError("no steps list")
    return body


#: Version of committed compilation-search leaderboard rows (also part
#: of the leaderboard fingerprint, see :mod:`repro.compiler.search`).
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


def _leaderboard_from_body(body: Dict) -> Dict:
    config = body.get("config")
    if not isinstance(config, dict) or any(
        key not in config for key in _LEADERBOARD_CONFIG_KEYS
    ):
        raise ValueError("incomplete pass config")
    return body


# ----------------------------------------------------------------------
# Body functions: models (meta fields plus flat node arrays per tree).


def _tree_body(tree: DecisionTreeRegressor, prefix: str) -> Dict[str, np.ndarray]:
    arrays = tree.to_arrays()
    return {f"{prefix}{key}": value for key, value in arrays.items()}


def _forest_body(forest: RandomForestRegressor) -> Dict:
    if not forest.estimators_:
        raise PersistenceError("cannot save an unfitted forest")
    body = {
        "kind": "forest",
        "params": forest.get_params(),
        "num_features": forest.estimators_[0]._num_features,
        "num_trees": len(forest.estimators_),
        "tree_params": [t.get_params() for t in forest.estimators_],
        "forest_importances": forest.feature_importances_.copy(),
    }
    for index, tree in enumerate(forest.estimators_):
        body.update(_tree_body(tree, f"tree{index}_"))
    return body


def _model_body(model) -> Dict:
    if isinstance(model, HellingerEstimator):
        if model.model is None:
            raise PersistenceError("cannot save an unfitted estimator")
        body = _forest_body(model.model)
        body["kind"] = "hellinger_estimator"
        body["estimator"] = {
            "param_grid": model.param_grid,
            "n_splits": model.n_splits,
            "seed": model.seed,
            "best_params": model.best_params_,
            "cv_score": model.cv_score_,
        }
        return body
    if isinstance(model, RandomForestRegressor):
        return _forest_body(model)
    if isinstance(model, DecisionTreeRegressor):
        if model.feature_importances_ is None:
            raise PersistenceError("cannot save an unfitted tree")
        return {
            "kind": "tree",
            "params": model.get_params(),
            "num_features": model._num_features,
            **_tree_body(model, "tree_"),
        }
    raise PersistenceError(
        f"cannot persist a {type(model).__name__}; expected a tree, "
        "forest, or HellingerEstimator"
    )


def _tree_from_body(
    body: Dict, prefix: str, params: dict, num_features: int
) -> DecisionTreeRegressor:
    try:
        arrays = {
            key: body[f"{prefix}{key}"]
            for key in (*TREE_ARRAY_KEYS, "importances")
        }
    except KeyError as exc:
        raise ValueError(f"missing array {exc}") from None
    return DecisionTreeRegressor.from_arrays(params, num_features, arrays)


def _model_from_body(body: Dict):
    kind = body.get("kind")
    if kind == "tree":
        return _tree_from_body(body, "tree_", body["params"], body["num_features"])
    if kind not in ("forest", "hellinger_estimator"):
        raise ValueError(f"unknown model kind {kind!r}")
    # Older files store the forest's worker settings among its params;
    # they never changed a fitted model, so loading drops them.
    params = {
        key: value for key, value in body["params"].items()
        if key not in ("max_workers", "workers_mode")
    }
    forest = RandomForestRegressor(**params)
    num_trees = int(body["num_trees"])
    tree_params = body["tree_params"]
    num_features = int(body["num_features"])
    if len(tree_params) != num_trees:
        raise ValueError("tree count mismatch")
    forest.estimators_ = [
        _tree_from_body(body, f"tree{i}_", tree_params[i], num_features)
        for i in range(num_trees)
    ]
    forest.feature_importances_ = np.asarray(
        body["forest_importances"], dtype=float
    )
    if kind == "forest":
        return forest
    info = body["estimator"]
    estimator = HellingerEstimator(
        param_grid=info["param_grid"],
        n_splits=info["n_splits"],
        seed=info["seed"],
    )
    estimator.model = forest
    estimator.best_params_ = dict(info["best_params"])
    estimator.cv_score_ = float(info["cv_score"])
    return estimator


def _estimator_from_body(body: Dict) -> HellingerEstimator:
    model = _model_from_body(body)
    if not isinstance(model, HellingerEstimator):
        raise ValueError(
            f"holds a {type(model).__name__}, not a HellingerEstimator"
        )
    return model


# ----------------------------------------------------------------------
# The codecs, one per artifact kind.

DATASET = Codec("repro-dataset-cache", None, COMPACT, _dataset_body, _dataset_from_body)
REPORT = Codec("repro-report-cache", None, COMPACT, _report_body, _report_from_body)
DRIFT = Codec("repro-drift-cache", 1, CANONICAL, dict, _drift_from_body)
LEADERBOARD = Codec(
    "repro-leaderboard", LEADERBOARD_VERSION, CANONICAL, dict, _leaderboard_from_body
)
#: Trees, forests and estimators; the fingerprint, if any, lives in the
#: file name, so plain :func:`load_model` reads every model file.
MODEL = Codec("repro-model", 1, NPZ, _model_body, _model_from_body, fingerprinted=False)
#: A model file that must hold a :class:`HellingerEstimator`.
ESTIMATOR = MODEL._replace(decode=_estimator_from_body)


def save_model(
    model: "DecisionTreeRegressor | RandomForestRegressor | HellingerEstimator",
    path: str | Path,
) -> Path:
    """Save a fitted tree, forest, or Hellinger estimator to ``path``.

    The file is a single ``.npz``: flat node arrays per tree plus one JSON
    metadata entry (kind, hyper-parameters, grid-search outcome for
    estimators).  Load with :func:`load_model`.
    """
    return MODEL.save(model, path)


def load_model(path: str | Path):
    """Load a model written by :func:`save_model`.

    Returns the same kind of object that was saved; predictions and
    feature importances are bit-identical to the original.  Raises
    :class:`PersistenceError` on missing, corrupted, or foreign files.
    """
    return MODEL.load(path)


# ----------------------------------------------------------------------
# Fingerprints: the cache keys.


def config_fingerprint(payload: Any) -> str:
    """Stable short hash of a JSON-serializable payload (cache keys)."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def device_fingerprint(device) -> str:
    """Content hash of everything a labelled dataset reads off a device.

    A sha256 over :meth:`~repro.hardware.device.Device.content_key`: the
    topology, native gate set, both calibration snapshots (compilation
    sees the *reported* one, execution the *true* one), and the
    noise-profile parameters — so an in-place edit of error rates misses
    the cache.  Stable across processes: the key's only ``hash()`` is the
    coupling fingerprint's, over ints, which Python does not salt.
    """
    return config_fingerprint(device.content_key())
