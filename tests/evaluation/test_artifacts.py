"""The unified artifact store: round-trips, invalidation, silent rebuild.

Also pins backward compatibility: cache directories written by the
pre-refactor ad-hoc schemes (``save_dataset_cache`` / ``save_report_cache``
/ ``save_model`` at the original file names) must keep hitting through
the store, with bit-identical contents, and the envelope codec must write
the same bytes as those frozen writers (``persistence_reference.py``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.artifacts import ARTIFACT_KINDS, ArtifactStore
from repro.evaluation.persistence import save_model
from repro.ml.forest import RandomForestRegressor
from repro.predictor.dataset import CircuitDataset, DatasetEntry
from repro.predictor.estimator import EstimatorReport, HellingerEstimator

from . import persistence_reference as reference
from .persistence_reference import save_dataset_cache, save_report_cache

LEADERBOARD_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "leaderboards"


def make_dataset(device_name="Q20-A", entries=3):
    dataset = CircuitDataset(device_name=device_name)
    rng = np.random.default_rng(0)
    for index in range(entries):
        dataset.entries.append(
            DatasetEntry(
                name=f"ghz_{index + 2}",
                algorithm="ghz",
                num_qubits=index + 2,
                features=rng.uniform(size=30),
                label=float(rng.uniform()),
                fom_values={"Number of gates": float(index + 4)},
                compiled_depth=10 + index,
                compiled_two_qubit_gates=index + 1,
                success_probability=0.9,
            )
        )
    return dataset


def make_report(device_name="Q20-A"):
    rng = np.random.default_rng(1)
    return EstimatorReport(
        device_name=device_name,
        test_pearson=0.9,
        train_pearson=0.95,
        cv_score=0.85,
        best_params={"n_estimators": 8},
        feature_importances=rng.uniform(size=30),
        y_test=rng.uniform(size=4),
        y_test_pred=rng.uniform(size=4),
        test_indices=np.array([1, 3, 5, 7]),
    )


def make_estimator(seed=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(40, 30))
    y = rng.uniform(size=40)
    estimator = HellingerEstimator(
        param_grid={
            "n_estimators": [4],
            "max_depth": [3],
            "min_samples_leaf": [1],
            "min_samples_split": [2],
        },
        seed=0,
    )
    estimator.fit(X, y)
    return estimator, X


def make_artifact(kind, variant=0):
    """A small artifact of ``kind``; different variants differ in content."""
    if kind == "dataset":
        return make_dataset(entries=3 + variant)
    if kind == "report":
        return make_report(device_name=f"Q20-{'AB'[variant]}")
    if kind == "estimator":
        return make_estimator(seed=2 + variant)[0]
    if kind == "drift":
        return {
            "device_name": "zoo-line6",
            "base_pearson": 0.9 - variant,
            "steps": [{"step": 1, "stale_pearson": 0.7, "fine_tune": []}],
        }
    assert kind == "leaderboard"
    return {
        "config": {
            "layout": "greedy",
            "layout_seed_offset": variant,
            "routing_seed_offset": 0,
            "lookahead_size": 20,
            "opt_iterations": 8,
        },
        "estimator_fingerprint": "22af416b7ee1cc09",
        "expected_fidelity": 0.97,
    }


def assert_datasets_equal(a, b):
    assert a.device_name == b.device_name
    assert len(a) == len(b)
    for left, right in zip(a.entries, b.entries):
        assert left.name == right.name
        assert np.array_equal(left.features, right.features)
        assert left.label == right.label
        assert left.fom_values == right.fom_values


def assert_artifacts_equal(kind, loaded, expected):
    assert loaded is not None
    if kind == "dataset":
        assert_datasets_equal(loaded, expected)
    elif kind == "report":
        for field in ("device_name", "test_pearson", "train_pearson", "cv_score",
                      "best_params"):
            assert getattr(loaded, field) == getattr(expected, field)
        for field in ("feature_importances", "y_test", "y_test_pred", "test_indices"):
            assert np.array_equal(getattr(loaded, field), getattr(expected, field))
    elif kind == "estimator":
        X = np.random.default_rng(5).uniform(size=(20, 30))
        assert np.array_equal(loaded.predict(X), expected.predict(X))
        assert loaded.best_params_ == expected.best_params_
    else:
        assert loaded == expected


def edit_document(path, edit):
    """Apply ``edit`` to an entry's JSON bytes: the whole file, or the
    ``meta`` member of a model ``.npz``."""
    if path.suffix != ".npz":
        path.write_bytes(edit(path.read_bytes()))
        return
    with np.load(path) as npz:
        members = {key: npz[key] for key in npz.files}
    members["meta"] = np.frombuffer(edit(bytes(members["meta"])), dtype=np.uint8)
    with path.open("wb") as handle:
        np.savez(handle, **members)


def drop_key(key):
    def edit(raw):
        document = json.loads(raw)
        del document[key]
        return json.dumps(document).encode()

    return edit


#: Required body keys per kind; an entry missing any of them is a miss.
BODY_KEYS = {
    "dataset": ("device_name", "entries"),
    "report": ("device_name", "test_pearson"),
    "estimator": ("params", "estimator", "num_trees"),
    "leaderboard": ("config",),
    "drift": ("steps",),
}


def test_dataset_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    dataset = make_dataset()
    path = store.put("dataset", dataset, "Q20-A", "f" * 16)
    assert path.name == f"dataset_Q20-A_{'f' * 16}.json"
    assert_datasets_equal(store.get("dataset", "Q20-A", "f" * 16), dataset)


def test_report_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    report = make_report()
    store.put("report", report, "Q20-A", "ab")
    loaded = store.get("report", "Q20-A", "ab")
    assert loaded.test_pearson == report.test_pearson
    assert np.array_equal(loaded.feature_importances, report.feature_importances)
    assert np.array_equal(loaded.test_indices, report.test_indices)


def test_estimator_roundtrip_predicts_identically(tmp_path):
    store = ArtifactStore(tmp_path)
    estimator, X = make_estimator()
    store.put("estimator", estimator, "Q20-A", "cd")
    loaded = store.get("estimator", "Q20-A", "cd")
    assert isinstance(loaded, HellingerEstimator)
    assert np.array_equal(loaded.predict(X), estimator.predict(X))


def test_fingerprint_mismatch_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("dataset", make_dataset(), "Q20-A", "old-fingerprint")
    assert store.get("dataset", "Q20-A", "new-fingerprint") is None


def test_missing_entry_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    for kind in ARTIFACT_KINDS:
        assert store.get(kind, "Q20-A", "nope") is None


@pytest.mark.parametrize("kind", sorted(ARTIFACT_KINDS))
def test_corrupt_truncated_and_foreign_entries_rebuild_silently(tmp_path, kind):
    store = ArtifactStore(tmp_path)
    artifact = make_artifact(kind)
    fingerprint = "a1b2"
    path = store.put(kind, artifact, "Q20-A", fingerprint)
    good = path.read_bytes()
    # A foreign artifact of the wrong *kind* at the right path.
    other = "report" if kind == "dataset" else "dataset"
    wrong_kind = store.put(other, make_artifact(other), "X", "y").read_bytes()

    for damaged in (
        b"{ corrupted json",
        good[: len(good) // 2],  # truncated
        b'{"format": "another-tool-entirely"}',
        wrong_kind,
    ):
        path.write_bytes(damaged)
        assert store.get(kind, "Q20-A", fingerprint) is None

    edits = {
        "non-UTF-8 bytes": lambda raw: b"\xff" + raw,
        "not an object": lambda raw: b"[" + raw + b"]",
        **{f"no {key!r}": drop_key(key) for key in BODY_KEYS[kind]},
    }
    for damage, edit in edits.items():
        path.write_bytes(good)
        edit_document(path, edit)
        assert store.get(kind, "Q20-A", fingerprint) is None, damage

    # Rebuild-and-put over the bad entry restores service.
    store.put(kind, artifact, "Q20-A", fingerprint)
    assert_artifacts_equal(kind, store.get(kind, "Q20-A", fingerprint), artifact)


@pytest.mark.parametrize("kind", sorted(ARTIFACT_KINDS))
def test_failed_write_leaves_the_previous_entry(tmp_path, monkeypatch, kind):
    store = ArtifactStore(tmp_path)
    artifact = make_artifact(kind)
    path = store.put(kind, artifact, "Q20-A", "fp")
    before = path.read_bytes()

    def interrupted(source, target):
        assert Path(source).is_file()  # the new bytes were written aside
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        store.put(kind, make_artifact(kind, variant=1), "Q20-A", "fp")
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert_artifacts_equal(kind, store.get(kind, "Q20-A", "fp"), artifact)
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


def test_estimator_entry_of_wrong_model_kind_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    rng = np.random.default_rng(3)
    forest = RandomForestRegressor(n_estimators=3, random_state=0)
    forest.fit(rng.uniform(size=(20, 5)), rng.uniform(size=20))
    save_model(forest, store.path("estimator", "Q20-A", "ef"))
    assert store.get("estimator", "Q20-A", "ef") is None


def test_fetch_builds_once_and_reports_hits(tmp_path):
    store = ArtifactStore(tmp_path)
    dataset = make_dataset()
    calls = {"build": 0, "hit": 0}

    def build():
        calls["build"] += 1
        return dataset

    def on_hit():
        calls["hit"] += 1

    first = store.fetch("dataset", "Q20-A", "fp", build, on_hit=on_hit)
    second = store.fetch("dataset", "Q20-A", "fp", build, on_hit=on_hit)
    assert calls == {"build": 1, "hit": 1}
    assert_datasets_equal(first, second)


def test_unknown_kind_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="unknown artifact kind"):
        store.get("weights", "x", "y")
    with pytest.raises(ValueError, match="unknown artifact kind"):
        store.put("weights", object(), "x", "y")


def test_coerce_accepts_paths_stores_and_none(tmp_path):
    assert ArtifactStore.coerce(None) is None
    store = ArtifactStore.coerce(str(tmp_path))
    assert isinstance(store, ArtifactStore)
    assert ArtifactStore.coerce(store) is store


def test_entries_enumeration(tmp_path):
    store = ArtifactStore(tmp_path)
    assert list(store.entries()) == []
    store.put("dataset", make_dataset(), "Q20-A", "f1")
    store.put("report", make_report(), "Q20-A", "f2")
    estimator, _ = make_estimator()
    store.put("estimator", estimator, "Q20-A", "f2")
    kinds = [kind for kind, _ in store.entries()]
    assert sorted(kinds) == ["dataset", "estimator", "report"]
    assert [kind for kind, _ in store.entries("report")] == ["report"]


# ----------------------------------------------------------------------
# Backward compatibility with the pre-refactor ad-hoc cache schemes.


def test_pre_refactor_cache_files_keep_hitting(tmp_path):
    """Entries written with the old per-scheme helpers at the old file
    names must be found — bit-identical — through the store."""
    dataset = make_dataset()
    report = make_report()
    estimator, X = make_estimator()
    fp_data, fp_report = "0123456789abcdef", "fedcba9876543210"

    # The exact calls (and file names) run_study/run_cross_device_study
    # made before the ArtifactStore existed.
    save_dataset_cache(
        dataset, tmp_path / f"dataset_Q20-A_{fp_data}.json", fp_data
    )
    save_report_cache(
        report, tmp_path / f"report_Q20-A_{fp_report}.json", fp_report
    )
    save_model(
        estimator, tmp_path / f"transfer-estimator_Q20-A_{fp_report}.npz"
    )

    store = ArtifactStore(tmp_path)
    assert_datasets_equal(store.get("dataset", "Q20-A", fp_data), dataset)
    loaded_report = store.get("report", "Q20-A", fp_report)
    assert np.array_equal(
        loaded_report.feature_importances, report.feature_importances
    )
    loaded_estimator = store.get("estimator", "Q20-A", fp_report)
    assert np.array_equal(loaded_estimator.predict(X), estimator.predict(X))


def test_store_writes_the_pre_refactor_file_names(tmp_path):
    """The store's layout IS the old layout (old readers keep working)."""
    store = ArtifactStore(tmp_path)
    assert (
        store.path("dataset", "Q20-B", "aa").name == "dataset_Q20-B_aa.json"
    )
    assert store.path("report", "Q20-B", "bb").name == "report_Q20-B_bb.json"
    assert (
        store.path("estimator", "Q20-B", "cc").name
        == "transfer-estimator_Q20-B_cc.npz"
    )


def test_drift_cache_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    result = {
        "device_name": "zoo-line6",
        "base_pearson": 0.9,
        "steps": [{"step": 1, "stale_pearson": 0.7, "fine_tune": []}],
    }
    store.put("drift", result, "zoo-line6", "fp1")
    assert store.get("drift", "zoo-line6", "fp1") == result
    path = store.path("drift", "zoo-line6", "fp1")
    assert path.name == "drift_zoo-line6_fp1.json"


def test_drift_cache_invalidation(tmp_path):
    import json

    store = ArtifactStore(tmp_path)
    result = {"steps": []}
    store.put("drift", result, "dev", "fp1")
    # Stale fingerprint, corrupt payload, and a foreign format are all
    # silent misses.
    assert store.get("drift", "dev", "other-fp") is None
    path = store.path("drift", "dev", "fp1")
    path.write_text("{not json")
    assert store.get("drift", "dev", "fp1") is None
    path.write_text(json.dumps({"format": "something-else"}))
    assert store.get("drift", "dev", "fp1") is None
    # A payload without a steps list is rejected even if tagged right.
    store.put("drift", result, "dev", "fp1")
    payload = json.loads(path.read_text())
    del payload["steps"]
    path.write_text(json.dumps(payload))
    assert store.get("drift", "dev", "fp1") is None


# ----------------------------------------------------------------------
# Byte identity with the frozen pre-codec writers.

REFERENCE_WRITERS = {
    "dataset": reference.save_dataset_cache,
    "report": reference.save_report_cache,
    "drift": reference.save_drift_cache,
    "leaderboard": reference.save_leaderboard_cache,
    "estimator": lambda model, path, fingerprint: reference.save_model(model, path),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACT_KINDS))
def test_codec_matches_the_frozen_writers_byte_for_byte(tmp_path, kind):
    artifact = make_artifact(kind)
    written = ArtifactStore(tmp_path / "codec").put(kind, artifact, "Q20-A", "fp")
    frozen_store = ArtifactStore(tmp_path / "frozen")
    frozen = REFERENCE_WRITERS[kind](
        artifact, frozen_store.path(kind, "Q20-A", "fp"), "fp"
    )
    assert written.read_bytes() == frozen.read_bytes()
    # Entries the frozen writers left behind keep hitting.
    assert_artifacts_equal(kind, frozen_store.get(kind, "Q20-A", "fp"), artifact)


def test_committed_leaderboards_round_trip_byte_identical(tmp_path):
    committed = ArtifactStore(LEADERBOARD_DIR)
    refs = list(committed.refs("leaderboard"))
    assert refs, f"no committed leaderboards under {LEADERBOARD_DIR}"
    rewritten = ArtifactStore(tmp_path)
    for ref in refs:
        entry = committed.get("leaderboard", ref.name, ref.fingerprint)
        assert entry is not None, ref.path.name
        path = rewritten.put("leaderboard", entry, ref.name, ref.fingerprint)
        assert path.read_bytes() == ref.path.read_bytes(), ref.path.name
