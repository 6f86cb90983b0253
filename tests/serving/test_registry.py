"""ModelRegistry: loading, fingerprinting, and lookup semantics."""

import hashlib

import numpy as np
import pytest

from repro.evaluation.artifacts import ArtifactStore
from repro.evaluation.persistence import save_model
from repro.predictor.estimator import HellingerEstimator
from repro.serving.registry import ModelRegistry, ModelSource

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}


@pytest.fixture(scope="module")
def estimator():
    rng = np.random.default_rng(0)
    return HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )


@pytest.fixture(scope="module")
def model_path(estimator, tmp_path_factory):
    path = tmp_path_factory.mktemp("registry") / "model.npz"
    save_model(estimator, path)
    return path


def test_add_model_file_fingerprint_is_content_hash(model_path):
    registry = ModelRegistry()
    entry = registry.add_model_file(model_path, "q20a", seed=0)
    expected = hashlib.sha256(model_path.read_bytes()).hexdigest()[:12]
    assert entry.name == "model"
    assert entry.fingerprint == expected
    assert entry.key == ("model", expected)
    assert len(registry) == 1
    # Two registries booted from the same file agree on the address.
    other = ModelRegistry().add_model_file(model_path, "q20a", name="m2")
    assert other.fingerprint == expected


def test_add_model_file_rejects_missing_and_duplicate(model_path, tmp_path):
    registry = ModelRegistry()
    with pytest.raises(ValueError, match="no model file"):
        registry.add_model_file(tmp_path / "nope.npz", "q20a")
    registry.add_model_file(model_path, "q20a")
    with pytest.raises(ValueError, match="already registered"):
        registry.add_model_file(model_path, "q20a")
    # A different name is a different address for the same bytes.
    registry.add_model_file(model_path, "q20a", name="alias")
    assert len(registry) == 2


def test_add_store_loads_matching_artifacts(estimator, tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-A", "fp1")
    store.put("estimator", estimator, "Q20-B", "fp2")
    registry = ModelRegistry()
    loaded = registry.add_store(store, "q20a", optimization_level=2, seed=0)
    assert sorted(entry.key for entry in loaded) == [
        ("Q20-A", "fp1"), ("Q20-B", "fp2"),
    ]
    # Filters narrow the load; a path works as the store argument.
    only_b = ModelRegistry().add_store(str(tmp_path), "q20a", name="Q20-B")
    assert [entry.key for entry in only_b] == [("Q20-B", "fp2")]
    only_fp1 = ModelRegistry().add_store(store, "q20a", fingerprint="fp1")
    assert [entry.key for entry in only_fp1] == [("Q20-A", "fp1")]


def test_add_store_zero_matches_is_an_error(estimator, tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="no estimator artifact"):
        ModelRegistry().add_store(store, "q20a")
    store.put("estimator", estimator, "Q20-A", "fp1")
    with pytest.raises(ValueError, match="no estimator artifact"):
        ModelRegistry().add_store(store, "q20a", name="Q99")


def test_resolve_filters_and_ambiguity(model_path):
    registry = ModelRegistry()
    first = registry.add_model_file(model_path, "q20a", name="alpha")
    second = registry.add_model_file(model_path, "q20a", name="beta")
    assert registry.resolve("alpha") is first
    assert registry.resolve("beta", second.fingerprint) is second
    with pytest.raises(ValueError, match="ambiguous"):
        registry.resolve()  # both share the fingerprint
    with pytest.raises(ValueError, match="no registered model"):
        registry.resolve("gamma")
    # A single-model registry resolves with no filters at all.
    solo = ModelRegistry()
    entry = solo.add_model_file(model_path, "q20a")
    assert solo.resolve() is entry


def test_describe_is_json_ready(model_path):
    registry = ModelRegistry()
    entry = registry.add_model_file(
        model_path, "q20a", optimization_level=3, seed=0
    )
    description = entry.describe()
    assert description["name"] == "model"
    assert description["fingerprint"] == entry.fingerprint
    assert description["device"] == "Q20-A"
    assert description["optimization_level"] == "3"
    assert all(isinstance(value, str) for value in description.values())


# ----------------------------------------------------------------------
# Versioned refresh / hot reload
# ----------------------------------------------------------------------


def _fit_estimator(seed):
    rng = np.random.default_rng(seed)
    return HellingerEstimator(param_grid=TINY_GRID, seed=seed).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )


def test_refresh_detects_overwritten_file(estimator, tmp_path):
    """Regression: the fingerprint used to be computed once at
    registration, so an overwritten .npz kept serving the old model
    under the old address forever."""
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    registry = ModelRegistry()
    first = registry.add_model_file(path, "q20a", seed=0)
    assert not registry.maybe_stale()
    assert registry.refresh() == []

    save_model(_fit_estimator(9), path)
    assert registry.maybe_stale()
    swapped = registry.refresh()
    assert len(swapped) == 1
    superseded, successor = swapped[0]
    assert superseded.key == first.key
    assert successor.name == "model"
    assert successor.version == 2
    expected = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    assert successor.fingerprint == expected
    assert registry.swaps == 1 and registry.refreshes == 2
    # Unpinned lookups land on the new version...
    assert registry.resolve("model").fingerprint == expected
    # ...while the superseded fingerprint stays pinnable (in-flight
    # batches queued under the old key must still resolve).
    pinned = registry.resolve("model", first.fingerprint)
    assert pinned.version == 1
    assert pinned.service is first.service
    assert not registry.maybe_stale()


def test_refresh_touch_without_content_change(estimator, tmp_path):
    import os

    path = tmp_path / "model.npz"
    save_model(estimator, path)
    registry = ModelRegistry()
    entry = registry.add_model_file(path, "q20a", seed=0)
    os.utime(path, ns=(1, 1))
    assert registry.maybe_stale()          # stat guard fires...
    assert registry.refresh() == []        # ...but the rehash says no-op
    assert registry.swaps == 0
    assert not registry.maybe_stale()      # the new stat was remembered
    assert registry.resolve("model").service is entry.service


def test_refresh_force_without_change_is_quiet(estimator, tmp_path):
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    registry = ModelRegistry()
    registry.add_model_file(path, "q20a", seed=0)
    assert registry.refresh(force=True) == []
    assert registry.swaps == 0


def test_refresh_reverted_file_promotes_old_entry(estimator, tmp_path):
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    original_bytes = path.read_bytes()
    registry = ModelRegistry()
    first = registry.add_model_file(path, "q20a", seed=0)

    save_model(_fit_estimator(9), path)
    registry.refresh()
    path.write_bytes(original_bytes)
    swapped = registry.refresh()
    assert len(swapped) == 1
    _, successor = swapped[0]
    # Same content as v1: the already-booted service is promoted, not
    # re-deserialized.
    assert successor.fingerprint == first.fingerprint
    assert successor.version == 3
    assert successor.service is first.service
    assert registry.resolve("model").version == 3


def test_refresh_survives_deleted_file(estimator, tmp_path):
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    registry = ModelRegistry()
    entry = registry.add_model_file(path, "q20a", seed=0)
    path.unlink()
    assert not registry.maybe_stale()
    assert registry.refresh() == []
    assert registry.resolve("model").service is entry.service


def test_store_refresh_picks_up_new_checkpoints(estimator, tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-A", "fp1")
    registry = ModelRegistry()
    registry.add_store(store, "q20a", seed=0)
    assert not registry.maybe_stale()

    store.put("estimator", _fit_estimator(9), "Q20-A", "fp2")
    assert registry.maybe_stale()
    swapped = registry.refresh()
    assert [(s.key if s else None, n.key) for s, n in swapped] == [
        (("Q20-A", "fp1"), ("Q20-A", "fp2")),
    ]
    assert registry.resolve("Q20-A").fingerprint == "fp2"
    assert registry.resolve("Q20-A").version == 2
    # The superseded checkpoint stays pinnable.
    assert registry.resolve("Q20-A", "fp1").version == 1

    # A checkpoint under a brand-new name arrives with no predecessor.
    store.put("estimator", _fit_estimator(10), "Q20-C", "fp3")
    swapped = registry.refresh()
    assert [(s, n.key) for s, n in swapped] == [(None, ("Q20-C", "fp3"))]


def test_store_refresh_respects_add_time_filters(estimator, tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-A", "fp1")
    registry = ModelRegistry()
    registry.add_store(store, "q20a", name="Q20-A", seed=0)
    store.put("estimator", _fit_estimator(9), "Other", "fp9")
    assert not registry.maybe_stale()
    assert registry.refresh() == []


def test_same_version_ties_stay_ambiguous(estimator, tmp_path):
    """Versioning must not paper over genuinely ambiguous references."""
    path_a = tmp_path / "model.npz"
    save_model(estimator, path_a)
    path_b = tmp_path / "other.npz"
    save_model(_fit_estimator(9), path_b)
    registry = ModelRegistry()
    registry.add_model_file(path_a, "q20a", seed=0)
    registry.add_model_file(path_b, "q20a", name="model", seed=0)
    with pytest.raises(ValueError, match="ambiguous model reference"):
        registry.resolve("model")


def test_every_file_under_a_shared_name_is_watched(estimator, tmp_path):
    """Regression: refresh used to watch one file per model name, so the
    second file registered under a taken name was never checked again."""
    path_a = tmp_path / "a.npz"
    save_model(estimator, path_a)
    path_b = tmp_path / "b.npz"
    save_model(_fit_estimator(9), path_b)
    registry = ModelRegistry()
    registry.add_model_file(path_a, "q20a", name="model", seed=0)
    old_b = registry.add_model_file(path_b, "q20a", name="model", seed=0)
    assert not registry.maybe_stale()

    save_model(_fit_estimator(10), path_b)
    assert registry.maybe_stale()
    swapped = registry.refresh()
    expected = hashlib.sha256(path_b.read_bytes()).hexdigest()[:12]
    assert [(s.key, n.key) for s, n in swapped] == [
        (old_b.key, ("model", expected))
    ]
    assert registry.resolve("model").fingerprint == expected
    assert not registry.maybe_stale()


def test_a_file_copied_over_its_sibling_leaves_both_watched(estimator, tmp_path):
    """Regression: when one file took on the content of another file
    registered under the same name, refresh moved the other file's entry
    onto it, so the other file was never checked again."""
    path_a = tmp_path / "a.npz"
    save_model(estimator, path_a)
    path_b = tmp_path / "b.npz"
    save_model(_fit_estimator(9), path_b)
    registry = ModelRegistry()
    old_a = registry.add_model_file(path_a, "q20a", name="model", seed=0)
    old_b = registry.add_model_file(path_b, "q20a", name="model", seed=0)

    path_b.write_bytes(path_a.read_bytes())
    swapped = registry.refresh(force=True)
    assert [(s.key, n.key) for s, n in swapped] == [(old_b.key, old_a.key)]
    assert registry.resolve("model").fingerprint == old_a.fingerprint
    assert not registry.maybe_stale()

    save_model(_fit_estimator(10), path_a)
    assert registry.maybe_stale()
    swapped = registry.refresh(force=True)
    expected = hashlib.sha256(path_a.read_bytes()).hexdigest()[:12]
    assert [n.key for _, n in swapped] == [("model", expected)]
    assert registry.resolve("model").fingerprint == expected
    assert not registry.maybe_stale()


def test_serving_entries_tracks_versions(estimator, tmp_path):
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    registry = ModelRegistry()
    registry.add_model_file(path, "q20a", seed=0)
    save_model(_fit_estimator(9), path)
    registry.refresh()
    assert len(registry) == 2              # both versions registered
    serving = registry.serving_entries()
    assert [entry.version for entry in serving] == [2]
    assert serving[0].describe()["version"] == "2"


def test_corrupt_store_checkpoint_is_probed_once_per_file_state(
    estimator, tmp_path
):
    """A newcomer that fails to load is remembered, so the staleness
    probe stays quiet (no full refresh per reload tick) until its file
    changes; a valid rewrite of the same file is then picked up."""
    import os

    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-A", "fp1")
    registry = ModelRegistry()
    registry.add_store(store, "q20a", seed=0)
    corrupt = store.path("estimator", "Q20-A", "fp2")
    corrupt.write_bytes(b"not a model")
    os.utime(corrupt, ns=(10**18, 10**18))

    assert registry.maybe_stale()
    assert registry.refresh() == []
    for _ in range(3):
        assert not registry.maybe_stale()
    assert registry.refreshes == 1

    store.put("estimator", _fit_estimator(9), "Q20-A", "fp2")
    os.utime(corrupt, ns=(2 * 10**18, 2 * 10**18))
    assert registry.maybe_stale()
    swapped = registry.refresh()
    assert [(s.key, n.key) for s, n in swapped] == [
        (("Q20-A", "fp1"), ("Q20-A", "fp2")),
    ]
    assert registry.resolve("Q20-A").version == 2
    assert not registry.maybe_stale()


def test_from_sources_replays_the_loaders(estimator, model_path, tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-B", "fp2")
    registry = ModelRegistry.from_sources([
        ModelSource("file", model_path, "q20a", {"seed": 0}, name="alpha"),
        ModelSource("store", tmp_path, "q20a", {"seed": 0}, name="Q20-B"),
    ])
    assert [entry.name for entry in registry.entries()] == ["alpha", "Q20-B"]
    file_source = registry.resolve("alpha").source
    assert file_source.stat is not None and file_source.name == "alpha"
    with pytest.raises(ValueError, match="no model file"):
        ModelRegistry.from_sources(
            [ModelSource("file", tmp_path / "nope.npz", "q20a", {})]
        )
