"""FomService with ``optimization_level="search"``: the served search path."""

import numpy as np
import pytest

from repro.circuits.random import random_circuit
from repro.compiler import reset_search_stats, search_stats
from repro.evaluation.artifacts import ArtifactStore
from repro.ml.forest import RandomForestRegressor
from repro.predictor.service import FomService


def tiny_estimator(seed: int = 0):
    rng = np.random.default_rng(seed)
    forest = RandomForestRegressor(
        n_estimators=5, random_state=seed, max_features="sqrt"
    )
    forest.fit(rng.uniform(size=(40, 30)), rng.uniform(size=40))
    return forest


@pytest.fixture(scope="module")
def circuits():
    return [
        random_circuit(3 + index % 2, 6, seed=index, measure=True)
        for index in range(5)
    ]


def make_service(tmp_path, **kwargs):
    defaults = dict(
        optimization_level="search", search_store=str(tmp_path),
        beam_width=2, generations=1, chunk_size=2,
    )
    defaults.update(kwargs)
    return FomService(tiny_estimator(), "q20a", **defaults)


def test_search_predictions_chunk_invariant(tmp_path, circuits):
    service = make_service(tmp_path / "a")
    small = service.predict(circuits, chunk_size=2)
    service_big = make_service(tmp_path / "b", chunk_size=128)
    big = service_big.predict(circuits)
    assert np.array_equal(small, big)


def test_search_leaderboard_written_after_call(tmp_path, circuits):
    store = ArtifactStore(tmp_path)
    service = make_service(tmp_path)
    reset_search_stats()
    service.predict(circuits)
    assert store.find("leaderboard")
    assert search_stats()["searches"] == len(circuits)
    # Second call warm-starts every circuit from the recorded winners.
    reset_search_stats()
    service.predict(circuits)
    stats = search_stats()
    assert stats["searches"] == 0
    assert stats["warm_starts"] == len(circuits)


def test_search_without_store(circuits):
    service = FomService(
        tiny_estimator(), "q20a", optimization_level="search",
        beam_width=2, generations=1,
    )
    predictions = service.predict(circuits[:3])
    assert predictions.shape == (3,)


def test_search_compile_only_tags_results(tmp_path, circuits):
    service = make_service(tmp_path)
    results = service.compile_only(circuits[:3])
    assert all(
        result.circuit.metadata["optimization_level"] == "search"
        for result in results
    )
    assert ArtifactStore(tmp_path).find("leaderboard")


def test_search_foms_panel(tmp_path, circuits):
    from repro.fom.metrics import FOM_ORDER, PROPOSED_LABEL

    service = make_service(tmp_path)
    panel = service.score_established_foms(circuits[:3])
    for name in (*FOM_ORDER, PROPOSED_LABEL):
        assert panel[name].shape == (3,)


def test_int_level_ignores_search_knobs(circuits):
    service = FomService(
        tiny_estimator(), "q20a", optimization_level=1,
        search_store="/nonexistent-store", beam_width=2, generations=1,
    )
    predictions = service.predict(circuits[:2])
    assert predictions.shape == (2,)
