"""FomService: the batched end-to-end inference entry point."""

import numpy as np
import pytest

from repro.circuits.random import random_circuit
from repro.compiler.compile import SEED_STRIDE, compile_circuit
from repro.evaluation.artifacts import ArtifactStore
from repro.evaluation.persistence import save_model
from repro.fom import esp, expected_fidelity, feature_vector
from repro.fom.metrics import circuit_depth, gate_count
from repro.hardware import make_q20a
from repro.ml.forest import RandomForestRegressor
from repro.predictor.estimator import HellingerEstimator
from repro.predictor.service import PROPOSED_LABEL, FomService

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}


@pytest.fixture(scope="module")
def estimator():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 30))
    y = rng.uniform(size=60)
    return HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(X, y)


@pytest.fixture(scope="module")
def device():
    return make_q20a()


@pytest.fixture(scope="module")
def circuits():
    return [
        random_circuit(3 + (seed % 3), 6, seed=seed, measure=True)
        for seed in range(7)
    ]


@pytest.fixture(scope="module")
def service(estimator, device):
    return FomService(estimator, device, optimization_level=2, seed=0)


def manual_predictions(estimator, device, circuits, level=2, seed=0):
    """The seed-era per-circuit loop the batched service must reproduce."""
    out = []
    for index, circuit in enumerate(circuits):
        compiled = compile_circuit(
            circuit, device,
            optimization_level=level, seed=seed + SEED_STRIDE * index,
        ).circuit
        out.append(
            float(estimator.predict(feature_vector(compiled)[None, :])[0])
        )
    return np.array(out)


def test_predict_matches_per_circuit_loop(service, estimator, device, circuits):
    batched = service.predict(circuits)
    assert batched.shape == (len(circuits),)
    assert np.array_equal(
        batched, manual_predictions(estimator, device, circuits)
    )


def test_predict_invariant_to_chunk_size(service, circuits):
    base = service.predict(circuits)
    for chunk_size in (1, 2, 3, len(circuits), 1000):
        assert np.array_equal(
            service.predict(circuits, chunk_size=chunk_size), base
        )


def test_predict_invariant_to_workers(service, circuits):
    from repro.compiler import clear_compile_cache

    base = service.predict(circuits, max_workers=1)
    for workers in (1, 2, 4):
        # A warm caller cache would answer without the pool.
        clear_compile_cache()
        assert np.array_equal(
            service.predict(circuits, max_workers=workers), base
        ), workers


def test_predict_accepts_generators(service, circuits):
    base = service.predict(circuits)
    assert np.array_equal(
        service.predict(iter(circuits), chunk_size=2), base
    )


def test_predict_stream_chunks(service, circuits):
    chunks = list(service.predict_stream(circuits, chunk_size=3))
    assert [len(chunk) for chunk in chunks] == [3, 3, 1]
    assert np.array_equal(np.concatenate(chunks), service.predict(circuits))


def test_predict_empty_input(service):
    assert service.predict([]).shape == (0,)
    panel = service.score_established_foms([])
    assert PROPOSED_LABEL in panel
    assert all(values.shape == (0,) for values in panel.values())


def test_optimization_level_override(service, estimator, device, circuits):
    level3 = service.predict(circuits, optimization_level=3)
    assert np.array_equal(
        level3, manual_predictions(estimator, device, circuits, level=3)
    )


def test_score_established_foms_panel(service, device, circuits):
    panel = service.score_established_foms(circuits, chunk_size=3)
    assert set(panel) == {
        "Number of gates", "Circuit depth", "Expected fidelity", "ESP",
        PROPOSED_LABEL,
    }
    compiled = [result.circuit for result in service.compile_only(circuits)]
    for index, circuit in enumerate(compiled):
        assert panel["Number of gates"][index] == float(gate_count(circuit))
        assert panel["Circuit depth"][index] == float(circuit_depth(circuit))
        assert panel["Expected fidelity"][index] == pytest.approx(
            expected_fidelity(circuit, device), abs=1e-12
        )
        assert panel["ESP"][index] == pytest.approx(
            esp(circuit, device), abs=1e-12
        )
    assert np.array_equal(panel[PROPOSED_LABEL], service.predict(circuits))


def test_predict_at_identity_positions_match_predict(service, circuits):
    predictions, foms = service.predict_at(
        circuits, positions=range(len(circuits))
    )
    assert np.array_equal(predictions, service.predict(circuits))
    assert foms == {}


def test_predict_at_request_local_positions_split_bit_identically(
    service, circuits
):
    """The daemon's coalescing contract: concatenated requests with
    request-local positions split back into the solo answers."""
    requests = [circuits[0:3], circuits[3:5], circuits[5:7]]
    merged = [circuit for request in requests for circuit in request]
    positions = [
        position for request in requests for position in range(len(request))
    ]
    batched, _ = service.predict_at(merged, positions=positions)
    offset = 0
    for request in requests:
        solo = service.predict(request)
        assert np.array_equal(batched[offset:offset + len(request)], solo)
        offset += len(request)


def test_predict_at_foms_panel_and_timings(service, circuits):
    timings = {}
    predictions, foms = service.predict_at(
        circuits[:3], positions=range(3), want_foms=True, timings=timings
    )
    panel = service.score_established_foms(circuits[:3])
    for label, values in foms.items():
        assert np.array_equal(values, panel[label])
    assert PROPOSED_LABEL not in foms  # the panel's estimator row is separate
    assert np.array_equal(predictions, panel[PROPOSED_LABEL])
    assert set(timings) == {"compile_s", "featurize_s", "predict_s"}
    assert all(seconds >= 0.0 for seconds in timings.values())


def test_predict_at_level_override(service, circuits):
    level3, _ = service.predict_at(
        circuits[:3], positions=range(3), optimization_level=3
    )
    assert np.array_equal(
        level3, service.predict(circuits[:3], optimization_level=3)
    )


def test_predict_at_validates_positions(service, circuits):
    with pytest.raises(ValueError, match="positions"):
        service.predict_at(circuits[:2], positions=[0])
    with pytest.raises(ValueError, match="non-negative"):
        service.predict_at(circuits[:2], positions=[0, -1])
    predictions, foms = service.predict_at([], positions=[])
    assert predictions.shape == (0,)
    assert foms == {}


def test_load_from_npz(tmp_path, estimator, device, circuits):
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    service = FomService.load(path, device, optimization_level=2, seed=0)
    reference = FomService(estimator, device, optimization_level=2, seed=0)
    assert np.array_equal(
        service.predict(circuits), reference.predict(circuits)
    )


def test_from_store(tmp_path, estimator, device, circuits):
    store = ArtifactStore(tmp_path)
    store.put("estimator", estimator, "Q20-A", "fp1")
    service = FomService.from_store(
        store, device, optimization_level=2, seed=0
    )
    reference = FomService(estimator, device, optimization_level=2, seed=0)
    assert np.array_equal(
        service.predict(circuits), reference.predict(circuits)
    )
    # A directory path works too.
    FomService.from_store(str(tmp_path), device)


def test_from_store_ambiguity_and_misses(tmp_path, estimator, device):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="no estimator artifact"):
        FomService.from_store(store, device)
    store.put("estimator", estimator, "Q20-A", "fp1")
    store.put("estimator", estimator, "Q20-B", "fp2")
    with pytest.raises(ValueError, match="ambiguous"):
        FomService.from_store(store, device)
    FomService.from_store(store, device, name="Q20-B")
    FomService.from_store(store, device, fingerprint="fp1")
    with pytest.raises(ValueError, match="no estimator artifact"):
        FomService.from_store(store, device, name="Q99")


def test_device_spec_strings(estimator):
    assert FomService(estimator, "q20a").device.name == "Q20-A"
    zoo = FomService(estimator, "zoo:ring:6:typical:1")
    assert zoo.device.num_qubits == 6
    with pytest.raises(ValueError, match="unknown device"):
        FomService(estimator, "not-a-device")


def test_plain_forest_estimators_work(device, circuits):
    """Any .predict(X) model serves — e.g. a bare random forest."""
    rng = np.random.default_rng(1)
    forest = RandomForestRegressor(n_estimators=3, random_state=0)
    forest.fit(rng.uniform(size=(30, 30)), rng.uniform(size=30))
    service = FomService(forest, device, optimization_level=1)
    assert service.predict(circuits[:3]).shape == (3,)


def test_invalid_arguments(estimator, device):
    with pytest.raises(TypeError, match="predict"):
        FomService(object(), device)
    with pytest.raises(ValueError, match="chunk_size"):
        FomService(estimator, device, chunk_size=0)
    service = FomService(estimator, device)
    with pytest.raises(ValueError, match="chunk_size"):
        service.predict([], chunk_size=0)


# ----------------------------------------------------------------------
# The warm path: whole compiles and feature rows are cache lookups
# ----------------------------------------------------------------------


def _spy_fan_out(monkeypatch):
    """Record ``(task, item count)`` of every ``parallel_map`` call that
    compiles or featurizes, whether it pools or loops in-process."""
    import repro.fom.features as features_mod
    import repro.parallel as parallel_mod

    calls = []
    real = parallel_mod.parallel_map

    def spy(fn, items, *args, **kwargs):
        items = list(items)
        calls.append((fn.__name__, len(items)))
        return real(fn, items, *args, **kwargs)

    monkeypatch.setattr(parallel_mod, "parallel_map", spy)
    monkeypatch.setattr(features_mod, "parallel_map", spy)
    return calls


def test_second_pooled_predict_compiles_and_featurizes_nothing(
    estimator, device, monkeypatch
):
    """Regression: a process-pool worker empties its compile cache for
    every call, so a default-worker predict used to recompile and
    refeaturize every circuit, however warm the caller was."""
    from repro.compiler import clear_compile_cache, compile_cache_stats

    clear_compile_cache()
    circuits = [
        random_circuit(3 + seed % 3, 6, seed=40 + seed, measure=True)
        for seed in range(6)
    ]
    service = FomService(estimator, device, optimization_level=3, seed=0)
    calls = _spy_fan_out(monkeypatch)
    first = service.predict(circuits, max_workers=2)
    assert ("_compile_task", 6) in calls
    assert ("feature_vector", 6) in calls

    calls.clear()
    before = compile_cache_stats()
    second = service.predict(circuits, max_workers=2)
    after = compile_cache_stats()
    assert second.tobytes() == first.tobytes()
    # No circuit reached a worker or the in-process loop...
    assert all(count == 0 for _, count in calls), calls
    # ...because each circuit was one compile hit and one feature hit.
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 2 * len(circuits)


def test_memoized_results_are_isolated_from_caller_mutation(
    estimator, device, circuits
):
    """Mirrors the compile cache's isolation test one layer up: mutating
    the feature matrix the estimator receives, or a compiled circuit a
    hit returned, leaves the next warm answer unchanged."""
    from repro.compiler import clear_compile_cache

    seen = []

    class Scribbler:
        def predict(self, X):
            seen.append(X.tobytes())
            predictions = estimator.predict(X)
            X[:] = np.nan
            return predictions

    clear_compile_cache()
    service = FomService(Scribbler(), device, optimization_level=2, seed=0)
    positions = range(len(circuits))
    first, _ = service.predict_at(circuits, positions=positions)
    warm = service.compile_only(circuits)
    expected = [list(result.circuit.instructions) for result in warm]
    for result in warm:
        result.circuit.instructions.clear()
        result.circuit.metadata["mangled"] = True
        result.properties["final_layout"].clear()
    second, _ = service.predict_at(circuits, positions=positions)
    assert second.tobytes() == first.tobytes()
    assert seen[1] == seen[0]
    again = service.compile_only(circuits)
    assert [result.circuit.instructions for result in again] == expected
    assert all("mangled" not in r.circuit.metadata for r in again)
    assert all(r.properties["final_layout"] for r in again)


def test_warm_requests_rebuild_and_validate_no_circuit(
    estimator, device, circuits, monkeypatch
):
    """A fully warm request is answered from the cached feature rows:
    ``predict_warm`` and ``predict_at`` restore, validate and featurize
    no circuit, and answer the cold bytes.  Anything not fully warm gets
    ``None`` from ``predict_warm`` after at most one missed lookup."""
    import repro.compiler.compile as compile_mod
    import repro.predictor.service as service_mod
    from repro.compiler import clear_compile_cache, compile_cache_stats

    clear_compile_cache()
    service = FomService(estimator, device, optimization_level=3, seed=0)
    warm, cold = circuits[:4], circuits[4]
    before = compile_cache_stats()
    assert service.predict_warm(warm) is None
    assert compile_cache_stats()["misses"] == before["misses"] + 1
    expected = service.predict(warm)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm request rebuilt or checked a circuit")

    monkeypatch.setattr(compile_mod, "restore_result", forbidden)
    monkeypatch.setattr(type(device), "validate_circuit", forbidden)
    monkeypatch.setattr(service_mod, "feature_matrix", forbidden)
    assert service.predict_warm(warm).tobytes() == expected.tobytes()
    solo, _ = service.predict_at(warm, positions=range(len(warm)))
    assert solo.tobytes() == expected.tobytes()
    assert service.predict_warm(warm, optimization_level=2) is None
    assert service.predict_warm(warm, optimization_level="search") is None
    assert service.predict_warm(warm + [cold]) is None
    # Seeds follow request positions: the same circuits reordered are cold.
    assert service.predict_warm(warm[::-1]) is None
