"""Tests for the predictor-guided compilation search and its leaderboard."""

import json

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import to_qasm
from repro.circuits.random import random_circuit
from repro.compiler import compile_batch, compile_circuit
from repro.compiler.search import (
    DEFAULT_BEAM_WIDTH,
    LeaderboardSession,
    PassConfig,
    compile_search,
    device_family,
    leaderboard_fingerprint,
    leaderboard_name,
    model_fingerprint,
    reset_search_stats,
    search_circuit,
    search_stats,
    stock_configs,
    width_bucket,
)
from repro.evaluation.artifacts import ArtifactStore
from repro.fom.metrics import expected_fidelity
from repro.hardware import make_q20a, make_zoo_device
from repro.ml.forest import RandomForestRegressor


def tiny_estimator(seed: int = 0, n_estimators: int = 5):
    """A small fitted forest: fast, picklable, deterministic."""
    rng = np.random.default_rng(seed)
    forest = RandomForestRegressor(
        n_estimators=n_estimators, random_state=seed, max_features="sqrt"
    )
    forest.fit(rng.uniform(size=(40, 30)), rng.uniform(size=40))
    return forest


@pytest.fixture(scope="module")
def estimator():
    return tiny_estimator()


@pytest.fixture(scope="module")
def device():
    return make_q20a()


def small_suite(count: int = 4):
    circuits = []
    for index in range(count):
        qc = random_circuit(3 + index % 2, 6, seed=index, measure=True)
        qc.name = f"rand_{index}"
        circuits.append(qc)
    return circuits


# ----------------------------------------------------------------------
# PassConfig and the stock sweep.


def test_pass_config_round_trip():
    config = PassConfig(
        layout="line", layout_seed_offset=5, routing_seed_offset=7,
        lookahead_size=10, opt_iterations=4,
    )
    assert PassConfig.from_dict(config.to_dict()) == config
    assert config.key() == ("line", 5, 7, 10, 4)


def test_pass_config_validation():
    with pytest.raises(ValueError, match="layout"):
        PassConfig(layout="bogus")
    with pytest.raises(ValueError, match="lookahead_size"):
        PassConfig(lookahead_size=-1)
    with pytest.raises(ValueError, match="opt_iterations"):
        PassConfig(opt_iterations=0)


def test_stock_configs_match_level3_trials():
    configs = stock_configs(4)
    assert len(configs) == 4
    assert [c.layout for c in configs] == ["greedy", "trivial", "line", "greedy"]
    assert [c.layout_seed_offset for c in configs] == [0, 1, 2, 3]
    assert [c.routing_seed_offset for c in configs] == [0, 1, 2, 3]


def test_neighbors_are_valid_and_fresh():
    config = PassConfig()
    neighbors = config.neighbors(4)
    assert neighbors
    assert all(isinstance(n, PassConfig) for n in neighbors)
    assert all(n.key() != config.key() for n in neighbors)
    # Ladder moves stay on the ladder.
    for n in neighbors:
        if n.lookahead_size != config.lookahead_size:
            assert n.lookahead_size in (0, 10, 20, 40)


# ----------------------------------------------------------------------
# Leaderboard addressing.


def test_device_family_and_width_bucket(device):
    assert device_family(device) == "q20-a"
    zoo = make_zoo_device("ring", num_qubits=6, tier="noisy", seed=1)
    assert device_family(zoo) == "zoo-ring-noisy"
    assert width_bucket(1) == "w01-04"
    assert width_bucket(4) == "w01-04"
    assert width_bucket(5) == "w05-08"
    assert width_bucket(20) == "w17-20"
    with pytest.raises(ValueError):
        width_bucket(0)
    assert leaderboard_name(device, 6) == "q20-a-w05-08"


def test_model_fingerprint_tracks_content(estimator):
    fp = model_fingerprint(estimator)
    assert fp == model_fingerprint(tiny_estimator())   # refit, same content
    assert fp != model_fingerprint(tiny_estimator(seed=1))
    assert fp != model_fingerprint(tiny_estimator(n_estimators=6))

    class Opaque:
        def predict(self, X):
            return np.zeros(len(X))

    opaque_fp = model_fingerprint(Opaque())
    assert opaque_fp and opaque_fp != fp
    assert leaderboard_fingerprint(fp, 4, 2, 4) != leaderboard_fingerprint(
        fp, 3, 2, 4
    )


# ----------------------------------------------------------------------
# Single-circuit search semantics.


def test_generations_zero_reproduces_stock_level3(device, estimator):
    unmeasured = random_circuit(4, 8, seed=5)
    unmeasured.name = "unmeasured"
    unmeasured.metadata["origin"] = "test"
    assert not any(ins.name == "measure" for ins in unmeasured.instructions)
    circuits = small_suite(3) + [unmeasured]
    assert any(ins.name == "measure" for ins in circuits[0].instructions)
    for num_trials in (1, 3, 5):
        for index, circuit in enumerate(circuits):
            stock = compile_circuit(
                circuit, device, optimization_level=3, seed=17 + index,
                num_trials=num_trials,
            )
            searched = search_circuit(
                circuit, device, estimator, seed=17 + index,
                beam_width=DEFAULT_BEAM_WIDTH, generations=0,
                num_trials=num_trials,
            )
            assert to_qasm(searched.circuit) == to_qasm(stock.circuit)
            assert searched.initial_layout == stock.initial_layout
            assert searched.final_layout == stock.final_layout
            assert searched.circuit.name == stock.circuit.name
            assert {**searched.circuit.metadata, "optimization_level": 3} == (
                stock.circuit.metadata
            )
            assert searched.circuit.metadata["optimization_level"] == "search"


def test_search_parity_or_win(device, estimator):
    for index, circuit in enumerate(small_suite(4)):
        stock = compile_circuit(
            circuit, device, optimization_level=3, seed=index
        )
        searched = search_circuit(
            circuit, device, estimator, seed=index,
            beam_width=3, generations=1,
        )
        stock_fid = expected_fidelity(
            stock.circuit, device, calibration=device.reported_calibration
        )
        search_fid = searched.properties["search"]["expected_fidelity"]
        assert search_fid >= stock_fid - 1e-12
        assert searched.properties["search"]["source"] == "search"
        assert searched.circuit.metadata["optimization_level"] == "search"


def test_search_validates_inputs(device, estimator):
    circuit = QuantumCircuit(2).h(0).cx(0, 1)
    with pytest.raises(ValueError, match="beam_width"):
        search_circuit(circuit, device, estimator, beam_width=0)
    with pytest.raises(ValueError, match="generations"):
        search_circuit(circuit, device, estimator, generations=-1)
    wide = QuantumCircuit(21)
    with pytest.raises(ValueError, match="qubits"):
        search_circuit(wide, device, estimator)


def test_search_stats_counters(device, estimator):
    reset_search_stats()
    search_circuit(
        small_suite(1)[0], device, estimator, beam_width=2, generations=1
    )
    stats = search_stats()
    assert stats["searches"] == 1
    assert stats["predictor_calls"] >= 1
    assert stats["configs_evaluated"] >= 4
    assert stats["exact_rescores"] >= 4
    reset_search_stats()
    assert search_stats()["searches"] == 0


# ----------------------------------------------------------------------
# Leaderboard artifacts: round-trip, silent miss, regeneration.


def search_kwargs():
    return dict(beam_width=2, generations=1, max_workers=2)


def test_leaderboard_round_trip(tmp_path, device, estimator):
    store = ArtifactStore(tmp_path)
    circuits = small_suite(3)
    results = compile_search(
        circuits, device, estimator, store=store, **search_kwargs()
    )
    refs = store.find("leaderboard")
    assert refs, "search recorded no leaderboard entries"
    for ref in refs:
        entry = store.get("leaderboard", ref.name, ref.fingerprint)
        assert entry is not None
        assert PassConfig.from_dict(entry["config"])  # parses
        assert entry["estimator_fingerprint"] == model_fingerprint(estimator)
        payload = json.loads(ref.path.read_text())
        assert payload["format"] == "repro-leaderboard"
        assert payload["fingerprint"] == ref.fingerprint
    # Wrong fingerprint is a silent miss.
    assert store.get("leaderboard", refs[0].name, "0" * 16) is None
    # Warm rerun: all incumbents, no new searches.
    reset_search_stats()
    warm = compile_search(
        circuits, device, estimator, store=store, **search_kwargs()
    )
    stats = search_stats()
    assert stats["warm_starts"] == len(circuits)
    assert stats["searches"] == 0
    assert [r.properties["search"]["source"] for r in warm] == (
        ["leaderboard"] * len(circuits)
    )


def test_leaderboard_corrupt_and_foreign_are_misses(
    tmp_path, device, estimator
):
    store = ArtifactStore(tmp_path)
    circuits = small_suite(3)
    compile_search(circuits, device, estimator, store=store, **search_kwargs())
    ref = store.find("leaderboard")[0]
    original = ref.path.read_bytes()

    ref.path.write_text("{ truncated")
    assert store.get("leaderboard", ref.name, ref.fingerprint) is None
    ref.path.write_text(json.dumps({"format": "something-else"}))
    assert store.get("leaderboard", ref.name, ref.fingerprint) is None

    # A fresh search rides over the bad entry and regenerates it
    # byte-identically (canonical JSON, no timestamps).
    reset_search_stats()
    compile_search(circuits, device, estimator, store=store, **search_kwargs())
    assert search_stats()["searches"] > 0
    assert ref.path.read_bytes() == original


def test_leaderboard_session_snapshot_and_first_write_wins(
    tmp_path, estimator
):
    store = ArtifactStore(tmp_path)
    session = LeaderboardSession.for_search(store, estimator)
    assert session.incumbent("q20-a-w01-04") is None
    entry = {
        "config": PassConfig().to_dict(),
        "estimator_fingerprint": session.estimator_fingerprint,
    }
    session.record("q20-a-w01-04", entry)
    later = dict(entry, config=PassConfig(layout="line").to_dict())
    session.record("q20-a-w01-04", later)          # second write ignored
    # Nothing on disk until flush.
    assert not store.find("leaderboard")
    assert session.flush() == 1
    stored = store.get("leaderboard", "q20-a-w01-04", session.fingerprint)
    assert stored["config"] == PassConfig().to_dict()
    # A session created before a store mutation keeps serving its snapshot.
    fresh = LeaderboardSession.for_search(store, estimator)
    assert fresh.incumbent("q20-a-w01-04") == PassConfig()


def test_warm_start_and_record_switches(tmp_path, device, estimator):
    store = ArtifactStore(tmp_path)
    circuits = small_suite(3)
    compile_search(
        circuits, device, estimator, store=store, record=False,
        **search_kwargs(),
    )
    assert not store.find("leaderboard")
    compile_search(circuits, device, estimator, store=store, **search_kwargs())
    assert store.find("leaderboard")
    reset_search_stats()
    compile_search(
        circuits, device, estimator, store=store, warm_start=False,
        **search_kwargs(),
    )
    assert search_stats()["warm_starts"] == 0


# ----------------------------------------------------------------------
# Batch determinism: worker counts, store bytes.


def test_compile_search_deterministic_across_pools(
    tmp_path, device, estimator
):
    circuits = small_suite(4)
    outputs = {}
    store_bytes = {}
    for workers in (1, 2, 4):
        root = tmp_path / f"workers-{workers}"
        results = compile_search(
            circuits, device, estimator,
            beam_width=2, generations=1,
            store=ArtifactStore(root),
            max_workers=workers,
        )
        outputs[workers] = [to_qasm(result.circuit) for result in results]
        store_bytes[workers] = {
            path.name: path.read_bytes() for path in sorted(root.iterdir())
        }
    assert store_bytes[1], "no leaderboard files written"
    for workers, value in outputs.items():
        assert value == outputs[1], f"{workers} workers diverged from 1"
    for workers, value in store_bytes.items():
        assert value == store_bytes[1], f"{workers} workers' store diverged"


def test_compile_search_process_pool_aggregates_stats(device, estimator):
    reset_search_stats()
    circuits = small_suite(4)
    compile_search(
        circuits, device, estimator, beam_width=2, generations=1,
        max_workers=2,
    )
    stats = search_stats()
    assert stats["searches"] == len(circuits)
    assert stats["configs_evaluated"] > 0


def test_compile_search_stats_deltas_match_across_pools(device, estimator):
    """Every circuit's counter deltas are folded exactly once, whichever
    process searched it."""
    circuits = small_suite(4)
    deltas = {}
    for workers in (1, 2):
        reset_search_stats()
        compile_search(
            circuits, device, estimator, beam_width=2, generations=1,
            max_workers=workers,
        )
        deltas[workers] = search_stats()
    assert deltas[1]["searches"] == len(circuits)
    assert deltas[2] == deltas[1]


def test_compile_search_seeds_must_match(device, estimator):
    with pytest.raises(ValueError, match="seeds"):
        compile_search(
            small_suite(2), device, estimator, seeds=[0], **search_kwargs()
        )


# ----------------------------------------------------------------------
# compile_circuit / compile_batch integration.


def test_compile_circuit_search_level(device, estimator):
    circuit = small_suite(1)[0]
    result = compile_circuit(
        circuit, device, optimization_level="search", estimator=estimator,
        search_opts={"beam_width": 2, "generations": 1},
    )
    assert result.optimization_level == "search"
    assert "search" in result.properties


def test_compile_circuit_search_requires_estimator(device):
    with pytest.raises(ValueError, match="estimator"):
        compile_circuit(
            small_suite(1)[0], device, optimization_level="search"
        )


def test_compile_circuit_rejects_bad_levels(device):
    circuit = small_suite(1)[0]
    with pytest.raises(ValueError, match="optimization_level"):
        compile_circuit(circuit, device, optimization_level=7)
    with pytest.raises(ValueError, match="optimization_level"):
        compile_circuit(circuit, device, optimization_level="bogus")


def test_compile_batch_search_delegates(device, estimator):
    circuits = small_suite(3)
    batched = compile_batch(
        circuits, device, optimization_level="search", estimator=estimator,
        search_opts={"beam_width": 2, "generations": 1}, max_workers=2,
    )
    direct = compile_search(
        circuits, device, estimator, beam_width=2, generations=1,
        max_workers=2,
    )
    assert [to_qasm(b.circuit) for b in batched] == [
        to_qasm(d.circuit) for d in direct
    ]
