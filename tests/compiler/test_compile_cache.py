"""Compilation caching: determinism, equivalence, and counter behaviour.

The compile cache must be *invisible* except for speed: cold, warm, and
cache-disabled compilations have to produce byte-identical circuits at
every optimization level.  The golden digests below were captured from the
pre-cache compiler (PR 1), so they also pin the refactored level-3 trial
pipeline, the vectorized SABRE scoring, and the batched expected-fidelity
selection to the historical outputs.
"""

import hashlib

import pytest

from repro.bench.algorithms import qft
from repro.bench.suite import build_suite
from repro.circuits.random import random_circuit
from repro.compiler import (
    clear_compile_cache,
    compile_cache_stats,
    compile_circuit,
    configure_compile_cache,
)
from repro.compiler.cache import DEFAULT_MAXSIZE, CompileCache, get_compile_cache
from repro.compiler.passes.base import (
    PassManager,
    PropertySet,
    circuit_cache_fingerprint,
    restore_result,
    snapshot_result,
)
from repro.compiler.passes.decompose import Decompose
from repro.compiler.passes.layout import GreedySubgraphLayout, LineLayout, TrivialLayout
from repro.compiler.passes.optimization import OptimizationLoop
from repro.compiler.passes.routing import SabreRouting
from repro.compiler.passes.synthesis import NativeSynthesis, VirtualRZ
from repro.fom.metrics import expected_fidelity
from repro.hardware import make_q20a, make_q20b


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts cold and leaves the global cache enabled."""
    clear_compile_cache()
    configure_compile_cache(maxsize=DEFAULT_MAXSIZE, enabled=True)
    yield
    clear_compile_cache()
    configure_compile_cache(maxsize=DEFAULT_MAXSIZE, enabled=True)


def result_digest(result) -> str:
    """Stable content digest of a compilation result (circuit + layouts)."""
    c = result.circuit
    text = f"{c.num_qubits};{c.num_clbits};{c.global_phase!r};" + ";".join(
        f"{i.name}{tuple(map(int, i.qubits))}"
        f"{tuple(map(float, i.params))}{tuple(map(int, i.clbits))}"
        for i in c.instructions
    )
    text += ";" + repr(sorted(result.initial_layout.items()))
    text += ";" + repr(sorted(result.final_layout.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Digests captured from the pre-overhaul compiler (seed 7): the refactor
#: must reproduce them bit-for-bit.
GOLDEN_DIGESTS = {
    ("rand8", 0, "Q20-A"): "1194dd7f42c871ca",
    ("rand8", 0, "Q20-B"): "1194dd7f42c871ca",
    ("rand8", 1, "Q20-A"): "4ea50245d0fa174c",
    ("rand8", 1, "Q20-B"): "4ea50245d0fa174c",
    ("rand8", 2, "Q20-A"): "e184a633afd6150d",
    ("rand8", 2, "Q20-B"): "e184a633afd6150d",
    ("rand8", 3, "Q20-A"): "149a094444bf1631",
    ("rand8", 3, "Q20-B"): "f0ec67c772b67423",
    ("qft6", 0, "Q20-A"): "cc74896bde97636b",
    ("qft6", 0, "Q20-B"): "cc74896bde97636b",
    ("qft6", 1, "Q20-A"): "bc810960145d46d5",
    ("qft6", 1, "Q20-B"): "bc810960145d46d5",
    ("qft6", 2, "Q20-A"): "1428c62c4f2ee011",
    ("qft6", 2, "Q20-B"): "1428c62c4f2ee011",
    ("qft6", 3, "Q20-A"): "85958bf55e229757",
    ("qft6", 3, "Q20-B"): "1428c62c4f2ee011",
    ("ghz10", 0, "Q20-A"): "c9a8cbac8f11b2cc",
    ("ghz10", 1, "Q20-A"): "306cf4368a2c17d2",
    ("ghz10", 2, "Q20-A"): "3cd1f02f06ccc499",
    ("ghz10", 3, "Q20-A"): "d4563dd3dfa9b9d8",
}


def _case_circuits():
    return {
        "rand8": random_circuit(8, 14, seed=3, measure=True),
        "qft6": qft(6),
        "ghz10": build_suite(
            algorithms=["ghz"], min_qubits=10, max_qubits=10
        )[0].circuit,
    }


def test_golden_digests_match_pre_cache_compiler():
    circuits = _case_circuits()
    devices = {"Q20-A": make_q20a(), "Q20-B": make_q20b()}
    for (name, level, device_name), expected in GOLDEN_DIGESTS.items():
        # Cold, then warm: the second compile is one whole-compile hit.
        for run in ("cold", "warm"):
            result = compile_circuit(
                circuits[name], devices[device_name],
                optimization_level=level, seed=7,
            )
            assert result_digest(result) == expected, (
                name, level, device_name, run,
            )


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_cold_warm_and_disabled_compiles_are_byte_identical(level):
    circuit = random_circuit(7, 12, seed=11, measure=True)
    device = make_q20a()

    cold = compile_circuit(circuit, device, optimization_level=level, seed=5)
    warm = compile_circuit(circuit, device, optimization_level=level, seed=5)
    configure_compile_cache(enabled=False)
    uncached = compile_circuit(circuit, device, optimization_level=level, seed=5)

    for other in (warm, uncached):
        assert other.circuit.instructions == cold.circuit.instructions
        assert other.circuit.global_phase == cold.circuit.global_phase
        assert other.circuit.num_qubits == cold.circuit.num_qubits
        assert other.initial_layout == cold.initial_layout
        assert other.final_layout == cold.final_layout


def test_cache_hit_counters_grow_on_repeated_compiles(monkeypatch):
    circuit = qft(5)
    device = make_q20a()

    compile_circuit(circuit, device, optimization_level=3, seed=0)
    after_cold = compile_cache_stats()
    # The level-3 trials themselves share work (e.g. the routed trivial and
    # line trials may coincide), but the cold run is dominated by misses.
    assert after_cold["misses"] > 0
    assert after_cold["size"] > 0

    passes = []
    run_pass = PassManager._run_pass

    def counted(self, pass_, *args):
        passes.append(pass_.name)
        return run_pass(self, pass_, *args)

    monkeypatch.setattr(PassManager, "_run_pass", counted)
    compile_circuit(circuit, device, optimization_level=3, seed=0)
    after_warm = compile_cache_stats()
    assert after_warm["misses"] == after_cold["misses"]
    # Warm rerun: the whole compile is one hit; no pass runs or is
    # looked up.
    assert after_warm["hits"] == after_cold["hits"] + 1
    assert passes == []
    assert after_warm["size"] == after_cold["size"]


def test_cache_entries_are_isolated_from_caller_mutation():
    circuit = qft(4)
    device = make_q20a()
    first = compile_circuit(circuit, device, optimization_level=2, seed=1)
    # Mutate the returned circuit in place...
    first.circuit.instructions.clear()
    first.circuit.metadata["mangled"] = True
    # ...and verify a warm compile is unaffected.
    second = compile_circuit(circuit, device, optimization_level=2, seed=1)
    assert len(second.circuit.instructions) > 0
    assert "mangled" not in second.circuit.metadata


def test_level3_matches_uncached_per_trial_reference():
    """The restructured trial loop equals the historical per-trial pipeline.

    Reference: each trial independently runs the full level-2 pipeline
    (including the now-shared decompose + optimization-loop prefix) with
    no cache, and candidates are scored with the scalar
    :func:`expected_fidelity` — exactly the pre-overhaul code path.
    """
    from repro.compiler.compile import _split_measurements

    circuit = random_circuit(9, 16, seed=23, measure=True)
    device = make_q20b()
    seed, num_trials = 13, 4
    body, _ = _split_measurements(circuit)
    coupling = device.coupling

    layouts = ["greedy", "trivial", "line"] + ["greedy"] * (num_trials - 3)
    best = None
    for trial in range(num_trials):
        layout = layouts[trial % len(layouts)]
        if layout == "trivial":
            layout_pass = TrivialLayout(coupling)
        elif layout == "line":
            layout_pass = LineLayout(coupling)
        else:
            layout_pass = GreedySubgraphLayout(coupling, seed=seed + trial)
        pipeline = [
            Decompose(),
            OptimizationLoop(),
            layout_pass,
            SabreRouting(coupling, seed=seed * 1000 + trial, lookahead=True),
            Decompose(),
            OptimizationLoop(),
            NativeSynthesis(),
            VirtualRZ(keep_final_rz=False),
        ]
        properties = PropertySet()
        compiled = PassManager(pipeline, collect_history=False).run(
            body, properties
        )
        score = expected_fidelity(
            compiled, device, calibration=device.reported_calibration
        )
        if best is None or score > best[0]:
            best = (score, compiled, properties)

    reference_body, reference_properties = best[1], best[2]
    result = compile_circuit(
        circuit, device, optimization_level=3, seed=seed, num_trials=num_trials
    )
    # The production result re-appends measurements; compare the body.
    measured = [i for i in result.circuit.instructions if i.name == "measure"]
    unmeasured = [i for i in result.circuit.instructions if i.name != "measure"]
    assert unmeasured == reference_body.instructions
    assert result.circuit.global_phase == reference_body.global_phase
    assert len(measured) == 9
    assert result.final_layout == {
        q: reference_properties["final_layout"][q] for q in range(9)
    }


def test_custom_cache_object_lru_eviction_and_stats():
    cache = CompileCache(maxsize=2)
    cache.put("a", "entry-a")
    cache.put("b", "entry-b")
    assert cache.get("a") == "entry-a"  # refresh 'a'
    cache.put("c", "entry-c")  # evicts 'b' (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == "entry-a"
    assert cache.get("c") == "entry-c"
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["hits"] == 3
    assert stats["misses"] == 1


def test_configure_compile_cache_shrinks_and_disables():
    circuit = qft(3)
    device = make_q20a()
    compile_circuit(circuit, device, optimization_level=1, seed=0)
    assert compile_cache_stats()["size"] > 0
    configure_compile_cache(maxsize=1)
    assert compile_cache_stats()["size"] <= 1
    configure_compile_cache(enabled=False)
    before = compile_cache_stats()["size"]
    compile_circuit(circuit, device, optimization_level=1, seed=0)
    assert compile_cache_stats()["size"] == before
    with pytest.raises(ValueError):
        configure_compile_cache(maxsize=0)


# ----------------------------------------------------------------------
# The memoized whole compile (which holds the level-3 trial choice)
# ----------------------------------------------------------------------


def _compile_keys():
    cache = get_compile_cache()
    return [
        key for key in list(cache._data)
        if isinstance(key, tuple) and key[:1] == ("compile",)
    ]


def _count_scoring(monkeypatch):
    """Count calls of the level-3 trial scorer."""
    import repro.fom.metrics as metrics

    calls = []
    scorer = metrics.expected_fidelity_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return scorer(*args, **kwargs)

    monkeypatch.setattr(metrics, "expected_fidelity_batch", counted)
    return calls


def test_level3_stores_one_choice_and_warm_compile_skips_scoring(monkeypatch):
    calls = _count_scoring(monkeypatch)
    circuit = _case_circuits()["rand8"]
    device = make_q20a()
    cold = compile_circuit(circuit, device, optimization_level=3, seed=7)
    assert len(calls) == 1
    assert len(_compile_keys()) == 1
    warm = compile_circuit(circuit, device, optimization_level=3, seed=7)
    assert len(calls) == 1
    assert result_digest(warm) == result_digest(cold) == GOLDEN_DIGESTS[
        ("rand8", 3, "Q20-A")
    ]


def test_choice_is_keyed_on_calibration_content_across_devices():
    """Q20-A and Q20-B share the coupling map, so after a Q20-A compile
    every trial pass of the Q20-B compile hits; only the whole-compile
    entry misses, because the reported fidelities differ."""
    circuit = _case_circuits()["rand8"]
    q20a, q20b = make_q20a(), make_q20b()
    assert q20a.coupling.fingerprint() == q20b.coupling.fingerprint()
    for _ in range(2):
        compile_circuit(circuit, q20a, optimization_level=3, seed=7)
    before = compile_cache_stats()
    result = compile_circuit(circuit, q20b, optimization_level=3, seed=7)
    after = compile_cache_stats()
    assert result_digest(result) == GOLDEN_DIGESTS[("rand8", 3, "Q20-B")]
    assert after["misses"] == before["misses"] + 1
    assert len(_compile_keys()) == 2


def test_in_place_calibration_edit_rescores_trials(monkeypatch):
    circuit = _case_circuits()["rand8"]
    device = make_q20a()
    first = compile_circuit(circuit, device, optimization_level=3, seed=7)
    calls = _count_scoring(monkeypatch)
    # Make every coupler the winner uses nearly useless, in place.
    fidelities = device.reported_calibration.two_qubit_fidelity
    for instruction in first.circuit.instructions:
        if len(instruction.qubits) == 2:
            fidelities[tuple(sorted(instruction.qubits))] = 0.05
    edited = compile_circuit(circuit, device, optimization_level=3, seed=7)
    assert len(calls) == 1
    assert result_digest(edited) != result_digest(first)
    configure_compile_cache(enabled=False)
    uncached = compile_circuit(circuit, device, optimization_level=3, seed=7)
    assert result_digest(edited) == result_digest(uncached)


def test_disabled_cache_stores_no_choice():
    circuit = _case_circuits()["rand8"]
    configure_compile_cache(enabled=False)
    result = compile_circuit(circuit, make_q20a(), optimization_level=3, seed=7)
    configure_compile_cache(enabled=True)
    assert _compile_keys() == []
    assert compile_cache_stats()["size"] == 0
    assert result_digest(result) == GOLDEN_DIGESTS[("rand8", 3, "Q20-A")]


def test_uncacheable_suffix_pass_skips_the_memo(monkeypatch):
    monkeypatch.setattr(VirtualRZ, "cache_key", lambda self: None)
    circuit = _case_circuits()["rand8"]
    device = make_q20a()
    for _ in range(2):
        result = compile_circuit(circuit, device, optimization_level=3, seed=7)
        assert result_digest(result) == GOLDEN_DIGESTS[("rand8", 3, "Q20-A")]
    assert _compile_keys() == []


def test_choice_hit_recomputes_evicted_winner_suffix():
    """A whole-compile hit needs no pass entry: with every other entry
    evicted, the warm compile still equals the cold one."""
    circuit = _case_circuits()["rand8"]
    device = make_q20a()
    cold = compile_circuit(circuit, device, optimization_level=3, seed=7)
    cache = get_compile_cache()
    compile_keys = set(_compile_keys())
    with cache._lock:
        for key in [key for key in cache._data if key not in compile_keys]:
            del cache._data[key]
    warm = compile_circuit(circuit, device, optimization_level=3, seed=7)
    assert result_digest(warm) == result_digest(cold)
    assert warm.final_layout == cold.final_layout


def test_entries_pickled_under_another_hash_salt_load_rehashed():
    """A snapshot entry crosses a process boundary (a pool worker's
    trial set) as flat arrays; the loading interpreter recomputes its
    fingerprint and its instructions' hashes, which are salted per
    interpreter."""
    import os
    import pickle
    import subprocess
    import sys

    import repro

    script = (
        "import pickle, sys\n"
        "from repro.circuits.random import random_circuit\n"
        "from repro.compiler.passes.base import snapshot_result\n"
        "source = random_circuit(4, 30, seed=11, measure=True)\n"
        "result = random_circuit(4, 40, seed=12, measure=True)\n"
        "result.metadata['routed'] = True\n"
        "entry = snapshot_result(source, result, {'final_layout': {0: 1, 1: 0}})\n"
        "sys.stdout.buffer.write(pickle.dumps(entry))\n"
    )
    source = random_circuit(4, 30, seed=11, measure=True)
    result = random_circuit(4, 40, seed=12, measure=True)
    result.metadata["routed"] = True
    local = snapshot_result(source, result, {"final_layout": {0: 1, 1: 0}})
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    for salt in ("0", "1234567"):
        env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=src_dir)
        entry = pickle.loads(subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, env=env, check=True,
        ).stdout)
        restored = restore_result(entry, source, PropertySet())
        assert entry.fingerprint == circuit_cache_fingerprint(restored)
        assert entry.fingerprint == local.fingerprint
        assert entry.instructions == local.instructions
        assert [hash(i) for i in entry.instructions] == [
            hash(i) for i in local.instructions
        ]
        assert entry.metadata_delta == local.metadata_delta == {"routed": True}
        assert entry.properties_delta == local.properties_delta
