"""Level-3 trial sets: one set of layout/routing trials per topology.

Q20-A and Q20-B share the 4x5 grid coupling map, so their level-3
trials are identical and only the expected-fidelity pick, on each
device's reported calibration, differs.  ``compile_batch`` keeps each
compile's candidates in the caller's compile cache under a ``"trials"``
key; a second device on the same topology re-picks the winner from them
and runs no pass.  Every result must equal a cold compile for that
device, byte for byte, in-process and pooled.
"""

import dataclasses

import pytest

import repro.parallel as parallel_mod
from repro.bench.algorithms import qft
from repro.circuits.random import random_circuit
from repro.compiler import (
    clear_compile_cache,
    compile_batch,
    compile_cache_stats,
    configure_compile_cache,
)
from repro.circuits.circuit import Instruction
from repro.compiler.cache import (
    DEFAULT_MAXSIZE,
    CachedPassResult,
    get_compile_cache,
)
from repro.compiler.compile import _compile_key, _trial_key
from repro.compiler.passes.base import (
    PassManager,
    PropertySet,
    restore_result,
    snapshot_result,
)
from repro.fom import metrics
from repro.fom.metrics import expected_fidelity
from repro.hardware import make_q20a, make_q20b

WORKERS = (1, 2)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    configure_compile_cache(maxsize=DEFAULT_MAXSIZE, enabled=True)
    yield
    clear_compile_cache()
    configure_compile_cache(maxsize=DEFAULT_MAXSIZE, enabled=True)


def _circuits():
    circuits = [
        random_circuit(3 + i % 4, 8 + 2 * i, seed=70 + i, measure=True)
        for i in range(5)
    ]
    circuits.append(qft(5))
    for i, circuit in enumerate(circuits):
        circuit.metadata["suite_index"] = i
    return circuits


def _snapshot(results):
    """Everything a result carries: instructions, layouts, name,
    metadata and properties."""
    return [
        (
            tuple(result.circuit.instructions),
            result.circuit.global_phase,
            result.circuit.num_clbits,
            result.circuit.name,
            dict(result.circuit.metadata),
            result.initial_layout,
            result.final_layout,
            dict(result.properties),
            result.device.name,
            result.optimization_level,
        )
        for result in results
    ]


def _cold(circuits, device, workers):
    clear_compile_cache()
    results = compile_batch(
        circuits, device, optimization_level=3, seed=5, max_workers=workers
    )
    clear_compile_cache()
    return _snapshot(results)


def _spy(monkeypatch):
    """Count pass runs in this process and items fanned out to workers."""
    passes, fanned = [], []
    run_pass = PassManager._run_pass
    real_map = parallel_mod.parallel_map

    def counted(self, pass_, *args):
        passes.append(pass_.name)
        return run_pass(self, pass_, *args)

    def spy(fn, items, *args, **kwargs):
        items = list(items)
        fanned.extend(items)
        return real_map(fn, items, *args, **kwargs)

    monkeypatch.setattr(PassManager, "_run_pass", counted)
    monkeypatch.setattr(parallel_mod, "parallel_map", spy)
    return passes, fanned


def _trial_keys():
    return [
        key for key in list(get_compile_cache()._data)
        if isinstance(key, tuple) and key[:1] == ("trials",)
    ]


@pytest.mark.parametrize("workers", WORKERS)
def test_second_device_on_the_topology_runs_no_pass(monkeypatch, workers):
    circuits = _circuits()
    q20a, q20b = make_q20a(), make_q20b()
    assert q20a.coupling.fingerprint() == q20b.coupling.fingerprint()
    cold_b = _cold(circuits, q20b, workers)

    compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=workers
    )
    assert len(_trial_keys()) == len(circuits)
    passes, fanned = _spy(monkeypatch)
    before = compile_cache_stats()
    warm_b = compile_batch(
        circuits, q20b, optimization_level=3, seed=5, max_workers=workers
    )
    after = compile_cache_stats()
    assert passes == [] and fanned == []
    # One whole-compile miss and one trial-set hit per circuit.
    assert after["misses"] - before["misses"] == len(circuits)
    assert after["hits"] - before["hits"] == len(circuits)
    assert _snapshot(warm_b) == cold_b
    # Some winner differs between the devices, so the pick really ran.
    cold_a = _cold(circuits, q20a, workers)
    assert [r[0] for r in cold_a] != [r[0] for r in cold_b]


@pytest.mark.parametrize("workers", WORKERS)
def test_calibration_edit_repicks_from_the_trial_set(monkeypatch, workers):
    circuits = _circuits()
    device = make_q20a()
    first = compile_batch(
        circuits, device, optimization_level=3, seed=5, max_workers=workers
    )
    # Make every coupler the first winners use nearly useless, in place.
    fidelities = device.reported_calibration.two_qubit_fidelity
    for result in first:
        for instruction in result.circuit.instructions:
            if len(instruction.qubits) == 2:
                fidelities[tuple(sorted(instruction.qubits))] = 0.05
    passes, fanned = _spy(monkeypatch)
    edited = compile_batch(
        circuits, device, optimization_level=3, seed=5, max_workers=workers
    )
    assert passes == [] and fanned == []
    assert _snapshot(edited) != _snapshot(first)
    monkeypatch.undo()
    assert _snapshot(edited) == _cold(circuits, device, workers)


@pytest.mark.parametrize("workers", WORKERS)
def test_same_coupling_with_other_native_gates_still_raises(workers):
    circuits = _circuits()
    q20a = make_q20a()
    other = dataclasses.replace(
        q20a, name="Q20-CX", native_gates=frozenset({"cx", "u3", "measure"})
    )
    with pytest.raises(ValueError, match="not native"):
        compile_batch(
            circuits, other, optimization_level=3, seed=5, max_workers=workers
        )
    compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=workers
    )
    with pytest.raises(ValueError, match="not native"):
        compile_batch(
            circuits, other, optimization_level=3, seed=5, max_workers=workers
        )


@pytest.mark.parametrize("level", [2, 3])
def test_other_native_gates_split_the_whole_compile_not_the_trials(level):
    """A whole-compile entry is validated once, when stored, against the
    native gates its key holds; a device with the same coupling map and
    other native gates gets its own entry (and its own validation), but
    shares the level-3 trial set."""
    circuits = _circuits()
    q20a = make_q20a()
    other = dataclasses.replace(
        q20a, name="Q20-CX", native_gates=frozenset({"cx", "u3", "measure"})
    )
    cache = get_compile_cache()
    key_a, key_other = (
        _compile_key(cache, circuits[0], device, level, 5, False, 4)
        for device in (q20a, other)
    )
    assert key_a != key_other
    if level == 3:
        assert _trial_key(key_a) == _trial_key(key_other)
    compile_batch(circuits, q20a, optimization_level=level, seed=5, max_workers=1)
    before = compile_cache_stats()
    with pytest.raises(ValueError, match="not native"):
        compile_batch(
            circuits[:1], other, optimization_level=level, seed=5, max_workers=1
        )
    # The other device's lookup missed: q20a's entry was not handed out.
    assert compile_cache_stats()["misses"] == before["misses"] + 1


def test_whole_compile_hit_is_not_validated_again(monkeypatch):
    circuits = _circuits()
    q20a = make_q20a()
    cold = _snapshot(compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=1
    ))
    validated = []
    monkeypatch.setattr(
        type(q20a), "validate_circuit",
        lambda self, circuit: validated.append(circuit),
    )
    warm = compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=1
    )
    assert validated == []
    assert _snapshot(warm) == cold


@pytest.mark.parametrize("workers", WORKERS)
def test_disabled_cache_keeps_no_trial_set(workers):
    circuits = _circuits()
    q20a, q20b = make_q20a(), make_q20b()
    cold = [_cold(circuits, device, workers) for device in (q20a, q20b)]
    configure_compile_cache(enabled=False)
    uncached = [
        _snapshot(compile_batch(
            circuits, device, optimization_level=3, seed=5,
            max_workers=workers,
        ))
        for device in (q20a, q20b)
    ]
    configure_compile_cache(enabled=True)
    assert uncached == cold
    assert compile_cache_stats()["size"] == 0


@pytest.mark.parametrize("workers", WORKERS)
def test_edits_to_results_do_not_reach_the_cache(workers):
    """A result shares nothing with the cache entries made from its
    compile: computing its schedule, clearing its layouts or emptying its
    circuit leaves the next Q20-B (trial set) and Q20-A (whole compile)
    results equal to cold compiles."""
    circuits = _circuits()
    q20a, q20b = make_q20a(), make_q20b()
    cold = [_cold(circuits, device, workers) for device in (q20a, q20b)]
    for result in compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=workers
    ):
        assert result.schedule is result.properties["schedule"]
        result.properties["final_layout"].clear()
        result.properties["initial_layout"].clear()
        result.circuit.metadata.clear()
        result.circuit.instructions.clear()
    warm = [
        _snapshot(compile_batch(
            circuits, device, optimization_level=3, seed=5,
            max_workers=workers,
        ))
        for device in (q20b, q20a)
    ]
    assert warm[::-1] == cold


@pytest.mark.parametrize("workers", WORKERS)
def test_repick_scores_equal_restored_candidates(monkeypatch, workers):
    """Q20-B re-picks from Q20-A's trial sets by scoring the snapshot
    entries themselves; each score is bit-identical to the scalar
    expected fidelity of the restored candidate, a barrier included."""
    circuits = _circuits()
    q20a, q20b = make_q20a(), make_q20b()
    compile_batch(
        circuits, q20a, optimization_level=3, seed=5, max_workers=workers
    )
    cache = get_compile_cache()
    key = _trial_keys()[0]
    entries = cache._data[key]
    properties = PropertySet()
    barred = restore_result(entries[0], circuits[0], properties)
    barred.instructions.insert(
        len(barred.instructions) // 2,
        Instruction("barrier", tuple(range(barred.num_qubits))),
    )
    cache._data[key] = (
        (snapshot_result(circuits[0], barred, properties),) + entries[1:]
    )

    scored = []
    score = metrics.expected_fidelity_batch

    def spy(candidates, device, calibration=None):
        scores = score(candidates, device, calibration=calibration)
        scored.append((list(candidates), scores.tolist()))
        return scores

    monkeypatch.setattr(metrics, "expected_fidelity_batch", spy)
    compile_batch(
        circuits, q20b, optimization_level=3, seed=5, max_workers=workers
    )
    assert len(scored) == len(circuits)
    assert any(
        instruction.name == "barrier"
        for candidates, _ in scored
        for candidate in candidates
        for instruction in candidate.instructions
    )
    for candidates, scores in scored:
        assert all(isinstance(c, CachedPassResult) for c in candidates)
        restored = [
            restore_result(candidate, circuits[0], PropertySet())
            for candidate in candidates
        ]
        assert scores == [expected_fidelity(c, q20b) for c in restored]
