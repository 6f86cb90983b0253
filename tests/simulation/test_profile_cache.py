"""The simulator's content-keyed memos: compiled plans and execution profiles.

``kernels._PLAN_CACHE`` is keyed by ``(circuit_cache_fingerprint, dtype)``
and ``executor._PROFILE_CACHE`` by ``(circuit_cache_fingerprint, device
fingerprint)``.  Both are plain dicts emptied when they reach their module
bound, so equal circuits share entries and neither grows past its bound.
"""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import compile_circuit
from repro.hardware import make_q20a
from repro.simulation import kernels
from repro.simulation.executor import (
    _PROFILE_CACHE,
    _PROFILE_CACHE_MAX,
    QPUExecutor,
)
from repro.simulation.statevector import ideal_distribution, simulate_statevector


def _compiled_bell(device):
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure_all()
    return compile_circuit(qc, device, optimization_level=1, seed=0).circuit


def test_equal_copy_builds_no_second_plan_or_profile():
    device = make_q20a()
    circuit = _compiled_bell(device)
    recompiled = _compiled_bell(device)
    assert recompiled is not circuit
    plan = kernels.circuit_plan(circuit)
    profile = QPUExecutor(device)._profile(circuit)
    for equal in (circuit.copy(), recompiled):
        assert kernels.circuit_plan(equal) is plan
        assert QPUExecutor(device)._profile(equal) is profile
    # The device side is keyed by content too: an equal device reuses it.
    assert QPUExecutor(make_q20a())._profile(circuit.copy()) is profile


def test_memos_hold_at_most_their_bound():
    executor = QPUExecutor(make_q20a())
    for index in range(max(kernels._PLAN_CACHE_MAX, _PROFILE_CACHE_MAX) + 1):
        qc = QuantumCircuit(1, 1)
        qc.rz(1e-3 * index, 0)
        qc.measure(0, 0)
        kernels.circuit_plan(qc)
        executor._profile(qc)
        assert len(kernels._PLAN_CACHE) <= kernels._PLAN_CACHE_MAX
        assert len(_PROFILE_CACHE) <= _PROFILE_CACHE_MAX


def test_plan_key_separates_width_and_dtype():
    narrow = QuantumCircuit(2, 2)
    wide = QuantumCircuit(3, 2)
    for qc in (narrow, wide):
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(math.pi / 3, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
    assert narrow.instructions == wide.instructions
    narrow_probs = ideal_distribution(narrow)
    wide_probs = ideal_distribution(wide)
    kernels._PLAN_CACHE.clear()
    assert wide_probs == ideal_distribution(wide)
    kernels._PLAN_CACHE.clear()
    assert narrow_probs == ideal_distribution(narrow)

    single = simulate_statevector(wide, dtype=np.complex64).data
    double = simulate_statevector(wide, dtype=np.complex128).data
    kernels._PLAN_CACHE.clear()
    expected = simulate_statevector(wide, dtype=np.complex128).data
    assert double.dtype == np.complex128
    assert np.array_equal(double, expected)
    kernels._PLAN_CACHE.clear()
    assert np.array_equal(
        single, simulate_statevector(wide, dtype=np.complex64).data
    )


def test_cached_profile_revalidates_after_native_gates_edit():
    device = make_q20a()
    circuit = _compiled_bell(device)
    executor = QPUExecutor(device)
    executor.execute(circuit, shots=16, seed=0)
    device.native_gates = device.native_gates - {"cz"}
    with pytest.raises(ValueError, match="gate 'cz' is not native"):
        executor.execute(circuit, shots=16, seed=0)
