"""Every memoized stage answers as if it ran alone.

The compile cache, the simulator's plan and profile memos and the
on-disk artifact keys are all keyed by content.  This tier checks that
independently of any stored output: compile, execute and featurize
operations over inputs built to collide run in shuffled orders, with the
memos live and with them emptied before every operation, and each
output must equal that operation's isolated cold output.  The colliding
inputs are a circuit and its ``rz(-0.0)`` twin (equal under ``==`` and
the memo fingerprint, different in the distortion seed's text), equal
instructions at another width, and an equal device under another name.
A coupling map listing equal edges in another order is checked on its
own, on the compile it changes.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.suite import build_suite
from repro.circuits.circuit import QuantumCircuit
from repro.compiler import clear_compile_cache, compile_circuit
from repro.fom.features import feature_vector
from repro.hardware import make_q20a
from repro.hardware.coupling import CouplingMap
from repro.simulation import executor, kernels
from repro.simulation.executor import QPUExecutor

from .harness import PROPERTY_SEED, small_device

SHOTS = 4000


def _empty_memos() -> None:
    clear_compile_cache()
    kernels._PLAN_CACHE.clear()
    executor._PROFILE_CACHE.clear()


def _native(zero: float, width: int = 2) -> QuantumCircuit:
    """A native circuit on qubits 0-1 with an ``rz(zero)`` in the middle."""
    qc = QuantumCircuit(width, 2)
    qc.prx(0.7, 0.3, 0)
    qc.rz(zero, 0)
    qc.cz(0, 1)
    qc.prx(0.4, 0.1, 1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    return qc


def _logical(zero: float, width: int = 3) -> QuantumCircuit:
    qc = QuantumCircuit(width, 2)
    qc.h(0)
    qc.rz(zero, 0)
    qc.cx(0, 1)
    qc.ry(0.3, 1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    return qc


@pytest.fixture(scope="module")
def operations():
    line = small_device("line")
    renamed = dataclasses.replace(line, name=line.name + "-renamed")
    ring = small_device("ring")
    for device in (line, ring):
        assert device.coupling.has_edge(0, 1)
    natives = [_native(0.0), _native(-0.0), _native(0.0, width=3)]
    logicals = [_logical(0.0), _logical(-0.0), _logical(0.0, width=4)]
    assert natives[0] == natives[1] and logicals[0] == logicals[1]
    assert natives[0].instructions == natives[2].instructions

    def compile_op(circuit, device):
        def run():
            compiled = compile_circuit(
                circuit, device, optimization_level=3, seed=5
            ).circuit
            return (
                compiled.num_qubits, compiled.num_clbits,
                [repr(ins) for ins in compiled.instructions],
            )
        return run

    def execute_op(circuit, device):
        def run():
            result = QPUExecutor(device).execute(circuit, shots=SHOTS, seed=11)
            return result.counts, result.success_probability

        return run

    def featurize_op(circuit):
        return lambda: feature_vector(circuit).tolist()

    ops = []
    for index, device in enumerate((line, renamed, ring)):
        for position, circuit in enumerate(logicals):
            ops.append((f"compile[{position}]@{index}", compile_op(circuit, device)))
        for position, circuit in enumerate(natives):
            ops.append((f"execute[{position}]@{index}", execute_op(circuit, device)))
    for position, circuit in enumerate(natives):
        ops.append((f"featurize[{position}]", featurize_op(circuit)))

    cold = {}
    for name, run in ops:
        _empty_memos()
        cold[name] = run()
    _empty_memos()
    return ops, cold


def test_the_twins_tell_apart_where_they_should(operations):
    _, cold = operations
    # The distortion seed reads the zero's sign, and a renamed device
    # distorts differently; the compiler and the features do not.
    assert cold["execute[0]@0"] != cold["execute[1]@0"]
    assert cold["execute[0]@0"] != cold["execute[0]@1"]
    assert cold["compile[0]@0"] == cold["compile[1]@0"]
    assert cold["featurize[0]"] == cold["featurize[1]"]


@pytest.mark.parametrize("emptied", [False, True], ids=["memos-live", "memos-emptied"])
def test_shuffled_stages_match_isolated_cold_outputs(operations, emptied):
    ops, cold = operations
    rng = np.random.default_rng(PROPERTY_SEED)
    orders = [list(range(len(ops))), list(range(len(ops)))[::-1]]
    orders += [list(rng.permutation(len(ops))) for _ in range(1 if emptied else 3)]
    for order in orders:
        _empty_memos()
        for index in order:
            name, run = ops[index]
            if emptied:
                _empty_memos()
            assert run() == cold[name], (name, order)
    _empty_memos()


def test_coupling_insertion_order_keys_the_compile():
    # Equal edge sets in another insertion order break routing ties
    # differently, so neither device may reuse the other's passes.
    q20a = make_q20a()
    reordered = dataclasses.replace(q20a, coupling=CouplingMap(
        q20a.num_qubits, [(b, a) for a, b in reversed(q20a.coupling.edges)]
    ))
    circuit = next(
        bench.circuit for bench in build_suite(min_qubits=5, max_qubits=5)
        if bench.name == "ae_5"
    )

    def compiled(device):
        result = compile_circuit(circuit, device, optimization_level=3, seed=3)
        return [repr(ins) for ins in result.circuit.instructions]

    devices = (q20a, reordered)
    cold = []
    for device in devices:
        clear_compile_cache()
        cold.append(compiled(device))
    assert cold[0] != cold[1]
    for second in (0, 1):
        clear_compile_cache()
        compiled(devices[1 - second])
        assert compiled(devices[second]) == cold[second]
    clear_compile_cache()


_FINGERPRINTS = (
    "from repro.evaluation.persistence import device_fingerprint\n"
    "from repro.hardware import make_q20a, make_q20b, resolve_device\n"
    "print(*(device_fingerprint(d) for d in (make_q20a(), make_q20b(),"
    " resolve_device('zoo:heavy_hex:16:noisy:3'))))\n"
)


def test_device_fingerprint_is_stable_across_hash_seeds():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _FINGERPRINTS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE, text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [child.communicate(timeout=60)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
