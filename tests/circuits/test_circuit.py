"""Unit tests for the QuantumCircuit builder and structural operations."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import (
    SEED_STRIDE,
    Instruction,
    QuantumCircuit,
    batch_seeds,
    circuit_from_instructions,
)
from repro.simulation.statevector import circuit_unitary, simulate_statevector
from repro.compiler.unitary_math import matrices_equal_up_to_phase


def test_builder_chains():
    qc = QuantumCircuit(2)
    returned = qc.h(0).cx(0, 1).rz(0.5, 1)
    assert returned is qc
    assert [ins.name for ins in qc] == ["h", "cx", "rz"]


def test_append_validates_qubit_range():
    qc = QuantumCircuit(2)
    with pytest.raises(ValueError, match="out of range"):
        qc.h(2)
    with pytest.raises(ValueError, match="out of range"):
        qc.cx(0, 5)


def test_append_validates_arity():
    qc = QuantumCircuit(3)
    with pytest.raises(ValueError, match="expects 2 qubits"):
        qc.append("cx", (0,))
    with pytest.raises(ValueError, match="expects 1 params"):
        qc.append("rx", (0,), ())


def test_append_rejects_duplicate_qubits():
    qc = QuantumCircuit(3)
    with pytest.raises(ValueError, match="duplicate"):
        qc.append("cx", (1, 1))


def test_measure_validates_clbits():
    qc = QuantumCircuit(2, 1)
    qc.measure(0, 0)
    with pytest.raises(ValueError, match="clbit"):
        qc.measure(1, 1)


def test_measure_all_grows_clbits():
    qc = QuantumCircuit(3)
    qc.measure_all()
    assert qc.num_clbits == 3
    assert len(qc.measured_qubits()) == 3


def test_depth_parallel_gates():
    qc = QuantumCircuit(4)
    qc.h(0).h(1).h(2).h(3)
    assert qc.depth() == 1
    qc.cx(0, 1).cx(2, 3)
    assert qc.depth() == 2
    qc.cx(1, 2)
    assert qc.depth() == 3


def test_depth_ignores_barriers():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.barrier()
    qc.h(1)
    assert qc.depth() == 1


def test_depth_excluding_measure():
    qc = QuantumCircuit(1, 1)
    qc.h(0).measure(0, 0)
    assert qc.depth() == 2
    assert qc.depth(include_measure=False) == 1


def test_size_and_count_ops():
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1).barrier().measure(0, 0).measure(1, 1)
    assert qc.size() == 2
    assert qc.size(include_directives=True) == 5
    counts = qc.count_ops()
    assert counts == {"h": 1, "cx": 1, "barrier": 1, "measure": 2}


def test_num_nonlocal_gates():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.3, 2)
    assert qc.num_nonlocal_gates() == 2


def test_active_qubits():
    qc = QuantumCircuit(5)
    qc.h(1).cx(1, 3)
    assert qc.active_qubits() == (1, 3)


def test_two_qubit_interactions_histogram():
    qc = QuantumCircuit(3)
    qc.cx(0, 1).cx(1, 0).cz(1, 2)
    pairs = qc.two_qubit_interactions()
    assert pairs == {(0, 1): 2, (1, 2): 1}


def test_copy_is_independent():
    qc = QuantumCircuit(2)
    qc.h(0)
    clone = qc.copy()
    clone.x(1)
    assert qc.size() == 1
    assert clone.size() == 2


def test_inverse_reverses_and_inverts():
    qc = QuantumCircuit(2)
    qc.h(0).s(0).cx(0, 1)
    inv = qc.inverse()
    assert [ins.name for ins in inv] == ["cx", "sdg", "h"]
    product = circuit_unitary(inv) @ circuit_unitary(qc)
    assert np.allclose(product, np.eye(4), atol=1e-10)


def test_inverse_rejects_measure():
    qc = QuantumCircuit(1, 1)
    qc.measure(0, 0)
    with pytest.raises(ValueError, match="invert"):
        qc.inverse()


def test_compose_with_mapping():
    inner = QuantumCircuit(2)
    inner.cx(0, 1)
    outer = QuantumCircuit(4)
    outer.compose(inner, qubits=[2, 3])
    assert outer.instructions[0].qubits == (2, 3)


def test_compose_accumulates_global_phase():
    a = QuantumCircuit(1, global_phase=0.3)
    b = QuantumCircuit(1, global_phase=0.4)
    a.compose(b)
    assert math.isclose(a.global_phase, 0.7)


def test_power():
    qc = QuantumCircuit(1)
    qc.rx(0.3, 0)
    cubed = qc.power(3)
    expected = QuantumCircuit(1)
    expected.rx(0.9, 0)
    assert matrices_equal_up_to_phase(
        circuit_unitary(cubed), circuit_unitary(expected)
    )
    inv = qc.power(-1)
    assert np.allclose(
        circuit_unitary(inv) @ circuit_unitary(qc), np.eye(2), atol=1e-10
    )


def test_remap_qubits():
    qc = QuantumCircuit(2)
    qc.cx(0, 1)
    remapped = qc.remap_qubits({0: 3, 1: 1}, num_qubits=4)
    assert remapped.instructions[0].qubits == (3, 1)
    assert remapped.num_qubits == 4


def test_without_directives():
    qc = QuantumCircuit(2, 2)
    qc.h(0).barrier().measure(0, 0)
    stripped = qc.without_directives()
    assert [ins.name for ins in stripped] == ["h"]


def test_mcx_small_cases_match_primitives():
    qc1 = QuantumCircuit(2)
    qc1.mcx([0], 1)
    assert qc1.instructions[0].name == "cx"
    qc2 = QuantumCircuit(3)
    qc2.mcx([0, 1], 2)
    assert qc2.instructions[0].name == "ccx"


@pytest.mark.parametrize("num_controls", [3, 4])
def test_mcx_matches_exact_matrix(num_controls):
    n = num_controls + 1
    qc = QuantumCircuit(n)
    qc.mcx(list(range(num_controls)), num_controls)
    unitary = circuit_unitary(qc)
    expected = np.eye(1 << n, dtype=complex)
    a = (1 << num_controls) - 1
    b = a | (1 << num_controls)
    expected[a, a] = expected[b, b] = 0
    expected[a, b] = expected[b, a] = 1
    assert np.allclose(unitary, expected, atol=1e-9)


def test_mcx_rejects_target_in_controls():
    qc = QuantumCircuit(3)
    with pytest.raises(ValueError, match="target"):
        qc.mcx([0, 1], 1)


@pytest.mark.parametrize("num_controls", [2, 3])
def test_mcp_matches_exact_matrix(num_controls):
    lam = 0.77
    n = num_controls + 1
    qc = QuantumCircuit(n)
    qc.mcp(lam, list(range(num_controls)), num_controls)
    unitary = circuit_unitary(qc)
    expected = np.eye(1 << n, dtype=complex)
    expected[-1, -1] = np.exp(1j * lam)
    assert np.allclose(unitary, expected, atol=1e-9)


def test_mcz_flips_all_ones_phase():
    qc = QuantumCircuit(4)
    qc.mcz([0, 1, 2], 3)
    unitary = circuit_unitary(qc)
    expected = np.eye(16, dtype=complex)
    expected[15, 15] = -1
    assert np.allclose(unitary, expected, atol=1e-9)


def test_barrier_default_spans_all_qubits():
    qc = QuantumCircuit(3)
    qc.barrier()
    assert qc.instructions[0].qubits == (0, 1, 2)


def test_instruction_remap():
    ins = Instruction("cx", (0, 1))
    remapped = ins.remap({0: 5, 1: 2})
    assert remapped.qubits == (5, 2)


def test_circuit_from_instructions_validates():
    instructions = [Instruction("h", (0,)), Instruction("cx", (0, 1))]
    qc = circuit_from_instructions(2, instructions)
    assert qc.size() == 2
    with pytest.raises(ValueError):
        circuit_from_instructions(1, [Instruction("cx", (0, 1))])


def test_negative_sizes_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(-1)
    with pytest.raises(ValueError):
        QuantumCircuit(1, -2)


def test_global_phase_affects_statevector():
    qc = QuantumCircuit(1, global_phase=math.pi)
    state = simulate_statevector(qc)
    assert np.allclose(state.data, [-1.0, 0.0])


def test_to_arrays_round_trip():
    """The flat-array encoding (the process-pool wire format) must carry
    every structural detail of a circuit."""
    qc = QuantumCircuit(3, 3, name="wire", global_phase=0.25)
    qc.metadata["origin"] = "test"
    qc.h(0).cx(0, 1).rz(0.5, 2)
    qc.measure(0, 0)
    qc.measure(2, 2)
    rebuilt = QuantumCircuit.from_arrays(qc.to_arrays())
    assert rebuilt.num_qubits == qc.num_qubits
    assert rebuilt.num_clbits == qc.num_clbits
    assert rebuilt.name == qc.name
    assert rebuilt.global_phase == qc.global_phase
    assert rebuilt.metadata == qc.metadata
    assert rebuilt.instructions == qc.instructions


def test_from_arrays_shares_equal_qubit_tuples():
    """A decode holds one tuple object per distinct qubit tuple, so a
    decoded circuit does not pay one tuple per gate."""
    qc = QuantumCircuit(3, 1)
    qc.h(0).cx(0, 1).rz(0.5, 0).cx(0, 1).cx(1, 0).measure(0, 0)
    rebuilt = QuantumCircuit.from_arrays(qc.to_arrays())
    assert rebuilt.instructions == qc.instructions
    by_value = {}
    for instruction in rebuilt.instructions:
        assert by_value.setdefault(instruction.qubits, instruction.qubits) is (
            instruction.qubits
        )
    assert len(by_value) == 3


def test_instruction_fields_cannot_be_set_or_deleted():
    instruction = Instruction("rz", (1,), (0.5,))
    for field in ("name", "qubits", "params", "clbits", "_hash"):
        with pytest.raises(AttributeError):
            setattr(instruction, field, getattr(instruction, field))
        with pytest.raises(AttributeError):
            delattr(instruction, field)
    with pytest.raises(AttributeError):
        instruction.extra = 1
    assert not hasattr(instruction, "__dict__")
    assert instruction == Instruction("rz", (1,), (0.5,))
    assert hash(instruction) == hash(Instruction("rz", (1,), (0.5,)))
    assert instruction != Instruction("rz", (1,), (0.25,))
    assert instruction != ("rz", (1,), (0.5,), ())


def test_pickle_round_trip_preserves_instruction_hashing():
    """Unpickled instructions must be usable as dict/set keys alongside
    the originals (the precomputed hash cannot ship across processes
    because string hashing is salted per interpreter)."""
    import pickle

    from repro.circuits.random import random_circuit

    qc = random_circuit(5, 20, seed=3, measure=True)
    clone = pickle.loads(pickle.dumps(qc))
    assert clone.instructions == qc.instructions
    assert clone.global_phase == qc.global_phase
    assert clone.name == qc.name
    for original, copy in zip(qc.instructions, clone.instructions):
        assert hash(original) == hash(copy)
    # Duplicates collapse to the same key: lookup must hit for every
    # unpickled instruction and point at an equal original.
    lookup = {ins: i for i, ins in enumerate(qc.instructions)}
    for ins in clone.instructions:
        assert qc.instructions[lookup[ins]] == ins


def test_batch_seeds_is_the_one_seed_stream_rule():
    import repro.compiler
    import repro.simulation

    assert repro.compiler.SEED_STRIDE == repro.simulation.SEED_STRIDE == SEED_STRIDE
    assert batch_seeds(3, range(3)) == [3, 3 + SEED_STRIDE, 3 + 2 * SEED_STRIDE]
    assert batch_seeds(3, [5, 1]) == [3 + 5 * SEED_STRIDE, 3 + SEED_STRIDE]
    assert batch_seeds(3, range(2), [9, 8]) == [9, 8]
    with pytest.raises(ValueError, match="seeds must match"):
        batch_seeds(3, range(2), [9])
