"""Unit tests for OpenQASM 2.0 import/export."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import from_qasm, qasm_roundtrip_equal, to_qasm
from repro.circuits.random import random_circuit
from repro.simulation.statevector import circuit_unitary


def test_export_basic():
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    text = to_qasm(qc)
    assert "OPENQASM 2.0;" in text
    assert "qreg q[2];" in text
    assert "creg c[2];" in text
    assert "h q[0];" in text
    assert "cx q[0],q[1];" in text
    assert "measure q[0] -> c[0];" in text


def test_export_pi_fractions():
    qc = QuantumCircuit(1)
    qc.rx(math.pi / 2, 0)
    text = to_qasm(qc)
    assert "pi/2" in text


def test_import_basic():
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    cx q[0],q[1];
    rz(pi/4) q[2];
    barrier q[0],q[1],q[2];
    measure q[0] -> c[0];
    """
    qc = from_qasm(text)
    assert qc.num_qubits == 3
    assert qc.num_clbits == 3
    names = [ins.name for ins in qc]
    assert names == ["h", "cx", "rz", "barrier", "measure"]
    assert math.isclose(qc.instructions[2].params[0], math.pi / 4)


def test_import_comments_ignored():
    text = "OPENQASM 2.0;\nqreg q[1];\nh q[0]; // a comment\n// full line\n"
    qc = from_qasm(text)
    assert qc.size() == 1


def test_import_u1_u2_u3_aliases():
    text = (
        "OPENQASM 2.0;\nqreg q[1];\n"
        "u1(0.5) q[0];\nu2(0.1,0.2) q[0];\nu3(0.1,0.2,0.3) q[0];\n"
    )
    qc = from_qasm(text)
    assert [ins.name for ins in qc] == ["p", "u", "u"]
    assert math.isclose(qc.instructions[1].params[0], math.pi / 2)


def test_import_rejects_unknown_gate():
    with pytest.raises(ValueError, match="unsupported QASM gate"):
        from_qasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")


def test_import_rejects_bad_angle():
    with pytest.raises(ValueError, match="angle"):
        from_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(__import__) q[0];\n")


@pytest.mark.parametrize("seed", range(4))
def test_roundtrip_random_circuits(seed):
    qc = random_circuit(4, 8, seed=seed, measure=True)
    assert qasm_roundtrip_equal(qc)


@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_preserves_unitary(seed):
    qc = random_circuit(3, 6, seed=seed)
    parsed = from_qasm(to_qasm(qc))
    assert np.allclose(
        circuit_unitary(parsed), circuit_unitary(qc), atol=1e-8
    )


def test_angle_format_roundtrip_precision():
    qc = QuantumCircuit(1)
    qc.rz(0.12345678901234, 0)
    parsed = from_qasm(to_qasm(qc))
    assert math.isclose(
        parsed.instructions[0].params[0], 0.12345678901234, rel_tol=1e-12
    )


#: The denominators :func:`repro.circuits.qasm._format_angle` tries.
PI_DENOMINATORS = (1, 2, 3, 4, 6, 8, 16)


@pytest.mark.parametrize("denom", PI_DENOMINATORS)
def test_every_pi_fraction_round_trips(denom):
    """Every ``num * pi / denom`` the formatter may emit, both signs,
    reads back within the formatter's own 1e-12 tolerance (``pi*13/4``
    once came out as ``pi3/4``)."""
    for num in range(-16 * denom, 16 * denom + 1):
        if num == 0:
            continue
        value = num * math.pi / denom
        qc = QuantumCircuit(1)
        qc.rz(value, 0)
        text = to_qasm(qc)
        (parsed,) = from_qasm(text).instructions
        assert abs(parsed.params[0] - value) <= 1e-12, (num, denom, text)


def test_pi_fraction_spellings():
    qc = QuantumCircuit(1)
    for value in (math.pi, math.pi / 2, 13 * math.pi / 4, 10 * math.pi,
                  -math.pi / 2, 150 * math.pi / 16):
        qc.rz(value, 0)
    lines = to_qasm(qc).splitlines()[3:]
    assert [line.split(")")[0][3:] for line in lines] == [
        "pi", "pi/2", "pi*13/4", "pi*10", "pi*-1/2", "pi*75/8",
    ]


def test_angle_expressions_follow_python_arithmetic():
    qc = from_qasm(
        "qreg q[1];\n"
        "rz(-(pi/8)) q[0];\nrz(2*-3) q[0];\nrz(--1) q[0];\n"
        "rz( 1 + 2 * 3 / 4 - (5) ) q[0];\nrz(.5e1) q[0];\nrz(7/2) q[0];\n"
    )
    assert [ins.params[0] for ins in qc] == [
        -(math.pi / 8), -6.0, 1.0, 1 + 2 * 3 / 4 - 5, 5.0, 3.5,
    ]


@pytest.mark.parametrize(
    "angle",
    [
        "9**9**6",          # exponentiation never reaches an evaluator
        "2**3",
        "1/0",
        "pi/(1-1)",
        "0/0.0",
        "1e308*10",         # overflows to inf
        "1e999",
        "-1e999",
        "1/(1e308*10)",     # an infinite intermediate
        "pi3/4",            # pi glued to a digit
        "2pi",
        "pi pi",
        "(1",
        "1)",
        "",
        "__import__",
        "x",
        "-" * 100 + "1",    # nesting bound
        "(" * 40 + "1" + ")" * 40,
        "1" * 300,          # length bound
    ],
    ids=lambda angle: angle[:24],
)
def test_hostile_angles_raise_value_error(angle):
    with pytest.raises(ValueError):
        from_qasm(f"qreg q[1];\nrz({angle}) q[0];\n")


@pytest.mark.parametrize(
    "statement",
    [
        "h q[1];",              # qubit out of range
        "cx q[0],q[0];",        # duplicate qubits
        "cx q[0];",             # arity
        "rz q[0];",             # missing parameter
        "h(0.5) q[0];",         # extra parameter
        "u2(0.1) q[0];",
        "measure q[0];",        # no classical target
        "measure q[0] -> c[5];",
        "h q[0]",               # no semicolon
        "h q;",
        "h q[x];",
        "qreg q[2]; h q[0];",   # one statement per line
        "qreg q[2000000];",     # register bound
        ";",
        "barrier(1) q[0];",
    ],
)
def test_malformed_statements_raise_value_error(statement):
    with pytest.raises(ValueError):
        from_qasm(f"qreg q[1];\ncreg c[1];\n{statement}\n")


def test_whole_register_barrier_and_last_declaration_wins():
    qc = from_qasm("qreg q[2];\nbarrier q;\nqreg q[3];\nh q[2];\nbarrier;\n")
    assert qc.num_qubits == 3
    assert [ins.qubits for ins in qc] == [(0, 1, 2), (2,), (0, 1, 2)]
