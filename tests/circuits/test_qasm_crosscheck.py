"""The QASM reader against its frozen predecessor, and under mutation.

:mod:`tests.circuits.qasm_reference` is the regex- and ``eval``-based
reader the tokenizer replaced.  On everything the old reader read
correctly — ``to_qasm`` of the whole benchmark suite and of seeded
random circuits, plus hand-written spacing, comment, alias, barrier and
measure variants — both must build identical instructions.  The fuzzer
then mutates hot-set-style programs (seeded, stdlib only): every input
must either parse or raise :class:`ValueError`, the one error the
serving daemon turns into a 400.
"""

import random
import re

import pytest

from repro.bench.suite import build_suite
from repro.circuits.qasm import from_qasm, to_qasm
from repro.circuits.random import random_circuit

from .qasm_reference import from_qasm as reference_from_qasm


def assert_same_circuit(text):
    parsed = from_qasm(text)
    expected = reference_from_qasm(text)
    assert parsed.num_qubits == expected.num_qubits
    assert parsed.num_clbits == expected.num_clbits
    assert parsed.instructions == expected.instructions
    # Bit-level parameter equality (== alone would let -0.0 match 0.0).
    assert [tuple(map(float.hex, i.params)) for i in parsed.instructions] == [
        tuple(map(float.hex, i.params)) for i in expected.instructions
    ]


@pytest.fixture(scope="module")
def suite_qasm():
    return [to_qasm(entry.circuit) for entry in build_suite()]


def test_whole_suite_matches_reference(suite_qasm):
    for text in suite_qasm:
        assert_same_circuit(text)


@pytest.mark.parametrize("seed", range(12))
def test_random_circuits_match_reference(seed):
    circuit = random_circuit(2 + seed % 6, 10 + seed, seed=seed, measure=True)
    assert_same_circuit(to_qasm(circuit))


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'

VARIANTS = [
    "h q[0];",
    "  h   q[0] ;  ",
    "\th\tq[0];",
    "h q[0]; // trailing comment",
    "// a full-line comment",
    "",
    "H q[1];",
    "cx q[0],q[1];",
    "cx q[0], q[1];",
    "cx  q[0] ,q[1] ;",
    "cnot q[1],q[2];",
    "toffoli q[0],q[1],q[2];",
    "ccx q[2],q[0],q[1];",
    "rz(pi/4) q[2];",
    "rz( pi / 4 ) q[2];",
    "rz (pi*-1/2) q[2];",
    "rz(-pi) q[0];",
    "rz(2*pi/3) q[0];",
    "rz(1e-3) q[0];",
    "rz(.5) q[0];",
    "rz(5.) q[0];",
    "rz(1.5E+2) q[0];",
    "rz(--1) q[0];",
    "rz(+0.25) q[0];",
    "rz(7/2) q[0];",
    "rz(0.1+0.2) q[0];",
    "rz(0) q[0];",
    "rz(-0.0) q[0];",
    "u1(0.5) q[0];",
    "phase(0.5) q[0];",
    "u2(0.1,0.2) q[1];",
    "u2(0.1, pi) q[1];",
    "u3(0.1,0.2,0.3) q[2];",
    "u(0.1,0.2,0.3) q[2];",
    "cp(pi*-1/8) q[0],q[2];",
    "rzz(0.7) q[1],q[2];",
    "id q[0];",
    "sx q[1];",
    "iswap_dg q[0],q[2];",
    "barrier q[0],q[1],q[2];",
    "barrier q[1];",
    "barrier q;",
    "measure q[0] -> c[0];",
    "measure q[0]->c[0];",
    "measure  q[2]  ->  c[1] ;",
]


@pytest.mark.parametrize("statement", VARIANTS)
def test_hand_written_variant_matches_reference(statement):
    assert_same_circuit(HEADER + statement + "\n")


def test_all_variants_in_one_program_match_reference():
    assert_same_circuit(HEADER + "\n".join(VARIANTS) + "\n")


# ----------------------------------------------------------------------
# Mutation fuzzing
# ----------------------------------------------------------------------

#: Replacement tokens: hostile angles, huge indices, stray punctuation.
HOSTILE = [
    "**", "9**9**9", "1e999", "1e308*10", "-1e999", "pi3", "2pi", "/0",
    "(((", ")))", "(" * 60, "-" * 60, "1" * 400, "->", ";", ",", "", " ",
    "[", "]", "q[99999999999]", "999999999999999999999", "nan", "inf",
    "²", "٣", "\x00", "\t", "\n", "//", "barrier", "measure",
    "qreg", "creg", "u2", "u3", "cnot", "q", "c", "pi", "e", "1e", ".",
]

_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:e-?\d+)?|\w+|->|[^\s\w]")
_ALPHABET = "()[];,->*/+.eE0123456789 \t\nqcpi_é\x00"


def _mutate(text, rng):
    """One byte-level or token-level mutation of ``text``."""
    kind = rng.randrange(6)
    if kind < 3 and text:
        at = rng.randrange(len(text))
        if kind == 0:    # delete a span
            return text[:at] + text[at + rng.randint(1, 4):]
        if kind == 1:    # insert a character
            return text[:at] + rng.choice(_ALPHABET) + text[at:]
        return text[:at] + rng.choice(_ALPHABET) + text[at + 1:]
    tokens = list(_TOKEN_RE.finditer(text))
    if not tokens:
        return text + rng.choice(HOSTILE)
    token = rng.choice(tokens)
    if kind == 3:        # replace a token with a hostile one
        replacement = rng.choice(HOSTILE)
    elif kind == 4:      # replace it with another token of the program
        replacement = rng.choice(tokens).group()
    else:                # duplicate a line
        lines = text.split("\n")
        at = rng.randrange(len(lines))
        return "\n".join(lines[:at] + [lines[at]] * 2 + lines[at:])
    return text[:token.start()] + replacement + text[token.end():]


def test_mutated_programs_parse_or_raise_value_error():
    rng = random.Random(20261017)
    programs = [
        to_qasm(entry.circuit) for entry in build_suite(max_qubits=5)
    ]
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        text = rng.choice(programs)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        try:
            from_qasm(text)
        except ValueError:
            outcomes["rejected"] += 1
        except Exception as exc:  # noqa: BLE001 - the failure under test
            pytest.fail(f"{type(exc).__name__}: {exc} on input {text!r}")
        else:
            outcomes["parsed"] += 1
    # Both outcomes occur, so the mutations neither always break nor
    # never touch the programs.
    assert outcomes["parsed"] > 100 and outcomes["rejected"] > 100, outcomes
