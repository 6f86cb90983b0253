"""Minimal OpenQASM 2.0 export/import.

Supports the gate vocabulary of :mod:`repro.circuits.gates` with a single
quantum register ``q`` and classical register ``c``.  This is enough to
round-trip every circuit the library produces and to interoperate with
external tools on simple circuits.

The reader tokenizes each line once and builds every
:class:`~repro.circuits.circuit.Instruction` directly, with the checks
:meth:`~repro.circuits.circuit.QuantumCircuit.append` makes.  Angles go
through a small recursive-descent evaluator (numbers, ``pi``,
``+ - * /``, unary signs, parentheses), memoized on the expression
text; there is no ``eval``.  Malformed or hostile input — ``**``,
division by zero, non-finite values — raises :class:`ValueError`.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import List, Tuple

from .circuit import Instruction, QuantumCircuit
from .gates import GATES, NON_UNITARY

# QASM spellings differing from our registry names.
_TO_QASM = {"p": "u1", "iswap_dg": "iswap_dg"}


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize a circuit to OpenQASM 2.0 text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            args = ",".join(f"q[{q}]" for q in instruction.qubits)
            lines.append(f"barrier {args};")
            continue
        if instruction.name == "measure":
            lines.append(
                f"measure q[{instruction.qubits[0]}] -> c[{instruction.clbits[0]}];"
            )
            continue
        name = _TO_QASM.get(instruction.name, instruction.name)
        if instruction.params:
            params = ",".join(_format_angle(p) for p in instruction.params)
            head = f"{name}({params})"
        else:
            head = name
        args = ",".join(f"q[{q}]" for q in instruction.qubits)
        lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"


def _format_angle(value: float) -> str:
    """Render an angle, preferring exact pi fractions for readability.

    A fraction is written ``pi``, ``pi/d``, ``pi*n`` or ``pi*n/d``; the
    numerator is never glued to ``pi``.
    """
    # Only the numerators next to value * denom / pi can be within 1e-12;
    # trying them in ascending order picks the same fraction a scan over
    # every numerator in -16 * denom..16 * denom would.
    fractions = (1, 2, 3, 4, 6, 8, 16) if abs(value) <= 17 * math.pi else ()
    for denom in fractions:
        nearest = round(value * denom / math.pi)
        for num in (nearest - 1, nearest, nearest + 1):
            if num == 0 or abs(num) > 16 * denom:
                continue
            if math.isclose(value, num * math.pi / denom, rel_tol=0, abs_tol=1e-12):
                scaled = "pi" if num == 1 else f"pi*{num}"
                return scaled if denom == 1 else f"{scaled}/{denom}"
    if math.isclose(value, 0.0, abs_tol=1e-15):
        return "0"
    return repr(value)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

#: QASM spellings that map one-to-one onto a registry gate.
_ALIASES = {
    "u1": "p",
    "u3": "u",
    "cnot": "cx",
    "toffoli": "ccx",
    "phase": "p",
}

#: Longest angle expression accepted.  A ``repr`` float is at most 24
#: characters; the bound keeps the memo small, and keeps every integer
#: an expression can build (below 10**256) convertible to a float.
_MAX_ANGLE_TEXT = 256
#: Deepest nesting of parentheses and unary signs in one angle.
_MAX_ANGLE_DEPTH = 32
#: Largest register a program may declare (``barrier q;`` expands it).
_MAX_REGISTER = 1 << 20

_ANGLE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<op>[-+*/()])|(?P<name>\w+))"
)
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _angle_tokens(text: str) -> List:
    """Numbers (``int`` or ``float``, as Python reads the literal),
    ``math.pi`` for ``pi``, and operator characters as strings."""
    tokens: List = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _ANGLE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ValueError(f"unsupported angle expression: {text!r}")
        number, op, name = match.group("number", "op", "name")
        if number is not None:
            tokens.append(int(number) if number.isdecimal() else float(number))
        elif op is not None:
            tokens.append(op)
        elif name == "pi":
            tokens.append(math.pi)
        else:
            raise ValueError(f"unsupported name {name!r} in angle {text!r}")
        pos = match.end()
    return tokens


@functools.lru_cache(maxsize=1024)
def _angle_value(text: str) -> float:
    """Value of an angle expression: numbers, ``pi``, ``+ - * /``, unary
    signs and parentheses, with Python's operator semantics.

    Exponentiation (``**`` is two stray ``*``), division by zero and
    non-finite values raise :class:`ValueError`.  Memoized on the text:
    a circuit repeats few distinct angles.
    """
    if len(text) > _MAX_ANGLE_TEXT:
        raise ValueError(f"angle longer than {_MAX_ANGLE_TEXT} characters")
    tokens = _angle_tokens(text) + [None]  # None marks the end
    pos = 0

    def fail(reason: str):
        raise ValueError(f"{reason} in angle expression {text!r}")

    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            fail("non-finite value")
        return value

    def chain(operand, ops, depth: int):
        """``operand (op operand)*``, folded left to right."""
        nonlocal pos
        value = operand(depth)
        while tokens[pos] in ops:
            op = tokens[pos]
            pos += 1
            right = operand(depth)
            if op == "/" and right == 0:
                fail("division by zero")
            value = finite(_BINARY[op](value, right))
        return value

    def expression(depth: int):
        return chain(term, ("+", "-"), depth)

    def term(depth: int):
        return chain(unary, ("*", "/"), depth)

    def unary(depth: int):
        nonlocal pos
        if depth > _MAX_ANGLE_DEPTH:
            fail("nesting too deep")
        token = tokens[pos]
        pos += 1
        if token in ("+", "-"):
            value = unary(depth + 1)
            return -value if token == "-" else value
        if token == "(":
            value = expression(depth + 1)
            if tokens[pos] != ")":
                fail("unbalanced parentheses")
            pos += 1
            return value
        if token is None or isinstance(token, str):
            fail(f"unexpected {token or 'end'!r}")
        return finite(token)

    value = expression(0)
    if tokens[pos] is not None:
        fail(f"unexpected {tokens[pos]!r}")
    return finite(float(value))


def _index(arg: str, text: str) -> int:
    """The index of one ``reg[index]`` argument."""
    register, bracket, rest = arg.strip().partition("[")
    if not (bracket and register.strip().isidentifier() and rest.endswith("]")):
        raise ValueError(f"expected reg[index], got {arg.strip()!r} in {text!r}")
    digits = rest[:-1].strip()
    if not digits.isdecimal():
        raise ValueError(f"bad index {digits!r} in {text!r}")
    return int(digits)


def _parse_operands(text: str) -> Tuple[Tuple[int, ...], int, bool]:
    """A comma-separated ``reg[index]`` list: its indices, their maximum
    (-1 for none), and whether they are all distinct."""
    if not text:
        return (), -1, True
    indices = tuple(_index(arg, text) for arg in text.split(","))
    return indices, max(indices), len(set(indices)) == len(indices)


#: :func:`_parse_operands` memoized on operand lists of at most
#: :data:`_MAX_MEMO_OPERANDS` characters: a device has few qubit tuples.
_memo_operands = functools.lru_cache(maxsize=4096)(_parse_operands)
_MAX_MEMO_OPERANDS = 64


def _operands(text: str) -> Tuple[Tuple[int, ...], int, bool]:
    if len(text) <= _MAX_MEMO_OPERANDS:
        return _memo_operands(text)
    return _parse_operands(text)


def _declared_size(text: str, line: str) -> int:
    size = _index(text, line)
    if size > _MAX_REGISTER:
        raise ValueError(f"register of {size} exceeds the limit {_MAX_REGISTER}")
    return size


#: QASM spelling -> (registry name, qubits, parameters) of every gate a
#: statement may name; ``u2`` is rewritten to ``u`` before the lookup.
_GATE_TABLE = {
    name: (name, spec.num_qubits, spec.num_params)
    for name, spec in GATES.items()
    if name not in NON_UNITARY
}
_GATE_TABLE.update(
    (alias, _GATE_TABLE[target]) for alias, target in _ALIASES.items()
)


def _statement_error(line: str) -> ValueError:
    return ValueError(f"cannot parse QASM statement: {line!r}")


def from_qasm(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`.

    One statement per line; ``//`` comments, the ``OPENQASM`` header and
    ``include`` lines are skipped.  Register names are not checked; the
    last ``qreg``/``creg`` declaration sets the circuit's width.  Every
    instruction is validated as :meth:`QuantumCircuit.append` would:
    gate arity, parameter count, qubit and clbit ranges, and duplicate
    qubits.  Any malformed input raises :class:`ValueError`.
    """
    num_qubits = num_clbits = 0
    instructions: List[Instruction] = []
    whole_register_barriers: List[int] = []
    top_qubit = top_clbit = -1
    for line in text.splitlines():
        if "//" in line:
            line = line.split("//", 1)[0]
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include")):
            continue
        if line[-1] != ";":
            raise _statement_error(line)
        paren = line.find("(")
        if paren >= 0:
            close = line.rfind(")")
            if close < paren:
                raise _statement_error(line)
            name = line[:paren].rstrip()
            params_text = line[paren + 1:close]
            args_text = line[close + 1:-1].strip()
        else:
            head = line[:-1].split(None, 1)
            if not head:
                raise _statement_error(line)
            name = head[0]
            args_text = head[1].strip() if len(head) > 1 else ""
            params_text = ""
        name = name.lower()

        gate = _GATE_TABLE.get(name)
        if gate is None:
            if name in ("qreg", "creg") and not params_text:
                if name == "qreg":
                    num_qubits = _declared_size(args_text, line)
                else:
                    num_clbits = _declared_size(args_text, line)
                continue
            if name == "measure" and not params_text:
                source, arrow, target = args_text.partition("->")
                if not arrow:
                    raise _statement_error(line)
                qubit, clbit = _index(source, line), _index(target, line)
                top_qubit = max(top_qubit, qubit)
                top_clbit = max(top_clbit, clbit)
                instructions.append(
                    Instruction("measure", (qubit,), (), (clbit,))
                )
                continue
            if name == "barrier" and not params_text:
                if "[" in args_text:
                    qubits, top, _ = _operands(args_text)
                    top_qubit = max(top_qubit, top)
                elif not args_text or all(
                    reg.strip().isidentifier() for reg in args_text.split(",")
                ):
                    # ``barrier q;`` spans the whole register.
                    whole_register_barriers.append(len(instructions))
                    qubits = ()
                else:
                    raise _statement_error(line)
                instructions.append(Instruction("barrier", qubits))
                continue
            if name != "u2":
                raise ValueError(f"unsupported QASM gate: {name}")
            gate = ("u", 1, 2)  # u2(phi, lam) = u(pi/2, phi, lam)

        qubits, top, distinct = _operands(args_text)
        params = (
            tuple(_angle_value(p.strip()) for p in params_text.split(","))
            if params_text
            else ()
        )
        registry_name, arity, num_params = gate
        if len(qubits) != arity:
            raise ValueError(
                f"gate '{name}' expects {arity} qubits, got {len(qubits)}"
            )
        if len(params) != num_params:
            raise ValueError(
                f"gate '{name}' expects {num_params} params, got {len(params)}"
            )
        if not distinct:
            raise ValueError(f"duplicate qubit arguments in {name}{qubits}")
        if name == "u2":
            params = (math.pi / 2,) + params
        top_qubit = max(top_qubit, top)
        instructions.append(Instruction(registry_name, qubits, params))

    if top_qubit >= num_qubits:
        raise ValueError(f"qubit index {top_qubit} out of range [0, {num_qubits})")
    if top_clbit >= num_clbits:
        raise ValueError(f"clbit index {top_clbit} out of range [0, {num_clbits})")
    if whole_register_barriers:
        # One shared instruction: a whole-register barrier costs O(1) per line.
        everything = Instruction("barrier", tuple(range(num_qubits)))
        for position in whole_register_barriers:
            instructions[position] = everything
    return QuantumCircuit(
        num_qubits, num_clbits, name="from_qasm", instructions=instructions
    )


def qasm_roundtrip_equal(circuit: QuantumCircuit) -> bool:
    """Whether export->import preserves the instruction list exactly."""
    parsed = from_qasm(to_qasm(circuit))
    if parsed.num_qubits != circuit.num_qubits:
        return False
    if len(parsed.instructions) != len(circuit.instructions):
        return False
    for a, b in zip(parsed.instructions, circuit.instructions):
        if a.name != b.name or a.qubits != b.qubits or a.clbits != b.clbits:
            return False
        if len(a.params) != len(b.params):
            return False
        if any(abs(x - y) > 1e-9 for x, y in zip(a.params, b.params)):
            return False
    return True
