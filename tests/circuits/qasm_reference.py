"""The pre-tokenizer OpenQASM reader, frozen as a test reference.

This is the regex- and ``eval``-based ``from_qasm`` the library shipped
before :func:`repro.circuits.qasm.from_qasm` became a single-pass
tokenizer, kept verbatim.  The cross-check tests require the production
reader to build identical instructions on every input this one accepts
correctly.  Do not fix it: it is the baseline, bugs included (``pi3/4``
reads as the literal ``3.1415926535897933/4``, and ``**`` reaches
``eval``).
"""

from __future__ import annotations

import math
import re
from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES

_FROM_QASM = {
    "u1": ("p", 1),
    "u2": ("u2", 2),
    "u3": ("u", 3),
    "cnot": ("cx", 0),
    "toffoli": ("ccx", 0),
    "phase": ("p", 1),
}


_STATEMENT_RE = re.compile(
    r"^\s*(?P<name>[a-zA-Z_][\w]*)\s*"
    r"(\((?P<params>[^)]*)\))?\s*"
    r"(?P<args>[^;]*);\s*$"
)
_QREG_RE = re.compile(r"^\s*qreg\s+(\w+)\[(\d+)\]\s*;\s*$")
_CREG_RE = re.compile(r"^\s*creg\s+(\w+)\[(\d+)\]\s*;\s*$")
_MEASURE_RE = re.compile(
    r"^\s*measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\]\s*;\s*$"
)
_INDEX_RE = re.compile(r"(\w+)\[(\d+)\]")


def _eval_angle(expr: str) -> float:
    """Evaluate a restricted arithmetic expression with ``pi``."""
    expr = expr.strip().replace("pi", repr(math.pi))
    if not re.fullmatch(r"[\d\.\+\-\*/\(\)eE\s]+", expr):
        raise ValueError(f"unsupported angle expression: {expr!r}")
    return float(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - sanitized


def from_qasm(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`."""
    num_qubits = 0
    num_clbits = 0
    body: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        if line.startswith(("OPENQASM", "include")):
            continue
        qreg = _QREG_RE.match(line)
        if qreg:
            num_qubits = int(qreg.group(2))
            continue
        creg = _CREG_RE.match(line)
        if creg:
            num_clbits = int(creg.group(2))
            continue
        body.append(line)

    circuit = QuantumCircuit(num_qubits, num_clbits, name="from_qasm")
    for line in body:
        measure = _MEASURE_RE.match(line)
        if measure:
            circuit.measure(int(measure.group(2)), int(measure.group(4)))
            continue
        match = _STATEMENT_RE.match(line)
        if not match:
            raise ValueError(f"cannot parse QASM statement: {line!r}")
        name = match.group("name").lower()
        params_text = match.group("params")
        args_text = match.group("args")
        qubits = [int(m.group(2)) for m in _INDEX_RE.finditer(args_text)]
        params = (
            [_eval_angle(p) for p in params_text.split(",")] if params_text else []
        )
        if name == "barrier":
            circuit.barrier(*qubits)
            continue
        name, params = _translate_gate(name, params)
        circuit.append(name, qubits, params)
    return circuit


def _translate_gate(name: str, params: List[float]):
    """Map a QASM gate spelling to the registry vocabulary."""
    if name in _FROM_QASM:
        target, arity = _FROM_QASM[name]
        if target == "u2":  # u2(phi, lam) = u(pi/2, phi, lam)
            return "u", [math.pi / 2, params[0], params[1]]
        if len(params) != arity:
            raise ValueError(f"gate {name} expects {arity} params")
        return target, params
    if name not in GATES:
        raise ValueError(f"unsupported QASM gate: {name}")
    return name, params
