"""Established figures of merit (Section II-B).

Four metrics, in the paper's order:

* number of gates (optionally only two-qubit gates),
* circuit depth,
* expected fidelity — the product of all gate and measurement fidelities,
* Estimated Success Probability (ESP) — expected fidelity times the
  idle-time decay factor ``exp(-t_idle / min(T1, T2))`` per qubit.

The hardware-aware metrics read a :class:`~repro.hardware.calibration.Calibration`.
By default they use the device's *reported* snapshot — exactly what a
compiler would see in practice, and the source of the staleness effects the
paper discusses.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..compiler.passes.scheduling import schedule_asap
from ..hardware.calibration import Calibration
from ..hardware.device import Device


def gate_count(circuit: QuantumCircuit, two_qubit_only: bool = False) -> int:
    """Number of gates; with ``two_qubit_only`` count only multi-qubit gates."""
    if two_qubit_only:
        return circuit.num_nonlocal_gates()
    return circuit.size()


def two_qubit_gate_count(circuit: QuantumCircuit) -> int:
    """Number of gates acting on two or more qubits."""
    return circuit.num_nonlocal_gates()


def circuit_depth(circuit: QuantumCircuit) -> int:
    """Longest path length through the circuit graph."""
    return circuit.depth()


def expected_fidelity(
    circuit: QuantumCircuit,
    device: Device,
    calibration: Optional[Calibration] = None,
) -> float:
    """Product of all gate and measurement fidelities in ``[0, 1]``.

    Single-qubit gates use the per-qubit fidelity, two-qubit gates the
    per-edge fidelity, and measurements the per-qubit readout fidelity.
    """
    cal = calibration if calibration is not None else device.reported_calibration
    fidelity = 1.0
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            continue
        if instruction.name == "measure":
            fidelity *= cal.readout_fidelity[instruction.qubits[0]]
        elif instruction.num_qubits == 1:
            fidelity *= cal.one_qubit_fidelity[instruction.qubits[0]]
        elif instruction.num_qubits == 2:
            fidelity *= cal.edge_fidelity(*instruction.qubits)
        else:
            raise ValueError(
                f"expected a compiled circuit; found {instruction.num_qubits}-qubit "
                f"gate '{instruction.name}'"
            )
    return fidelity


def _calibration_fidelity_table(device: Device, cal: Calibration) -> np.ndarray:
    """Every fidelity of ``cal`` in one dense ``(n + 2, n)`` array for
    vectorized scoring, for a device of ``n`` qubits: per-qubit gate
    fidelities in row 0, readout fidelities in row 1 and the fidelity of
    edge ``(a, b)`` at ``[2 + a, b]`` and ``[2 + b, a]``.

    Missing calibration entries become NaN, which
    :func:`expected_fidelity_batch` rejects loudly — mirroring the
    ``KeyError`` the scalar :func:`expected_fidelity` would raise.
    """
    n = device.num_qubits
    table = np.full((n + 2, n), np.nan)
    for qubit, value in cal.one_qubit_fidelity.items():
        table[0, qubit] = value
    for qubit, value in cal.readout_fidelity.items():
        table[1, qubit] = value
    for (a, b), value in cal.two_qubit_fidelity.items():
        table[2 + a, b] = table[2 + b, a] = value
    return table


def _fidelity_factors(circuit, table: np.ndarray) -> np.ndarray:
    """The fidelity factors of ``circuit``'s instructions, in order,
    barriers skipped: the rules of :func:`expected_fidelity`, looked up
    in a :func:`_calibration_fidelity_table`."""
    rows, columns = [], []
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            continue
        qubits = instruction.qubits
        if instruction.name == "measure":
            row, column = 1, qubits[0]
        elif len(qubits) == 1:
            row, column = 0, qubits[0]
        elif len(qubits) == 2:
            row, column = 2 + qubits[0], qubits[1]
        else:
            raise ValueError(
                f"expected a compiled circuit; found {len(qubits)}-qubit "
                f"gate '{instruction.name}'"
            )
        rows.append(row)
        columns.append(column)
    return table[rows, columns]


def expected_fidelity_batch(
    circuits: Sequence[QuantumCircuit],
    device: Device,
    calibration: Optional[Calibration] = None,
) -> np.ndarray:
    """:func:`expected_fidelity` of many compiled circuits in one pass.

    Level-3 trial selection scores every candidate; this gathers all
    per-gate fidelities from one dense calibration table and reduces
    every circuit's product in a single ``multiply.reduceat`` sweep.  The
    products fold left-to-right over the same factors as the scalar
    version, so results are bit-identical to calling
    :func:`expected_fidelity` per circuit.  Anything with an
    ``instructions`` sequence is scored as a circuit: a level-3 trial set
    keeps its candidates as compile-cache snapshot entries
    (:class:`~repro.compiler.cache.CachedPassResult`), scored without
    rebuilding them.
    """
    cal = calibration if calibration is not None else device.reported_calibration
    if not circuits:
        return np.empty(0)
    table = _calibration_fidelity_table(device, cal)
    per_circuit = [_fidelity_factors(circuit, table) for circuit in circuits]

    lengths = np.array([len(v) for v in per_circuit])
    results = np.ones(len(circuits))
    nonempty = lengths > 0
    if nonempty.any():
        all_values = np.concatenate([v for v in per_circuit if len(v)])
        if np.isnan(all_values).any():
            raise KeyError(
                "circuit touches a qubit or edge with no calibration entry"
            )
        starts = np.concatenate(([0], np.cumsum(lengths[nonempty])[:-1]))
        results[nonempty] = np.multiply.reduceat(all_values, starts)
    return results


def esp(
    circuit: QuantumCircuit,
    device: Device,
    calibration: Optional[Calibration] = None,
) -> float:
    """Estimated Success Probability [Murali et al. 2020].

    ``ESP = expected_fidelity * prod_q exp(-t_idle(q) / min(T1(q), T2(q)))``
    where ``t_idle(q)`` is qubit ``q``'s idle time under an ASAP schedule
    with the calibration's durations.
    """
    cal = calibration if calibration is not None else device.reported_calibration
    fidelity = expected_fidelity(circuit, device, calibration=cal)
    return fidelity * esp_decay_factor(circuit, device, calibration=cal)


def esp_decay_factor(
    circuit: QuantumCircuit,
    device: Device,
    calibration: Optional[Calibration] = None,
) -> float:
    """Only the relaxation term of ESP (for the staleness ablation)."""
    cal = calibration if calibration is not None else device.reported_calibration
    schedule = schedule_asap(circuit, cal.durations)
    decay = 1.0
    for qubit, idle in schedule.idle_times().items():
        decay *= math.exp(-idle / cal.min_relaxation(qubit))
    return decay


#: The established figures of merit evaluated in Table I, in paper order.
#: Each entry maps a display name to ``(function, higher_is_better)``.
ESTABLISHED_FOMS = {
    "Number of gates": (lambda circuit, device: float(gate_count(circuit)), False),
    "Circuit depth": (lambda circuit, device: float(circuit_depth(circuit)), False),
    "Expected fidelity": (expected_fidelity, True),
    "ESP": (esp, True),
}

#: Table I row labels, in paper order — the one source every surface
#: (study tables, FomService panels, the predict CLI) draws from.
FOM_ORDER = list(ESTABLISHED_FOMS)
PROPOSED_LABEL = "Proposed approach"
