"""Dense noiseless statevector simulation.

This is the substrate the paper uses (via Qiskit Aer) to obtain the *true*
output distribution of every benchmark circuit.  Gate application is
delegated to the shared tensor kernels in :mod:`repro.simulation.kernels`:
each gate is one einsum contraction over the target qubit axes, runs of
single-qubit gates are fused into the next entangling gate, and matrices
are memoized — so the simulator comfortably handles the paper's 2-20 qubit
range at dataset-generation throughput.

Bit convention: index ``i`` of the state vector has qubit ``k`` in the bit
``(i >> k) & 1`` — qubit 0 is the least-significant bit, matching Qiskit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from functools import lru_cache

from ..circuits.circuit import QuantumCircuit
from .kernels import apply_matrix, circuit_plan, execute_plan

_MAX_DENSE_QUBITS = 26

#: Probabilities below this are dropped from distribution dicts.
_PROB_CUTOFF = 1e-14


class Statevector:
    """A mutable ``2**n`` statevector with gate application kernels."""

    def __init__(
        self,
        num_qubits: int,
        data: np.ndarray | None = None,
        dtype=np.complex128,
    ):
        if num_qubits < 0 or num_qubits > _MAX_DENSE_QUBITS:
            raise ValueError(
                f"num_qubits must be in [0, {_MAX_DENSE_QUBITS}], got {num_qubits}"
            )
        self.num_qubits = num_qubits
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError("dtype must be complex64 or complex128")
        dim = 1 << num_qubits
        if data is None:
            self.data = np.zeros(dim, dtype=self.dtype)
            self.data[0] = 1.0
        else:
            data = np.asarray(data, dtype=self.dtype).reshape(dim)
            self.data = data.copy()

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.data, dtype=self.dtype)

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2**k x 2**k`` unitary to the given qubits in place.

        ``qubits[0]`` corresponds to the least-significant bit of the matrix
        index (the registry convention).
        """
        if matrix.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        self.data = apply_matrix(self.data, matrix, qubits, self.num_qubits)

    def probabilities(self) -> np.ndarray:
        """Probability of each computational-basis state."""
        real, imag = self.data.real, self.data.imag
        return real * real + imag * imag

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Marginal distribution over a subset of qubits.

        Output index bit ``m`` corresponds to ``qubits[m]``.
        """
        if list(qubits) == list(range(self.num_qubits)):
            # Identity layout: the flat probabilities already have output
            # bit m = qubit m.
            return self.probabilities()
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        keep_axes = [self.num_qubits - 1 - q for q in qubits]
        drop_axes = tuple(
            axis for axis in range(self.num_qubits) if axis not in keep_axes
        )
        if drop_axes:
            probs = probs.sum(axis=drop_axes)
        # Remaining axes are ordered by original axis index (descending qubit).
        kept_sorted = sorted(keep_axes)
        # Reorder so that qubits[m] maps to output bit m (axis order:
        # most-significant first == reversed(qubits)).
        desired = [kept_sorted.index(axis) for axis in
                   (self.num_qubits - 1 - q for q in reversed(qubits))]
        probs = np.transpose(probs, desired)
        return probs.reshape(-1)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on ``qubit``."""
        probs = self.marginal_probabilities([qubit])
        return float(probs[0] - probs[1])

    def fidelity(self, other: "Statevector") -> float:
        """State fidelity ``|<self|other>|^2``."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit count mismatch")
        return float(abs(np.vdot(self.data, other.data)) ** 2)


def simulate_statevector(
    circuit: QuantumCircuit, dtype=np.complex128
) -> Statevector:
    """Run ``circuit`` (ignoring measures/barriers) and return the final state.

    Gates are fused (runs of single-qubit gates folded into one matrix and
    absorbed into adjacent two-qubit gates) before application, so the cost
    scales with the entangling-gate count rather than the raw gate count.

    ``dtype=numpy.complex64`` halves memory traffic; the resulting
    distribution error (~1e-6 for thousand-gate circuits) is far below shot
    noise, so the bulk study uses it.
    """
    state = Statevector(circuit.num_qubits, dtype=dtype)
    plan = circuit_plan(circuit, dtype=dtype)
    state.data = execute_plan(state.data, plan, circuit.num_qubits)
    if circuit.global_phase:
        state.data = state.data * np.exp(1j * circuit.global_phase).astype(
            dtype
        )
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Full ``2**n x 2**n`` unitary of the circuit (small circuits only).

    Column ``j`` is the state produced from input basis state ``j``.  All
    columns evolve simultaneously: the identity matrix is treated as a batch
    of ``2**n`` statevectors and every fused gate is applied as one
    contraction with a trailing batch axis.
    """
    n = circuit.num_qubits
    if n > 12:
        raise ValueError("circuit_unitary is limited to 12 qubits")
    dim = 1 << n
    out = np.eye(dim, dtype=complex)
    out = execute_plan(out, circuit_plan(circuit), n, tail=dim)
    if circuit.global_phase:
        out = out * np.exp(1j * circuit.global_phase)
    return out


def _measurement_layout(
    circuit: QuantumCircuit,
) -> Tuple[List[int], int, List[int]]:
    """Resolve ``(qubits, width, positions)`` of the output register.

    Measured clbits define the output: bit ``positions[m]`` of the output
    string is the measured value of ``qubits[m]``.  Circuits without
    measurements report all qubits in qubit order.
    """
    pairs = circuit.measured_qubits()
    if pairs:
        measured_qubits = [qubit for qubit, _ in pairs]
        if len(set(measured_qubits)) != len(measured_qubits):
            raise ValueError(
                "a qubit is measured more than once; terminal measurements "
                "must be unique per qubit"
            )
        clbit_for = {}
        for qubit, clbit in pairs:
            clbit_for[clbit] = qubit
        clbits = sorted(clbit_for)
        qubits = [clbit_for[c] for c in clbits]
        width = max(clbits) + 1
        positions = clbits
    else:
        qubits = list(range(circuit.num_qubits))
        width = circuit.num_qubits
        positions = list(range(width))
    return qubits, width, positions


def _bitstring_keys(indices: np.ndarray, width: int) -> List[str]:
    """Vectorized big-endian bitstring rendering of integer outcomes."""
    if width == 0:
        return ["" for _ in range(len(indices))]
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = (indices[:, None] >> shifts) & 1
    chars = (bits + ord("0")).astype(np.uint8)
    flat = chars.tobytes().decode("ascii")
    return [flat[i:i + width] for i in range(0, len(flat), width)]


#: Widths whose complete bitstring tables are memoized (64k strings max).
_KEY_TABLE_MAX_WIDTH = 16


@lru_cache(maxsize=_KEY_TABLE_MAX_WIDTH + 1)
def _key_table(width: int) -> Tuple[str, ...]:
    """All ``2**width`` bitstrings, index-ordered (for small widths).

    Built by doubling — ``table(w) = ['0'+s, then '1'+s for s in
    table(w-1)]`` — which is several times faster than rendering 2**w
    strings from scratch.
    """
    if width == 1:
        return ("0", "1")
    half = _key_table(width - 1)
    return tuple(prefix + s for prefix in ("0", "1") for s in half)


def bitstring_keys(indices: np.ndarray, width: int) -> Sequence[str]:
    """Big-endian bitstrings of integer outcomes, table-backed when small."""
    if 0 < width <= _KEY_TABLE_MAX_WIDTH:
        table = _key_table(width)
        if len(indices) == len(table) and np.array_equal(
            indices, np.arange(len(table))
        ):
            return table
        return [table[i] for i in np.asarray(indices).tolist()]
    return _bitstring_keys(indices, width)


def ideal_distribution(
    circuit: QuantumCircuit, dtype=np.complex128
) -> Dict[str, float]:
    """The circuit's noiseless measurement distribution as a bitstring dict.

    Measured clbits define the output register: bit ``c`` of the output
    string is the measured value of the qubit mapped to clbit ``c``.  If the
    circuit has no measurements, all qubits are reported in qubit order.
    Bitstrings are big-endian (clbit 0 is the right-most character), matching
    Qiskit's counts convention.
    """
    state = simulate_statevector(circuit, dtype=dtype)
    qubits, width, positions = _measurement_layout(circuit)
    marginal = state.marginal_probabilities(qubits)
    support = np.flatnonzero(marginal >= _PROB_CUTOFF)
    if len(support) == len(marginal):
        probs = marginal
    else:
        probs = marginal[support]
    if positions == list(range(width)):
        out_index = support
    else:
        # Scatter marginal bit m to output bit positions[m].  The map is
        # injective (positions are distinct), so no aggregation needed.
        out_index = np.zeros(len(support), dtype=np.int64)
        for m, pos in enumerate(positions):
            out_index |= ((support >> m) & 1) << pos
    keys = bitstring_keys(out_index, width)
    return dict(zip(keys, np.asarray(probs, dtype=float).tolist()))


def sample_counts(
    distribution: Dict[str, float],
    shots: int,
    rng: np.random.Generator,
) -> Dict[str, int]:
    """Sample ``shots`` outcomes from a bitstring probability dict.

    Vectorized: one cumulative-distribution table and a single batch of
    uniform draws, binned with ``searchsorted`` — no per-shot Python work.
    """
    keys = sorted(distribution)
    probs = np.array([distribution[k] for k in keys], dtype=float)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        probs = probs / total
    draws = sample_indices(probs, shots, rng)
    counts = np.bincount(draws, minlength=len(keys))
    return {k: int(c) for k, c in zip(keys, counts) if c > 0}


def sample_indices(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` category indices from ``probs`` via one CDF lookup."""
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)  # guard against round-off at the tail
    return np.searchsorted(cdf, rng.random(shots), side="right")
