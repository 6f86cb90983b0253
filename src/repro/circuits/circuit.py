"""The :class:`QuantumCircuit` intermediate representation.

A circuit is an ordered list of :class:`Instruction` objects over ``n``
qubits and ``m`` classical bits, plus a global phase.  The builder API
mirrors the common gate names (``circuit.h(0)``, ``circuit.cx(0, 1)``, ...)
so that algorithm generators and compiler passes read naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gates import NON_UNITARY, get_spec


_setattr = object.__setattr__


class Instruction:
    """One immutable operation in a circuit, equal by value.

    Attributes:
        name: gate name (must be registered in :data:`repro.circuits.gates.GATES`).
        qubits: qubit indices the operation acts on, in argument order.
        params: float gate parameters.
        clbits: classical bit indices (only used by ``measure``).

    A slotted class rather than a dataclass: a compiled circuit holds one
    instance per gate, and caches hold many circuits, so each instance
    is built without a ``__dict__``.  Setting or deleting an attribute
    raises ``AttributeError``.
    """

    __slots__ = ("name", "qubits", "params", "clbits", "_hash")

    def __init__(
        self,
        name: str,
        qubits: Tuple[int, ...],
        params: Tuple[float, ...] = (),
        clbits: Tuple[int, ...] = (),
    ) -> None:
        _setattr(self, "name", name)
        _setattr(self, "qubits", qubits)
        _setattr(self, "params", params)
        _setattr(self, "clbits", clbits)
        # Precomputed content hash: instructions are hashed in bulk by
        # :func:`circuit_cache_fingerprint`, so paying the tuple hash once
        # at construction keeps those hot.
        _setattr(self, "_hash", hash((name, qubits, params, clbits)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Instruction:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.name == other.name
            and self.qubits == other.qubits
            and self.params == other.params
            and self.clbits == other.clbits
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_unitary(self) -> bool:
        return self.name not in NON_UNITARY

    def inverse(self) -> "Instruction":
        """The inverse instruction (same qubits)."""
        if not self.is_unitary:
            raise ValueError(f"cannot invert non-unitary instruction '{self.name}'")
        inv_name, inv_params = get_spec(self.name).inverse(self.params)
        return Instruction(inv_name, self.qubits, tuple(inv_params))

    def remap(self, mapping: Dict[int, int]) -> "Instruction":
        """Return a copy with qubits remapped through ``mapping``."""
        return Instruction(
            self.name,
            tuple(mapping[q] for q in self.qubits),
            self.params,
            self.clbits,
        )

    def __reduce__(self):
        # Rebuild through __init__ so the precomputed ``_hash`` is
        # recomputed in the destination interpreter: ``hash(str)`` is
        # salted per process, so a hash pickled from another process
        # would break equal-objects-equal-hash there.
        return (Instruction, (self.name, self.qubits, self.params, self.clbits))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.name, str(list(self.qubits))]
        if self.params:
            parts.append(f"params={list(self.params)}")
        if self.clbits:
            parts.append(f"clbits={list(self.clbits)}")
        return f"Instruction({', '.join(parts)})"


@dataclass
class QuantumCircuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` classical bits."""

    num_qubits: int
    num_clbits: int = 0
    name: str = "circuit"
    global_phase: float = 0.0
    instructions: List[Instruction] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        if self.num_clbits < 0:
            raise ValueError("num_clbits must be non-negative")

    # ------------------------------------------------------------------
    # Core mutation
    # ------------------------------------------------------------------

    def append(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[float] = (),
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append an operation, validating arity and index bounds."""
        spec = get_spec(name)
        qubits = tuple(int(q) for q in qubits)
        params = tuple(float(p) for p in params)
        clbits = tuple(int(c) for c in clbits)
        if name != "barrier" and len(qubits) != spec.num_qubits:
            raise ValueError(
                f"gate '{name}' expects {spec.num_qubits} qubits, got {len(qubits)}"
            )
        if len(params) != spec.num_params:
            raise ValueError(
                f"gate '{name}' expects {spec.num_params} params, got {len(params)}"
            )
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit index {q} out of range [0, {self.num_qubits})")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit arguments in {name}{qubits}")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise ValueError(f"clbit index {c} out of range [0, {self.num_clbits})")
        self.instructions.append(Instruction(name, qubits, params, clbits))
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an existing :class:`Instruction` (re-validated)."""
        return self.append(
            instruction.name, instruction.qubits, instruction.params, instruction.clbits
        )

    # ------------------------------------------------------------------
    # Builder API (one method per registered gate)
    # ------------------------------------------------------------------

    def i(self, qubit: int) -> "QuantumCircuit":
        return self.append("id", (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append("x", (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append("y", (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append("z", (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append("h", (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append("s", (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sdg", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append("t", (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("tdg", (qubit,))

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append("sx", (qubit,))

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sxdg", (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("rx", (qubit,), (theta,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("ry", (qubit,), (theta,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append("rz", (qubit,), (theta,))

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append("p", (qubit,), (lam,))

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append("u", (qubit,), (theta, phi, lam))

    def prx(self, theta: float, phi: float, qubit: int) -> "QuantumCircuit":
        return self.append("prx", (qubit,), (theta, phi))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cx", (control, target))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cy", (control, target))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cz", (control, target))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("ch", (control, target))

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("swap", (qubit_a, qubit_b))

    def iswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("iswap", (qubit_a, qubit_b))

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("cp", (control, target), (lam,))

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("crx", (control, target), (theta,))

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("cry", (control, target), (theta,))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append("crz", (control, target), (theta,))

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("rxx", (qubit_a, qubit_b), (theta,))

    def ryy(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("ryy", (qubit_a, qubit_b), (theta,))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("rzz", (qubit_a, qubit_b), (theta,))

    def rzx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append("rzx", (qubit_a, qubit_b), (theta,))

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.append("ccx", (control_a, control_b, target))

    def ccz(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.append("ccz", (control_a, control_b, target))

    def cswap(self, control: int, target_a: int, target_b: int) -> "QuantumCircuit":
        return self.append("cswap", (control, target_a, target_b))

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self.append("measure", (qubit,), clbits=(clbit,))

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the classical bit of the same index.

        Grows the classical register to ``num_qubits`` if needed.
        """
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """A scheduling barrier on the given qubits (all qubits if none given)."""
        targets = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        for q in targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit index {q} out of range")
        self.instructions.append(Instruction("barrier", targets))
        return self

    # ------------------------------------------------------------------
    # Composite builders (decomposed into elementary gates)
    # ------------------------------------------------------------------

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled X without ancilla qubits.

        Uses ``MCX = H(target) . MCZ . H(target)`` with the Gray-code
        multi-controlled-phase network, costing ``O(2^k)`` two-qubit gates
        for ``k`` controls — the realistic ancilla-free scaling.
        """
        controls = list(controls)
        if target in controls:
            raise ValueError("target must not be a control")
        if len(controls) == 0:
            return self.x(target)
        if len(controls) == 1:
            return self.cx(controls[0], target)
        if len(controls) == 2:
            return self.ccx(controls[0], controls[1], target)
        self.h(target)
        self.mcp(math.pi, controls, target)
        self.h(target)
        return self

    def mcp(self, lam: float, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled phase gate via the Gray-code network (N&C 4.3).

        Walks the Gray code over the control register, applying
        ``cp(+/- lam / 2^(k-1))`` between the highest active control and the
        target, with CX gates folding parities between controls.  Exact for
        every control count; cost ``O(2^k)``.
        """
        controls = list(controls)
        if target in controls:
            raise ValueError("target must not be a control")
        if len(controls) == 0:
            return self.p(lam, target)
        if len(controls) == 1:
            return self.cp(lam, controls[0], target)
        k = len(controls)
        angle = lam / (1 << (k - 1))
        gray = [i ^ (i >> 1) for i in range(1 << k)]
        last_pattern = 0
        for pattern in gray[1:]:
            msb = pattern.bit_length() - 1
            changed = (pattern ^ last_pattern).bit_length() - 1
            if changed != msb:
                self.cx(controls[changed], controls[msb])
            else:
                # A new most-significant control activated: rebuild the
                # pattern's parity onto it from the other active controls.
                for idx in range(msb):
                    if (pattern >> idx) & 1:
                        self.cx(controls[idx], controls[msb])
            if bin(pattern).count("1") % 2 == 0:
                self.cp(-angle, controls[msb], target)
            else:
                self.cp(angle, controls[msb], target)
            last_pattern = pattern
        return self

    def mcz(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled Z via ``mcp(pi)``."""
        controls = list(controls)
        if len(controls) == 2:
            return self.ccz(controls[0], controls[1], target)
        return self.mcp(math.pi, controls, target)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """A deep-enough copy (instructions are immutable)."""
        return QuantumCircuit(
            num_qubits=self.num_qubits,
            num_clbits=self.num_clbits,
            name=name or self.name,
            global_phase=self.global_phase,
            instructions=list(self.instructions),
            metadata=dict(self.metadata),
        )

    def to_arrays(self) -> Dict[str, object]:
        """Flat-array encoding of the circuit (cheap pickling support).

        Mirrors the flat-node idiom of
        :meth:`repro.ml.tree.DecisionTreeRegressor.to_arrays`: the
        instruction list flattens into a gate-name vocabulary plus
        parallel code/count/value arrays, so shipping a circuit to a
        worker process costs a handful of numpy buffers instead of one
        Python object per instruction.  Feed the result to
        :meth:`from_arrays` to reconstruct an identical circuit.
        """
        vocab: Dict[str, int] = {}
        codes: List[int] = []
        q_counts: List[int] = []
        p_counts: List[int] = []
        c_counts: List[int] = []
        q_flat: List[int] = []
        p_flat: List[float] = []
        c_flat: List[int] = []
        for instruction in self.instructions:
            codes.append(vocab.setdefault(instruction.name, len(vocab)))
            q_counts.append(len(instruction.qubits))
            q_flat.extend(instruction.qubits)
            p_counts.append(len(instruction.params))
            p_flat.extend(instruction.params)
            c_counts.append(len(instruction.clbits))
            c_flat.extend(instruction.clbits)
        return {
            "num_qubits": self.num_qubits,
            "num_clbits": self.num_clbits,
            "name": self.name,
            "global_phase": self.global_phase,
            "metadata": dict(self.metadata),
            "gate_names": tuple(vocab),
            "codes": np.asarray(codes, dtype=np.int32),
            "qubit_counts": np.asarray(q_counts, dtype=np.int32),
            "qubits": np.asarray(q_flat, dtype=np.int32),
            "param_counts": np.asarray(p_counts, dtype=np.int32),
            "params": np.asarray(p_flat, dtype=np.float64),
            "clbit_counts": np.asarray(c_counts, dtype=np.int32),
            "clbits": np.asarray(c_flat, dtype=np.int32),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, object]) -> "QuantumCircuit":
        """Rebuild a circuit from :meth:`to_arrays` output.

        The rebuilt instructions are bit-identical to the originals
        (names, integer indices, and float64 parameters all round-trip
        exactly); validation is skipped because the encoder only emits
        circuits that already passed it.  Equal qubit tuples are one
        shared tuple object, so a decoded circuit holds one per qubit or
        coupler it touches rather than one per gate.
        """
        gate_names = arrays["gate_names"]
        codes = np.asarray(arrays["codes"]).tolist()
        q_counts = np.asarray(arrays["qubit_counts"]).tolist()
        p_counts = np.asarray(arrays["param_counts"]).tolist()
        c_counts = np.asarray(arrays["clbit_counts"]).tolist()
        # Tuples, so a slice is the field itself (an empty one is ``()``).
        q_flat = tuple(np.asarray(arrays["qubits"]).tolist())
        p_flat = tuple(np.asarray(arrays["params"]).tolist())
        c_flat = tuple(np.asarray(arrays["clbits"]).tolist())
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        instructions: List[Instruction] = []
        qi = pi = ci = 0
        for code, nq, npar, nc in zip(codes, q_counts, p_counts, c_counts):
            qubits = q_flat[qi:qi + nq]
            instructions.append(
                Instruction(
                    gate_names[code],
                    shared.setdefault(qubits, qubits),
                    p_flat[pi:pi + npar],
                    c_flat[ci:ci + nc],
                )
            )
            qi += nq
            pi += npar
            ci += nc
        return cls(
            num_qubits=int(arrays["num_qubits"]),
            num_clbits=int(arrays["num_clbits"]),
            name=str(arrays["name"]),
            global_phase=float(arrays["global_phase"]),
            instructions=instructions,
            metadata=dict(arrays["metadata"]),
        )

    def __reduce__(self):
        # Pickle through the flat-array encoding: process-pool payloads
        # (and anything else that pickles circuits) ship numpy buffers
        # instead of per-instruction objects, and instruction hashes are
        # recomputed under the destination interpreter's hash salt.
        return (_rebuild_circuit, (type(self), self.to_arrays()))

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (fails on measure; barriers are preserved)."""
        inv = QuantumCircuit(
            self.num_qubits, self.num_clbits,
            name=f"{self.name}_dg", global_phase=-self.global_phase,
        )
        for instruction in reversed(self.instructions):
            if instruction.name == "barrier":
                inv.instructions.append(instruction)
            else:
                inv.instructions.append(instruction.inverse())
        return inv

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
    ) -> "QuantumCircuit":
        """Append ``other`` onto ``self`` (in place), remapping its bits.

        Args:
            other: circuit to append.
            qubits: target qubits for ``other``'s qubits (defaults to identity).
            clbits: target clbits for ``other``'s clbits (defaults to identity).
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        if len(qubits) != other.num_qubits:
            raise ValueError("qubit mapping length mismatch")
        if len(clbits) != other.num_clbits:
            raise ValueError("clbit mapping length mismatch")
        qubit_map = {i: int(q) for i, q in enumerate(qubits)}
        clbit_map = {i: int(c) for i, c in enumerate(clbits)}
        for instruction in other.instructions:
            mapped = Instruction(
                instruction.name,
                tuple(qubit_map[q] for q in instruction.qubits),
                instruction.params,
                tuple(clbit_map[c] for c in instruction.clbits),
            )
            if instruction.name == "barrier":
                self.instructions.append(mapped)
            else:
                self.append_instruction(mapped)
        self.global_phase += other.global_phase
        return self

    def power(self, exponent: int) -> "QuantumCircuit":
        """Repeat the circuit ``exponent`` times (inverse if negative)."""
        base = self if exponent >= 0 else self.inverse()
        out = QuantumCircuit(self.num_qubits, self.num_clbits,
                             name=f"{self.name}^{exponent}")
        for _ in range(abs(exponent)):
            out.compose(base)
        return out

    def remap_qubits(self, mapping: Dict[int, int],
                     num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a new circuit with qubit ``q`` relabelled ``mapping[q]``."""
        out = QuantumCircuit(
            num_qubits if num_qubits is not None else self.num_qubits,
            self.num_clbits,
            name=self.name,
            global_phase=self.global_phase,
            metadata=dict(self.metadata),
        )
        for instruction in self.instructions:
            out.instructions.append(instruction.remap(mapping))
        return out

    def without_directives(self) -> "QuantumCircuit":
        """A copy with measures and barriers stripped (for unitary checks)."""
        out = self.copy()
        out.instructions = [
            ins for ins in self.instructions if ins.is_unitary
        ]
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation names."""
        counts: Dict[str, int] = {}
        for instruction in self.instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def size(self, include_directives: bool = False) -> int:
        """Number of gates (directives excluded by default)."""
        if include_directives:
            return len(self.instructions)
        return sum(1 for ins in self.instructions if ins.is_unitary)

    def num_nonlocal_gates(self) -> int:
        """Number of unitary gates acting on two or more qubits."""
        return sum(
            1 for ins in self.instructions
            if ins.is_unitary and ins.num_qubits >= 2
        )

    def depth(self, include_measure: bool = True) -> int:
        """Longest path length through the circuit (barriers excluded)."""
        frontier = [0] * max(self.num_qubits, 1)
        cl_frontier = [0] * max(self.num_clbits, 1)
        depth = 0
        for instruction in self.instructions:
            if instruction.name == "barrier":
                continue
            if instruction.name == "measure" and not include_measure:
                continue
            level = max(frontier[q] for q in instruction.qubits)
            if instruction.clbits:
                level = max(level, max(cl_frontier[c] for c in instruction.clbits))
            level += 1
            for q in instruction.qubits:
                frontier[q] = level
            for c in instruction.clbits:
                cl_frontier[c] = level
            depth = max(depth, level)
        return depth

    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits touched by at least one non-barrier operation."""
        seen = set()
        for instruction in self.instructions:
            if instruction.name == "barrier":
                continue
            seen.update(instruction.qubits)
        return tuple(sorted(seen))

    def measured_qubits(self) -> Tuple[Tuple[int, int], ...]:
        """All ``(qubit, clbit)`` measurement pairs, in order."""
        return tuple(
            (ins.qubits[0], ins.clbits[0])
            for ins in self.instructions
            if ins.name == "measure"
        )

    def two_qubit_interactions(self) -> Dict[Tuple[int, int], int]:
        """Histogram of (sorted) qubit pairs coupled by multi-qubit gates."""
        pairs: Dict[Tuple[int, int], int] = {}
        for instruction in self.instructions:
            if not instruction.is_unitary or instruction.num_qubits < 2:
                continue
            qubits = instruction.qubits
            for i in range(len(qubits)):
                for j in range(i + 1, len(qubits)):
                    key = tuple(sorted((qubits[i], qubits[j])))
                    pairs[key] = pairs.get(key, 0) + 1
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, size={self.size()}, depth={self.depth()})"
        )

    def draw(self) -> str:
        """ASCII rendering (delegates to :mod:`repro.circuits.text_drawer`)."""
        from .text_drawer import draw_circuit

        return draw_circuit(self)


def _rebuild_circuit(cls, arrays) -> "QuantumCircuit":
    """Pickle target for :meth:`QuantumCircuit.__reduce__`."""
    return cls.from_arrays(arrays)


def circuit_from_instructions(
    num_qubits: int,
    instructions: Iterable[Instruction],
    num_clbits: int = 0,
    name: str = "circuit",
    global_phase: float = 0.0,
) -> QuantumCircuit:
    """Build a circuit directly from an instruction iterable (validated)."""
    circuit = QuantumCircuit(num_qubits, num_clbits, name=name,
                             global_phase=global_phase)
    for instruction in instructions:
        if instruction.name == "barrier":
            circuit.instructions.append(instruction)
        else:
            circuit.append_instruction(instruction)
    return circuit


def circuit_cache_fingerprint(circuit: QuantumCircuit) -> Tuple:
    """Content fingerprint of a circuit: the key of every circuit memo.

    The compile cache, the served feature rows and the simulator's plan
    and profile memos all key on it.  Instructions are immutable and
    pre-hashed, so the tuple hash is cheap; the widths keep
    equal-instruction circuits of different sizes apart, and the length
    shrinks the collision surface.
    """
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        circuit.global_phase,
        len(circuit.instructions),
        hash(tuple(circuit.instructions)),
    )


#: Stride between the per-circuit seed streams of a batch (prime, so
#: overlapping batches decorrelate quickly); compilation and execution
#: share it.
SEED_STRIDE = 7919


def batch_seeds(
    seed: int, positions: Sequence[int], seeds: Optional[Sequence[int]] = None
) -> Sequence[int]:
    """Per-circuit seeds of a batch: ``seeds`` when given (one per
    position), else the circuit at position ``i`` gets
    ``seed + SEED_STRIDE * i``."""
    if seeds is None:
        return [seed + SEED_STRIDE * position for position in positions]
    if len(seeds) != len(positions):
        raise ValueError("seeds must match circuits in length")
    return seeds
