"""Vectorized gate-application kernels shared by every simulator.

This module is the single hot path of the reproduction: statevector
simulation and full-unitary construction both funnel their gate
applications through it.  Four ideas carry the speedup:

1. **Tensor contractions instead of slice arithmetic.**  The state is
   viewed as an ``n``-axis tensor; each gate moves its target qubit axes to
   the front and applies the unitary as one BLAS matmul over the flattened
   remainder — a single pass over the state with no per-slice temporaries.
   Diagonal gates short-circuit to in-place scalings, and pure SWAPs are
   free axis relabelings.

2. **Lazy axis permutation.**  Inside a simulation run the engine never
   moves axes back after a contraction; it tracks which axis currently
   holds which qubit and restores canonical order once, at the end.  This
   halves the memory traffic of every entangling gate.

3. **Adjacent-gate fusion.**  Runs of single-qubit gates on the same wire
   are folded into one 2x2 matrix, and pending 1q matrices are absorbed
   into the next two-qubit gate touching their wire, so a fused circuit
   performs roughly one contraction per *entangling* gate.  The fused,
   compiled plan is memoized by circuit content (:func:`circuit_plan`).

4. **Matrix caching.**  Gate matrices are memoized on ``(name, params)``;
   parameterized rotations in loops (QFT's controlled phases, random
   circuits' Euler angles) stop rebuilding identical 2x2/4x4 arrays.

Bit convention matches the registry: for a gate applied to ``qubits``,
``qubits[0]`` is the least-significant bit of the matrix index, and state
index ``i`` holds qubit ``k`` in bit ``(i >> k) & 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import circuit_cache_fingerprint
from ..circuits.gates import SWAP_MATRIX, cached_gate_matrix

#: Operation kinds precomputed at fusion time.
KIND_DIAGONAL = "d"
KIND_SWAP = "s"
KIND_GENERAL = "g"

#: One fused operation: ``(matrix, qubits, kind)``.
FusedOp = Tuple[np.ndarray, Tuple[int, ...], str]

_ID2 = np.eye(2, dtype=complex)

# The gate-matrix memo lives in repro.circuits.gates (cached_gate_matrix)
# and is shared with the compiler's merge/synthesis passes.


def _is_diagonal(matrix: np.ndarray) -> bool:
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    return not off.any()


def _classify(matrix: np.ndarray) -> str:
    if _is_diagonal(matrix):
        return KIND_DIAGONAL
    if matrix.shape == (4, 4) and np.array_equal(matrix, SWAP_MATRIX):
        return KIND_SWAP
    return KIND_GENERAL


def _kron2(m_b: np.ndarray, m_a: np.ndarray) -> np.ndarray:
    """``m_b (x) m_a`` for 2x2 factors, without :func:`numpy.kron` overhead."""
    return (
        m_b[:, None, :, None] * m_a[None, :, None, :]
    ).reshape(4, 4)


# ---------------------------------------------------------------------------
# Single-gate application (canonical axis order)
# ---------------------------------------------------------------------------

def _writable(data: np.ndarray, overwrite: bool) -> np.ndarray:
    """A C-contiguous array the diagonal path may scale in place."""
    if data.flags["C_CONTIGUOUS"]:
        return data if overwrite else data.copy()
    return np.ascontiguousarray(data)


def apply_matrix(
    data: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    tail: int = 1,
    overwrite: bool = True,
) -> np.ndarray:
    """Apply a ``2**k x 2**k`` unitary to qubit axes of a dense array.

    Args:
        data: array with ``2**num_qubits * tail`` elements whose leading
            bits index the qubits (qubit ``num_qubits - 1`` is the
            most-significant) and whose trailing ``tail`` elements form a
            batch axis (e.g. the columns of a unitary).
        matrix: the gate unitary; index bit ``m`` corresponds to
            ``qubits[m]``.
        qubits: target qubits.
        num_qubits: total qubit count of ``data``.
        tail: size of the trailing batch axis.
        overwrite: when True the kernel may mutate ``data`` in place (the
            diagonal fast path does); pass False if the input must survive.

    Returns:
        The evolved array.  Callers must rebind to the return value rather
        than rely on aliasing.
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    if _is_diagonal(matrix):
        data = _writable(data, overwrite)
        _scale_diagonal_canonical(data, matrix, qubits, tail)
        return data
    return _apply_general(data, matrix, qubits, num_qubits, tail)


def _scale_diagonal_canonical(
    data: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], tail: int
) -> None:
    """In-place scaling by a diagonal gate, canonical axis order."""
    k = len(qubits)
    if k == 1:
        view = data.reshape(-1, 2, (1 << qubits[0]) * tail)
        if matrix[0, 0] != 1.0:
            view[:, 0, :] *= matrix[0, 0]
        if matrix[1, 1] != 1.0:
            view[:, 1, :] *= matrix[1, 1]
        return
    if k == 2:
        qubit_a, qubit_b = qubits
        lo, hi = (qubit_a, qubit_b) if qubit_a < qubit_b else (qubit_b, qubit_a)
        view = data.reshape(-1, 2, 1 << (hi - lo - 1), 2, (1 << lo) * tail)
        # Matrix index m: bit 0 = qubit_a, bit 1 = qubit_b; axis 1 is `hi`.
        for m in range(4):
            if matrix[m, m] != 1.0:
                bit_a, bit_b = m & 1, (m >> 1) & 1
                bit_lo, bit_hi = (
                    (bit_a, bit_b) if qubit_a == lo else (bit_b, bit_a)
                )
                view[:, bit_hi, :, bit_lo, :] *= matrix[m, m]
        return
    # Rare (>= 3 qubits, e.g. ccz): scale each non-unit diagonal entry.
    sorted_desc = sorted(qubits, reverse=True)
    shape = []
    previous = None
    for qubit in sorted_desc:
        shape.append(-1 if previous is None else 1 << (previous - qubit - 1))
        shape.append(2)
        previous = qubit
    shape.append((1 << sorted_desc[-1]) * tail)
    view = data.reshape(shape)
    bit_of = {qubit: bit for bit, qubit in enumerate(qubits)}
    for m in range(1 << k):
        if matrix[m, m] == 1.0:
            continue
        index: List = [slice(None)] * len(shape)
        for position, qubit in enumerate(sorted_desc):
            index[2 * position + 1] = (m >> bit_of[qubit]) & 1
        view[tuple(index)] *= matrix[m, m]


def _apply_general(
    data: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
    tail: int,
) -> np.ndarray:
    """Move target axes to the front, one BLAS matmul, move back."""
    shape = data.shape
    k = len(qubits)
    tensor = data.reshape((2,) * n + (tail,))
    # Axis j of the tensor corresponds to qubit n-1-j; bring the axes of
    # the target qubits to the front, most-significant matrix bit first.
    axes = [n - 1 - qubits[m] for m in reversed(range(k))]
    tensor = np.moveaxis(tensor, axes, range(k))
    moved_shape = tensor.shape
    tensor = matrix @ tensor.reshape(1 << k, -1)
    tensor = np.moveaxis(tensor.reshape(moved_shape), range(k), axes)
    return np.ascontiguousarray(tensor).reshape(shape)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def fuse_instructions(instructions, dtype=np.complex128) -> List[FusedOp]:
    """Fold a gate sequence into a shorter list of dense operations.

    Runs of single-qubit gates on one wire become a single 2x2 matrix;
    pending single-qubit matrices are absorbed into the next two-qubit gate
    acting on their wire (``U_2q . (m_b (x) m_a)``).  Measures and barriers
    are skipped — fusion is only valid for the unitary part of a circuit.

    Returns:
        ``(matrix, qubits, kind)`` triples whose in-order application is
        equivalent to the original sequence (up to float round-off from the
        explicit matrix products).  ``kind`` precomputes the dispatch:
        diagonal, pure swap, or general.
    """
    dtype = np.dtype(dtype)
    pending: Dict[int, np.ndarray] = {}
    ops: List[FusedOp] = []

    def emit(matrix: np.ndarray, qubits: Tuple[int, ...]) -> None:
        kind = _classify(matrix)
        ops.append(
            (np.ascontiguousarray(matrix, dtype=dtype), qubits, kind)
        )

    for instruction in instructions:
        if not instruction.is_unitary:
            continue
        matrix = cached_gate_matrix(instruction.name, instruction.params)
        if instruction.num_qubits == 1:
            qubit = instruction.qubits[0]
            previous = pending.get(qubit)
            pending[qubit] = matrix if previous is None else matrix @ previous
        elif instruction.num_qubits == 2:
            a, b = instruction.qubits
            m_a = pending.pop(a, None)
            m_b = pending.pop(b, None)
            if m_a is not None or m_b is not None:
                matrix = matrix @ _kron2(
                    m_b if m_b is not None else _ID2,
                    m_a if m_a is not None else _ID2,
                )
            emit(matrix, instruction.qubits)
        else:
            for qubit in instruction.qubits:
                if qubit in pending:
                    emit(pending.pop(qubit), (qubit,))
            emit(matrix, instruction.qubits)
    for qubit in sorted(pending):
        emit(pending[qubit], (qubit,))
    return ops


# ---------------------------------------------------------------------------
# Block fusion (cost-aware merging of consecutive operations)
# ---------------------------------------------------------------------------

#: Largest dense block built by :func:`block_ops` (a 16x16 matrix).
MAX_BLOCK_QUBITS = 4

#: Largest qubit union for merged diagonal runs (a 2**12 factor vector).
MAX_DIAG_QUBITS = 12

#: One blocked operation: ``(kind, qubits, payload)`` with payload a dense
#: matrix ("g"), a diagonal factor vector ("d"), or ``None`` ("s").
BlockOp = Tuple[str, Tuple[int, ...], Optional[np.ndarray]]


def _permute_matrix_bits(
    matrix: np.ndarray, perm: Sequence[int]
) -> np.ndarray:
    """Reorder the qubit bits of a dense matrix: new bit j = old bit perm[j]."""
    b = len(perm)
    tensor = matrix.reshape((2,) * (2 * b))
    row_axes = [b - 1 - perm[b - 1 - axis] for axis in range(b)]
    axes = row_axes + [axis + b for axis in row_axes]
    return np.ascontiguousarray(tensor.transpose(axes)).reshape(
        1 << b, 1 << b
    )


def _expand_general(
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    block: Tuple[int, ...],
) -> np.ndarray:
    """Embed a dense operator into a larger qubit block (bit j = block[j])."""
    if qubits == block:
        return matrix
    extras = [q for q in block if q not in qubits]
    full = matrix
    for _ in extras:
        full = np.kron(_ID2.astype(matrix.dtype), full)
    current = list(qubits) + extras
    perm = [current.index(q) for q in block]
    return _permute_matrix_bits(full, perm)


def _expand_diag(
    vector: np.ndarray,
    qubits: Tuple[int, ...],
    block: Tuple[int, ...],
) -> np.ndarray:
    """Embed a diagonal factor vector into a larger qubit block."""
    if qubits == block:
        return vector
    indices = np.arange(1 << len(block))
    sub = np.zeros_like(indices)
    for bit, qubit in enumerate(qubits):
        sub |= ((indices >> block.index(qubit)) & 1) << bit
    return vector[sub]


#: How many blocks the scheduler keeps open for commuting merges.
_BLOCK_WINDOW = 8


def _merge_block(
    block: BlockOp,
    op_kind: str,
    op_qubits: Tuple[int, ...],
    op_payload: np.ndarray,
    union: Tuple[int, ...],
) -> BlockOp:
    """Fold an operation (applied *after* ``block``) into the block."""
    bkind, bqubits, bpayload = block
    if op_kind == KIND_DIAGONAL and bkind == KIND_DIAGONAL:
        merged = _expand_diag(op_payload, op_qubits, union) * (
            _expand_diag(bpayload, bqubits, union)
        )
        return (KIND_DIAGONAL, union, merged)
    if op_kind == KIND_DIAGONAL:
        dense = _expand_general(bpayload, bqubits, union)
        return (
            KIND_GENERAL, union,
            _expand_diag(op_payload, op_qubits, union)[:, None] * dense,
        )
    dense = _expand_general(np.asarray(op_payload), op_qubits, union)
    if bkind == KIND_DIAGONAL:
        expanded = _expand_diag(bpayload, bqubits, union)
        return (KIND_GENERAL, union, dense * expanded[None, :])
    return (
        KIND_GENERAL, union,
        dense @ _expand_general(bpayload, bqubits, union),
    )


def block_ops(
    ops: Sequence[FusedOp],
    max_block: int = MAX_BLOCK_QUBITS,
    max_diag: int = MAX_DIAG_QUBITS,
) -> List[BlockOp]:
    """Merge fused gates into larger dense/diagonal blocks.

    Cost model: a dense contraction costs ~two passes over the state
    regardless of block size (up to ``max_block`` qubits), and a diagonal
    scaling costs at most one pass regardless of qubit count — so merging
    dense gates whose qubit union fits a block, and collapsing runs of
    (mutually commuting) diagonal gates into one factor vector, strictly
    reduces memory traffic.  A diagonal gate also folds into an open dense
    block for free.

    The scheduler keeps a window of open blocks: an operation may merge
    into an *earlier* open block when its qubits are disjoint from every
    later open block (disjoint supports commute), which packs random
    circuits far denser than last-block-only fusion.  Pure SWAPs flush the
    window and stay standalone: the plan compiler turns them into
    zero-cost axis relabelings.
    """
    emitted: List[BlockOp] = []
    window: List[BlockOp] = []

    def flush() -> None:
        emitted.extend(window)
        window.clear()

    for matrix, qubits, kind in ops:
        if kind == KIND_SWAP:
            flush()
            emitted.append((KIND_SWAP, qubits, None))
            continue
        payload = (
            np.ascontiguousarray(np.diagonal(matrix))
            if kind == KIND_DIAGONAL else matrix
        )
        qubit_set = set(qubits)
        cap = max_diag if kind == KIND_DIAGONAL else max_block
        target = None
        # Walk open blocks newest-first; stop at the first block sharing a
        # qubit (the op cannot commute past it).
        for index in reversed(range(len(window))):
            bkind, bqubits, _ = window[index]
            union = bqubits + tuple(
                q for q in qubits if q not in bqubits
            )
            merged_cap = (
                max_diag
                if kind == KIND_DIAGONAL and bkind == KIND_DIAGONAL
                else max_block
            )
            if len(union) <= merged_cap:
                target = (index, union)
                break
            if qubit_set & set(bqubits) and not (
                kind == KIND_DIAGONAL and bkind == KIND_DIAGONAL
            ):
                # Shared support and not mutually diagonal: the op cannot
                # commute past this block.
                break
        if target is not None:
            index, union = target
            window[index] = _merge_block(
                window[index], kind, tuple(qubits), payload, union
            )
            continue
        window.append((kind, tuple(qubits), payload))
        if len(window) > _BLOCK_WINDOW:
            emitted.append(window.pop(0))
    flush()
    return emitted


# ---------------------------------------------------------------------------
# Fused-run engine (lazy axis permutation, precompiled schedules)
# ---------------------------------------------------------------------------

#: A contraction plan: a list of steps plus the final restore step.
#: Steps reference *coalesced* axis groups — maximal runs of adjacent
#: untouched axes are merged into single dimensions, so every transpose or
#: broadcast runs over a handful of large blocks instead of ``n`` axes of
#: size 2 (high-dimensional numpy copies degrade to element-wise loops).
#: Group dimensions are stored as qubit counts; the runtime folds the
#: batch-axis size into the last group.  Step kinds:
#:
#: - ``("g", matrix, counts, perm)``: reshape to groups, transpose the
#:   target groups to the front, one BLAS matmul.
#: - ``("b", factor, counts)``: reshape to groups, one in-place broadcast
#:   multiply by a diagonal factor tensor.
Plan = Tuple[
    List[tuple], Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
]


def _group_axes(
    target_axes: Sequence[int], n: int
) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Coalesce axes ``0..n`` into target singletons and merged runs.

    Returns the per-group qubit counts (the trailing batch axis ``n``
    contributes no qubit count) and a map from target axis to group index.
    """
    targets = set(target_axes)
    counts: List[int] = []
    group_of: Dict[int, int] = {}
    open_run = False
    for axis in range(n + 1):
        if axis in targets:
            group_of[axis] = len(counts)
            counts.append(1)
            open_run = False
        else:
            qubit_count = 1 if axis < n else 0
            if open_run:
                counts[-1] += qubit_count
            else:
                counts.append(qubit_count)
                open_run = True
    return tuple(counts), group_of


def _group_dims(counts: Tuple[int, ...], tail: int) -> List[int]:
    """Concrete group sizes for a batch-axis size of ``tail``."""
    dims = [1 << c for c in counts]
    dims[-1] *= tail
    return dims


def _coalesce_permutation(
    perm: Tuple[int, ...],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Compress a full-axis permutation into coalesced groups.

    Runs of source axes that stay adjacent (and in order) through the
    permutation become single groups.  Returns ``(counts, group_perm)``:
    per-group qubit counts in *source* order (the batch axis — the largest
    source axis — contributing none) and the transpose permutation over
    groups.
    """
    batch_axis = len(perm) - 1
    runs: List[List[int]] = []
    for src in perm:
        if runs and src == runs[-1][-1] + 1:
            runs[-1].append(src)
        else:
            runs.append([src])
    source_order = sorted(range(len(runs)), key=lambda r: runs[r][0])
    counts = tuple(
        sum(1 for axis in runs[r] if axis != batch_axis)
        for r in source_order
    )
    group_of_run = {run: g for g, run in enumerate(source_order)}
    group_perm = tuple(group_of_run[r] for r in range(len(runs)))
    return counts, group_perm


def compile_plan(ops: Sequence[FusedOp], num_qubits: int) -> Plan:
    """Precompute the axis schedule of a fused gate list.

    The gate list is first blocked (:func:`block_ops`).  The engine never
    moves axes back after a contraction; it tracks which tensor axis holds
    which qubit and restores canonical order once, at the end.  That
    bookkeeping depends only on the gate sequence, so it is done here —
    once per circuit — leaving the runtime loop with nothing but
    ``reshape``/``transpose``/``matmul``/multiply calls over coalesced axis
    groups.  Pure SWAPs dissolve into the schedule entirely (they are just
    axis relabelings).

    The plan is independent of the trailing batch-axis size: the batch axis
    (index ``num_qubits``) never moves and its size is folded in at
    execution time.
    """
    n = num_qubits
    steps: List[tuple] = []
    # order[axis] = qubit currently stored on that axis.
    order = [n - 1 - axis for axis in range(n)]
    position = {qubit: axis for axis, qubit in enumerate(order)}

    for kind, qubits, payload in block_ops(
        ops, max_block=min(n, MAX_BLOCK_QUBITS)
    ):
        if kind == KIND_SWAP:
            axis_a, axis_b = position[qubits[0]], position[qubits[1]]
            order[axis_a], order[axis_b] = order[axis_b], order[axis_a]
            position[qubits[0]], position[qubits[1]] = axis_b, axis_a
            continue
        if kind == KIND_DIAGONAL:
            if np.all(payload == 1.0):
                continue
            target_axes = [position[q] for q in qubits]
            counts, group_of = _group_axes(target_axes, n)
            # Factor tensor: qubit q's axis lands on its group, size-1
            # dims everywhere else.
            u = len(qubits)
            factor = payload.reshape((2,) * u)  # axis i <-> qubits[u-1-i]
            by_axis = sorted(qubits, key=lambda q: position[q])
            factor = np.ascontiguousarray(
                factor.transpose(
                    [u - 1 - qubits.index(q) for q in by_axis]
                )
            )
            shape = [1] * len(counts)
            for q in qubits:
                shape[group_of[position[q]]] = 2
            steps.append(("b", factor.reshape(shape), counts))
            continue
        axes = [position[q] for q in reversed(qubits)]
        counts, group_of = _group_axes(axes, n)
        target_groups = [group_of[a] for a in axes]
        perm = tuple(target_groups) + tuple(
            g for g in range(len(counts)) if g not in set(target_groups)
        )
        steps.append(("g", payload, counts, perm))
        # The target axes now sit at the front; everything else keeps its
        # relative order (the tail axis stays last).
        axes_set = set(axes)
        order = [order[a] for a in axes] + [
            qubit for axis, qubit in enumerate(order) if axis not in axes_set
        ]
        position = {qubit: axis for axis, qubit in enumerate(order)}

    restore = tuple(position[n - 1 - axis] for axis in range(n)) + (n,)
    final = None
    if restore != tuple(range(n + 1)):
        final = _coalesce_permutation(restore)
    return steps, final


def execute_plan(
    data: np.ndarray, plan: Plan, num_qubits: int, tail: int = 1
) -> np.ndarray:
    """Apply a precompiled contraction plan to a flat dense array.

    ``data`` holds ``2**num_qubits * tail`` elements in canonical qubit
    order (trailing batch axis of size ``tail``); so does the result.
    ``data`` may be mutated in place; callers rebind to the return value.
    """
    steps, final = plan
    tensor = data
    scratch = out = None
    for step in steps:
        if step[0] == "g":
            _, matrix, counts, perm = step
            if scratch is None:
                # Two reusable buffers: the gather lands in `scratch`, the
                # matmul writes into `out`; `tensor` then lives in `out`
                # and the roles never conflict (the gather always copies
                # the full state out of `tensor` first).
                scratch = np.empty(data.size, dtype=data.dtype)
                out = np.empty(data.size, dtype=data.dtype)
            view = tensor.reshape(_group_dims(counts, tail)).transpose(perm)
            gathered = scratch.reshape(view.shape)
            np.copyto(gathered, view)
            rows = matrix.shape[0]
            result = out.reshape(rows, data.size // rows)
            np.matmul(matrix, gathered.reshape(rows, -1), out=result)
            tensor, out = result, (
                data if tensor is data else tensor.reshape(-1)
            )
            if out is data:
                out = np.empty(data.size, dtype=data.dtype)
        else:
            _, factor, counts = step
            view = tensor.reshape(_group_dims(counts, tail))
            view *= factor
            tensor = view
    if final is not None:
        counts, perm = final
        tensor = np.ascontiguousarray(
            tensor.reshape(_group_dims(counts, tail)).transpose(perm)
        )
    return tensor.reshape(data.shape)


def run_fused_ops(
    data: np.ndarray,
    ops: Sequence[FusedOp],
    num_qubits: int,
    tail: int = 1,
) -> np.ndarray:
    """Compile and execute a fused gate list (uncached convenience)."""
    if num_qubits == 0 or not ops:
        return data
    return execute_plan(
        data, compile_plan(ops, num_qubits), num_qubits, tail
    )


#: Compiled plans keyed by ``(circuit_cache_fingerprint(circuit), dtype)``,
#: emptied when full.  A reduced Table-I study builds 88 plans, under 1 MB
#: of matrices in all, so one study never reaches the bound.
_PLAN_CACHE: Dict[Tuple[Tuple, str], Plan] = {}
_PLAN_CACHE_MAX = 256


def circuit_plan(circuit, dtype=np.complex128) -> Plan:
    """Memoized fuse-and-compile pipeline, keyed by circuit content."""
    key = (circuit_cache_fingerprint(circuit), np.dtype(dtype).str)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = compile_plan(
            fuse_instructions(circuit.instructions, dtype=dtype),
            circuit.num_qubits,
        )
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
    return plan
