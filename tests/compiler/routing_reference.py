"""FROZEN reference copy of the scalar SABRE swap scorer as of 553fe47.

Do not edit (beyond these header lines and absolute imports): the
equivalence test in ``tests/compiler/test_compile_batch.py`` pins the
vectorized ``_select_swap`` of ``repro/compiler/passes/routing.py`` to
this verbatim snapshot of the ``_swap_score`` it was checked against —
the same pattern ``tests/compiler/trial_reference.py`` uses.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Instruction
from repro.compiler.passes.routing import _LOOKAHEAD_WEIGHT


def _swap_score(
    swap: Tuple[int, int],
    front_gates: Sequence[Instruction],
    lookahead_gates: Sequence[Instruction],
    tau: Dict[int, int],
    distance: np.ndarray,
    decay: np.ndarray,
) -> float:
    """SABRE cost of applying ``swap``: front distance + weighted lookahead.

    Scalar reference for :func:`_select_swap`; kept for the equivalence
    tests that pin the vectorized scorer to the historical behaviour.
    """
    a, b = swap
    # Build the trial mapping lazily: only qubits a/b change.
    inv = {p: v for v, p in tau.items()}
    va, vb = inv[a], inv[b]

    def phys(virtual: int) -> int:
        if virtual == va:
            return b
        if virtual == vb:
            return a
        return tau[virtual]

    front_cost = 0.0
    for gate in front_gates:
        qa, qb = gate.qubits
        front_cost += distance[phys(qa), phys(qb)]
    front_cost /= max(len(front_gates), 1)

    look_cost = 0.0
    if lookahead_gates:
        for gate in lookahead_gates:
            qa, qb = gate.qubits
            look_cost += distance[phys(qa), phys(qb)]
        look_cost *= _LOOKAHEAD_WEIGHT / len(lookahead_gates)

    return max(decay[a], decay[b]) * (front_cost + look_cost)
