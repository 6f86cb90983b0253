"""Simulation substrates: statevector, distributions, noisy QPU execution."""

from .distributions import (
    apply_bitflip_confusion,
    bhattacharyya_coefficient,
    counts_to_distribution,
    cross_entropy,
    hellinger_distance,
    hellinger_fidelity,
    marginalize,
    mix,
    normalize,
    shannon_entropy,
    total_variation_distance,
    uniform_distribution,
    validate_distribution,
)
from .executor import (
    SEED_STRIDE,
    ExecutionResult,
    QPUExecutor,
    execute_and_label,
)
from .histogram import render_comparison, render_histogram
from .kernels import apply_matrix, cached_gate_matrix, fuse_instructions
from .statevector import (
    Statevector,
    circuit_unitary,
    ideal_distribution,
    sample_counts,
    sample_indices,
    simulate_statevector,
)

__all__ = [
    "ExecutionResult",
    "QPUExecutor",
    "SEED_STRIDE",
    "Statevector",
    "apply_bitflip_confusion",
    "apply_matrix",
    "cached_gate_matrix",
    "fuse_instructions",
    "sample_indices",
    "bhattacharyya_coefficient",
    "circuit_unitary",
    "counts_to_distribution",
    "cross_entropy",
    "execute_and_label",
    "hellinger_distance",
    "hellinger_fidelity",
    "ideal_distribution",
    "marginalize",
    "mix",
    "normalize",
    "render_comparison",
    "render_histogram",
    "sample_counts",
    "shannon_entropy",
    "simulate_statevector",
    "total_variation_distance",
    "uniform_distribution",
    "validate_distribution",
]
