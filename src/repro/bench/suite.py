"""Benchmark suite construction (Section V-A1).

The paper evaluates "all circuits provided by the MQT Bench collection ...
for any number between 2 and 20 qubits ... only considering circuits with a
compiled depth smaller than 1000 — leaving a total of 222 circuits".  The
suite builder sweeps every algorithm family over the qubit range; the
compiled-depth filter is applied by the evaluation study after compilation
(it depends on the target device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .algorithms import ALGORITHMS

#: The paper's depth cut-off for executable circuits.
DEPTH_LIMIT = 1000


@dataclass
class BenchmarkCircuit:
    """One suite entry: an algorithm instance at a specific width."""

    algorithm: str
    num_qubits: int
    circuit: QuantumCircuit

    @property
    def name(self) -> str:
        return f"{self.algorithm}_{self.num_qubits}"


def build_suite(
    algorithms: Optional[Sequence[str]] = None,
    min_qubits: int = 2,
    max_qubits: int = 20,
    step: int = 1,
) -> List[BenchmarkCircuit]:
    """Generate the benchmark suite.

    Args:
        algorithms: family names (default: all of :data:`ALGORITHMS`).
        min_qubits / max_qubits: inclusive qubit range (paper: 2-20).
        step: qubit-count stride (1 reproduces the paper; larger values give
            cheap subsets for tests).

    Returns:
        One :class:`BenchmarkCircuit` per (family, width) combination whose
        family supports that width.
    """
    if algorithms is None:
        names = sorted(ALGORITHMS)
    else:
        unknown = sorted(set(algorithms) - set(ALGORITHMS))
        if unknown:
            raise ValueError(f"unknown benchmark families: {unknown}")
        names = list(algorithms)
    if min_qubits < 2:
        raise ValueError("min_qubits must be >= 2")
    if max_qubits < min_qubits:
        raise ValueError("max_qubits must be >= min_qubits")

    suite: List[BenchmarkCircuit] = []
    for name in names:
        generator, minimum, maximum = ALGORITHMS[name]
        for width in range(
            max(min_qubits, minimum), min(max_qubits, maximum) + 1, step
        ):
            circuit = generator(width)
            suite.append(
                BenchmarkCircuit(
                    algorithm=name, num_qubits=width, circuit=circuit
                )
            )
    return suite


def ideal_distributions(
    suite: Sequence[BenchmarkCircuit],
    dtype=np.complex64,
    max_workers: Optional[int] = None,
    cache: Optional[Dict[str, Dict[str, float]]] = None,
    on_result=None,
) -> Dict[str, Dict[str, float]]:
    """Noiseless output distributions of every suite circuit, batched.

    The statevector simulations run on a worker pool (``max_workers``,
    default one per CPU) — this is the dataset-generation hot path shared
    across devices.  Entries already present in ``cache`` are not
    recomputed; the (possibly shared) cache dict is returned.
    ``on_result(position, distribution)`` fires per freshly simulated
    circuit (positions index the not-yet-cached subset, in suite order).
    """
    from ..parallel import parallel_map
    from ..simulation.statevector import ideal_distribution

    cache = cache if cache is not None else {}
    missing = [entry for entry in suite if entry.name not in cache]
    # Statevector simulation is numpy-heavy (releases the GIL), so the
    # thread pool is the right mode — pinned explicitly because the
    # per-item lambda would not survive pickling anyway.
    fresh = parallel_map(
        lambda entry: ideal_distribution(entry.circuit, dtype=dtype),
        missing,
        max_workers=max_workers,
        mode="thread",
        on_result=on_result,
    )
    for entry, dist in zip(missing, fresh):
        cache[entry.name] = dist
    return cache


def compile_suite(
    suite: Sequence[BenchmarkCircuit],
    device,
    optimization_level: int = 3,
    seed: int = 0,
    max_workers: Optional[int] = None,
    on_result=None,
):
    """Compile every suite circuit for ``device`` through the batch API.

    Thin wrapper over :func:`repro.compiler.compile.compile_batch` using
    the dataset convention for per-circuit seeds (``seed + index``), so a
    suite compiled here matches the circuits
    :func:`repro.predictor.dataset.build_dataset` would produce.

    Returns one :class:`~repro.compiler.compile.CompilationResult` per
    suite entry, in suite order.
    """
    from ..compiler.compile import compile_batch

    return compile_batch(
        [entry.circuit for entry in suite],
        device,
        optimization_level=optimization_level,
        seeds=[seed + index for index in range(len(suite))],
        max_workers=max_workers,
        on_result=on_result,
    )


def filter_by_depth(
    entries: Iterable, depths: Dict[str, int], limit: int = DEPTH_LIMIT
) -> List:
    """Keep entries whose recorded compiled depth is below ``limit``."""
    kept = []
    for entry in entries:
        depth = depths.get(entry.name)
        if depth is not None and depth < limit:
            kept.append(entry)
    return kept


def suite_to_qasm(suite: Sequence[BenchmarkCircuit], directory) -> List:
    """Write every suite circuit as ``<name>.qasm`` under ``directory``.

    The bridge between the suite builder and file-based surfaces like
    ``python -m repro predict``: returns the written paths in suite
    order.  The directory is created if needed.
    """
    from pathlib import Path

    from ..circuits.qasm import to_qasm

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in suite:
        path = directory / f"{entry.name}.qasm"
        path.write_text(to_qasm(entry.circuit))
        paths.append(path)
    return paths


def suite_summary(suite: Sequence[BenchmarkCircuit]) -> str:
    """Human-readable table of the suite composition."""
    lines = [f"{'benchmark':<16} {'widths':<12} {'count':>5}"]
    by_family: Dict[str, List[int]] = {}
    for entry in suite:
        by_family.setdefault(entry.algorithm, []).append(entry.num_qubits)
    for family in sorted(by_family):
        widths = by_family[family]
        lines.append(
            f"{family:<16} {min(widths)}-{max(widths):<10} {len(widths):>5}"
        )
    lines.append(f"{'total':<16} {'':<12} {len(suite):>5}")
    return "\n".join(lines)
