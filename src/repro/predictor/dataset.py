"""Dataset construction: features and Hellinger labels per (circuit, device).

Implements the workflow of the paper's Fig. 2: every benchmark circuit is
compiled for the target QPU, executed on it (here: on the emulator), and
labelled with the Hellinger distance between its true distribution and the
execution result.  The same pass also records the established figures of
merit so the correlation study can score everything on identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bench.suite import DEPTH_LIMIT, BenchmarkCircuit, ideal_distributions
from ..circuits.circuit import batch_seeds
from ..compiler.compile import compile_batch
from ..fom.features import feature_vector
from ..fom.metrics import circuit_depth, esp, expected_fidelity, gate_count
from ..hardware.device import Device
from ..simulation.distributions import hellinger_distance
from ..simulation.executor import QPUExecutor


@dataclass
class DatasetEntry:
    """One labelled circuit."""

    name: str
    algorithm: str
    num_qubits: int
    features: np.ndarray
    label: float
    fom_values: Dict[str, float]
    compiled_depth: int
    compiled_two_qubit_gates: int
    success_probability: float
    compiled: object = None  # the compiled QuantumCircuit (for ablations)


@dataclass
class CircuitDataset:
    """Feature matrix ``X``, labels ``y``, and per-circuit bookkeeping."""

    device_name: str
    entries: List[DatasetEntry] = field(default_factory=list)

    @property
    def X(self) -> np.ndarray:
        return np.vstack([entry.features for entry in self.entries])

    @property
    def y(self) -> np.ndarray:
        return np.array([entry.label for entry in self.entries])

    def fom_column(self, fom_name: str) -> np.ndarray:
        return np.array([entry.fom_values[fom_name] for entry in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


def build_dataset(
    suite: Sequence[BenchmarkCircuit],
    device: Device,
    optimization_level: "int | str" = 3,
    shots: int = 2000,
    seed: int = 0,
    depth_limit: int = DEPTH_LIMIT,
    ideal_cache: Optional[Dict[str, Dict[str, float]]] = None,
    sim_dtype=np.complex64,
    progress: bool = False,
    max_workers: Optional[int] = None,
    estimator=None,
    search_opts: Optional[Dict] = None,
) -> CircuitDataset:
    """Compile, execute, and label every suite circuit on ``device``.

    Circuits whose *compiled* depth reaches ``depth_limit`` are dropped,
    matching the paper's selection rule.  ``ideal_cache`` (keyed by benchmark
    name) shares the expensive noiseless simulations across devices — valid
    because compilation preserves the measured distribution.

    Every stage is batched and parallel (``max_workers``, default one
    worker per CPU): compilation fans out over
    :func:`~repro.compiler.compile.compile_batch` — a *process* pool,
    because compilation is GIL-bound pure Python — while the numpy-heavy
    noiseless simulation and noisy execution (which release the GIL) run
    as thread-pool passes via :func:`ideal_distributions` and
    :meth:`QPUExecutor.run_batch`.  Per-circuit seeds are fixed functions
    of ``seed`` and the suite index, so results are bit-identical for
    every worker count.  With
    ``progress=True`` each batched stage reports per-circuit liveness as
    results land (completion order), instead of after the stage drains.

    ``optimization_level="search"`` labels the dataset with the
    predictor-guided compiler instead of stock level 3: ``estimator`` is
    the cost model and ``search_opts`` tunes the search (see
    :func:`~repro.compiler.search.compile_search`); both are forwarded to
    ``compile_batch`` untouched.
    """
    executor = QPUExecutor(device)
    dataset = CircuitDataset(device_name=device.name)
    cache = ideal_cache if ideal_cache is not None else {}

    # Stage 1 — compile and apply the compiled-depth filter.
    # The cheap pre-filter skips compilation entirely: compilation to the
    # native two-qubit-heavy basis never compresses depth by 2x, so those
    # circuits cannot pass the compiled-depth filter.
    candidates = [
        (index, entry) for index, entry in enumerate(suite)
        if entry.circuit.depth() < 2 * depth_limit
    ]

    def compile_progress(position: int, result) -> None:
        _, entry = candidates[position]
        print(
            f"[{device.name}] {entry.name:<20} compiled "
            f"depth={result.circuit.depth():<5} "
            f"cz={result.circuit.num_nonlocal_gates()}",
            flush=True,
        )

    # Compilation is GIL-bound pure Python, so this stage scales with
    # cores only through a process pool; liveness streams through
    # on_result either way (fired in the parent, completion order).
    compiled_results = compile_batch(
        [entry.circuit for _, entry in candidates],
        device,
        optimization_level=optimization_level,
        seeds=[seed + index for index, _ in candidates],
        max_workers=max_workers,
        on_result=compile_progress if progress else None,
        estimator=estimator,
        search_opts=search_opts,
    )
    survivors = []
    for (index, entry), result in zip(candidates, compiled_results):
        depth = result.circuit.depth()
        if depth < depth_limit:
            survivors.append((index, entry, result.circuit, depth))

    # Stage 2 — noiseless reference distributions (parallel, cache-shared).
    # ``on_result`` positions index the not-yet-cached subset, in order.
    missing_names = [
        entry.name for _, entry, _, _ in survivors if entry.name not in cache
    ]

    def simulate_progress(position: int, _dist) -> None:
        print(
            f"[{device.name}] {missing_names[position]:<20} simulated",
            flush=True,
        )

    ideal_distributions(
        [entry for _, entry, _, _ in survivors],
        dtype=sim_dtype,
        max_workers=max_workers,
        cache=cache,
        on_result=simulate_progress if progress else None,
    )

    # Stage 3 — noisy execution through the batched executor API.
    def execute_progress(position: int, execution) -> None:
        _, entry, _, depth = survivors[position]
        label = hellinger_distance(cache[entry.name], execution.distribution())
        print(
            f"[{device.name}] {entry.name:<20} depth={depth:<5} "
            f"S={execution.success_probability:.3f} d={label:.3f}",
            flush=True,
        )

    executions = executor.run_batch(
        [compiled for _, _, compiled, _ in survivors],
        shots=shots,
        ideals=[cache[entry.name] for _, entry, _, _ in survivors],
        seeds=batch_seeds(seed, [index for index, _, _, _ in survivors]),
        max_workers=max_workers,
        on_result=execute_progress if progress else None,
    )

    # Stage 4 — assemble features, labels, and figures of merit.
    for (index, entry, compiled, depth), execution in zip(
        survivors, executions
    ):
        ideal = cache[entry.name]
        label = hellinger_distance(ideal, execution.distribution())
        fom_values = {
            "Number of gates": float(gate_count(compiled)),
            "Circuit depth": float(circuit_depth(compiled)),
            "Expected fidelity": expected_fidelity(compiled, device),
            "ESP": esp(compiled, device),
        }
        dataset.entries.append(
            DatasetEntry(
                name=entry.name,
                algorithm=entry.algorithm,
                num_qubits=entry.num_qubits,
                features=feature_vector(compiled),
                label=label,
                fom_values=fom_values,
                compiled_depth=depth,
                compiled_two_qubit_gates=compiled.num_nonlocal_gates(),
                success_probability=execution.success_probability,
                compiled=compiled,
            )
        )
    return dataset
