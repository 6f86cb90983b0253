"""Top-level compilation entry point with optimization levels 0-3.

Mirrors the Qiskit transpiler semantics the paper relies on ("optimization
level three"):

* **0** — decompose, trivial layout, naive shortest-path routing, native
  synthesis.  No optimization.
* **1** — light optimization (identity removal, 1q-run merging), SABRE
  routing without lookahead.
* **2** — full optimization loop, interaction-aware greedy layout, SABRE
  routing with lookahead, post-routing re-optimization.
* **3** — level 2 plus multiple layout/routing trials; the candidate with
  the best *expected fidelity* on the device's reported calibration wins
  (compilation steered by a figure of merit, exactly the workflow whose
  quality the paper investigates).

Measurements must be terminal.  They are stripped before the pipeline and
re-appended on the physical qubit that holds each measured program qubit
after routing, so the output counts keep their program-level meaning.

Throughput comes from three mechanisms.  Pass results that are pure
functions of ``(circuit, device, options)`` are memoized in the shared
:mod:`~repro.compiler.cache` (so warm recompiles and overlapping trials
skip entire passes).  Level-3 trials share their trial-invariant prefix —
the decompose + optimization-loop "body" runs once, not once per trial —
and candidates are scored with one vectorized
:func:`~repro.fom.metrics.expected_fidelity_batch` sweep over the
calibration arrays.  :func:`compile_batch` compiles many circuits through
a worker pool with deterministic per-circuit seed streams, mirroring
:meth:`repro.simulation.executor.QPUExecutor.run_batch` — and because
compilation is pure Python (GIL-bound), the batch defaults to a *process*
pool (:mod:`repro.parallel`), which scales with cores where threads
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.device import Device
from .cache import active_compile_cache, clear_compile_cache
from .passes.base import Pass, PassManager, PropertySet
from .passes.decompose import Decompose
from .passes.layout import GreedySubgraphLayout, LineLayout, TrivialLayout
from .passes.optimization import Merge1QRuns, OptimizationLoop, RemoveIdentities
from .passes.routing import PathRouting, SabreRouting
from .passes.scheduling import Schedule, schedule_asap
from .passes.synthesis import NativeSynthesis, VirtualRZ

#: Stride between the default per-circuit seed streams of
#: :func:`compile_batch` (the same prime :mod:`repro.simulation.executor`
#: uses, so compile and execute streams decorrelate identically).
SEED_STRIDE = 7919


@dataclass
class CompilationResult:
    """Everything produced by one compilation run."""

    circuit: QuantumCircuit
    initial_layout: Dict[int, int]
    final_layout: Dict[int, int]
    device: Device
    optimization_level: int
    properties: PropertySet = field(default_factory=PropertySet)

    @property
    def schedule(self) -> Schedule:
        """ASAP schedule of the compiled circuit (computed lazily)."""
        if "schedule" not in self.properties:
            self.properties["schedule"] = schedule_asap(
                self.circuit, self.device.true_calibration.durations
            )
        return self.properties["schedule"]


def _split_measurements(
    circuit: QuantumCircuit,
) -> Tuple[QuantumCircuit, List[Tuple[int, int]]]:
    """Strip terminal measurements; raise if any measurement is not terminal."""
    measured: Dict[int, int] = {}
    body = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits,
        name=circuit.name, global_phase=circuit.global_phase,
        metadata=dict(circuit.metadata),
    )
    for instruction in circuit.instructions:
        if instruction.name == "measure":
            qubit = instruction.qubits[0]
            if qubit in measured:
                raise ValueError(f"qubit {qubit} measured twice")
            measured[qubit] = instruction.clbits[0]
            continue
        if any(q in measured for q in instruction.qubits):
            raise ValueError(
                "mid-circuit measurement is not supported by the compiler"
            )
        body.instructions.append(instruction)
    return body, sorted(measured.items())


def _pass_manager(passes: List[Pass]) -> PassManager:
    """A pipeline wired to the shared compile cache, history disabled."""
    return PassManager(
        passes, cache=active_compile_cache(), collect_history=False
    )


def _layout_pass(
    device: Device, optimization_level: int, seed: int, layout: str | None
) -> Pass:
    coupling = device.coupling
    if layout == "line":
        return LineLayout(coupling)
    if layout == "trivial" or (layout is None and optimization_level <= 1):
        return TrivialLayout(coupling)
    return GreedySubgraphLayout(coupling, seed=seed)


def _trial_suffix(
    device: Device, seed: int, keep_final_rz: bool,
    layout: str | None, routing_seed: int,
) -> List[Pass]:
    """The trial-varying tail of the level-2/3 pipeline (post-"body")."""
    return [
        _layout_pass(device, 2, seed, layout),
        SabreRouting(device.coupling, seed=routing_seed, lookahead=True),
        Decompose(),
        OptimizationLoop(),
        NativeSynthesis(),
        VirtualRZ(keep_final_rz=keep_final_rz),
    ]


def _build_pipeline(
    device: Device, optimization_level: int, seed: int,
    keep_final_rz: bool, layout: str | None = None, routing_seed: int | None = None,
) -> List[Pass]:
    coupling = device.coupling
    routing_seed = seed if routing_seed is None else routing_seed
    layout_pass = _layout_pass(device, optimization_level, seed, layout)

    if optimization_level == 0:
        return [
            Decompose(),
            layout_pass,
            PathRouting(coupling),
            Decompose(),
            NativeSynthesis(),
            VirtualRZ(keep_final_rz=keep_final_rz),
        ]
    if optimization_level == 1:
        return [
            Decompose(),
            RemoveIdentities(),
            Merge1QRuns(),
            layout_pass,
            SabreRouting(coupling, seed=routing_seed, lookahead=False),
            Decompose(),
            Merge1QRuns(),
            NativeSynthesis(),
            VirtualRZ(keep_final_rz=keep_final_rz),
        ]
    # Levels 2 and 3 share the heavy pipeline.
    return [Decompose(), OptimizationLoop()] + _trial_suffix(
        device, seed, keep_final_rz, layout, routing_seed
    )


def compile_circuit(
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: "int | str" = 3,
    seed: int = 0,
    keep_final_rz: bool = False,
    num_trials: int = 4,
    estimator=None,
    search_opts: Optional[dict] = None,
) -> CompilationResult:
    """Compile ``circuit`` for ``device``.

    Args:
        circuit: program circuit (measurements must be terminal).
        device: compilation and execution target.
        optimization_level: 0-3 (see module docstring), or ``"search"``
            for the predictor-guided beam search of
            :mod:`repro.compiler.search` (requires ``estimator``).
        seed: seed for all stochastic pass decisions.
        keep_final_rz: keep trailing virtual-RZ gates so the compiled body is
            exactly unitarily equivalent (useful for verification; hardware
            execution does not need them).
        num_trials: number of layout/routing trials at level 3 (these
            also seed the ``"search"`` beam).
        estimator: fitted FoM estimator — the ``"search"`` cost model.
        search_opts: extra :func:`~repro.compiler.search.search_circuit`
            keywords (``beam_width``, ``generations``, ``incumbent``).

    Returns:
        A :class:`CompilationResult` whose circuit uses only the device's
        native gates on coupled qubit pairs.
    """
    if optimization_level == "search":
        from .search import search_circuit

        if estimator is None:
            raise ValueError(
                "optimization_level='search' needs an estimator cost model"
            )
        return search_circuit(
            circuit, device, estimator,
            seed=seed, keep_final_rz=keep_final_rz, num_trials=num_trials,
            **(search_opts or {}),
        )
    if not (
        isinstance(optimization_level, int) and 0 <= optimization_level <= 3
    ):
        raise ValueError("optimization_level must be in 0..3 or 'search'")
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits, device "
            f"{device.name} has {device.num_qubits}"
        )
    body, measurements = _split_measurements(circuit)

    if optimization_level < 3:
        result = _run_single(
            body, device, optimization_level, seed, keep_final_rz, None, None
        )
    else:
        result = _run_trials(
            body, device, seed, keep_final_rz, num_trials
        )

    compiled, properties = result
    initial_layout = properties.get(
        "initial_layout", {q: q for q in range(body.num_qubits)}
    )
    final_layout = properties.get("final_layout", dict(initial_layout))

    # Re-append measurements on the post-routing physical qubits.
    if measurements:
        if compiled.num_clbits < circuit.num_clbits:
            compiled.num_clbits = circuit.num_clbits
        for program_qubit, clbit in measurements:
            compiled.measure(final_layout[program_qubit], clbit)

    compiled.name = circuit.name
    compiled.metadata.update(circuit.metadata)
    compiled.metadata["optimization_level"] = optimization_level
    device.validate_circuit(compiled)
    return CompilationResult(
        circuit=compiled,
        initial_layout={q: initial_layout[q] for q in range(circuit.num_qubits)},
        final_layout={q: final_layout[q] for q in range(circuit.num_qubits)},
        device=device,
        optimization_level=optimization_level,
        properties=properties,
    )


#: Per-batch invariants installed in each pool worker by
#: :func:`_init_compile_worker` (``None`` outside a worker).
_WORKER_STATE: Optional[dict] = None


def _init_compile_worker(
    device: Device, optimization_level: int, keep_final_rz: bool, num_trials: int
) -> None:
    """Pool initializer: install the batch invariants in a worker.

    Runs in each shared-pool worker before the first task of a batch it
    serves.  The device pickles with its routing tables precomputed (see
    :meth:`~repro.hardware.coupling.CouplingMap.__getstate__`), so workers
    skip the O(n^2) BFS rebuild.  It also empties the worker's
    :class:`~repro.compiler.cache.CompileCache`: workers outlive batches,
    and entries from an earlier batch (another device) only cost memory,
    so every batch starts from the empty cache a fresh worker had.
    """
    global _WORKER_STATE
    clear_compile_cache()
    _WORKER_STATE = {
        "device": device,
        "optimization_level": optimization_level,
        "keep_final_rz": keep_final_rz,
        "num_trials": num_trials,
    }


def _compile_in_worker(task: Tuple[QuantumCircuit, int]) -> Tuple:
    """Compile one ``(circuit, seed)`` task against the worker state.

    Returns the result *without* the device: shipping the device back on
    every item would dominate the payload, and the parent re-attaches its
    own instance when decoding.
    """
    circuit, task_seed = task
    state = _WORKER_STATE
    result = compile_circuit(
        circuit,
        state["device"],
        optimization_level=state["optimization_level"],
        seed=task_seed,
        keep_final_rz=state["keep_final_rz"],
        num_trials=state["num_trials"],
    )
    return (
        result.circuit,
        result.initial_layout,
        result.final_layout,
        result.properties,
    )


def compile_batch(
    circuits: Sequence[QuantumCircuit],
    device: Device,
    optimization_level: "int | str" = 3,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    keep_final_rz: bool = False,
    num_trials: int = 4,
    max_workers: Optional[int] = None,
    workers_mode: Optional[str] = None,
    on_result: Optional[Callable[[int, CompilationResult], None]] = None,
    estimator=None,
    search_opts: Optional[dict] = None,
) -> List[CompilationResult]:
    """Compile many circuits, in parallel, with per-circuit seed streams.

    Circuit ``i`` is compiled exactly as ``compile_circuit(circuits[i],
    device, optimization_level, seed=seeds[i], ...)`` would — results come
    back in input order and are bit-identical for every worker count *and*
    execution mode, because each circuit's stochastic pass decisions
    depend only on its own seed (pinned by the golden-digest and property
    tests).

    Compilation is pure Python, so threads cannot speed it up — the GIL
    serializes them.  The default mode is therefore ``"process"``: the
    batch fans out over the process's shared spawn pool
    (:mod:`repro.parallel`), whose long-lived workers each hold their own
    :class:`~repro.compiler.cache.CompileCache`, emptied when the worker
    installs this batch's device (cache entries are immutable snapshots,
    so per-worker caches need no merging; the parent's cache is not
    warmed by pooled compiles).  Circuits,
    :class:`~repro.hardware.coupling.RoutingTables` and results cross the
    process boundary through cheap flat-array encodings.  Batches smaller
    than :data:`~repro.parallel.PROCESS_MIN_ITEMS` (or a resolved worker
    count of 1) run in-process, where the shared cache still applies.

    Args:
        circuits: program circuits to compile.
        device: compilation target shared by the whole batch.
        optimization_level: 0-3, applied to every circuit.
        seed: base seed; circuit ``i`` defaults to the stream
            ``seed + SEED_STRIDE * i`` (the :meth:`run_batch` convention).
        seeds: optional explicit per-circuit seeds (overrides ``seed``).
        keep_final_rz: forwarded to :func:`compile_circuit`.
        num_trials: level-3 trial count per circuit.
        max_workers: worker-pool size (``None``: one worker per CPU, the
            repo-wide :func:`~repro.parallel.resolve_workers` rule).
        workers_mode: ``"process"``/``"thread"`` (``None``: the
            ``REPRO_WORKERS_MODE`` environment override if set, else
            ``"process"``).
        on_result: optional ``callback(index, result)`` fired in the
            parent as each circuit finishes (completion order); see
            :mod:`repro.parallel` for the exception contract.
        estimator: with ``optimization_level="search"``: the fitted FoM
            estimator steering the beam (required there, ignored
            otherwise).
        search_opts: with ``"search"``: extra
            :func:`~repro.compiler.search.compile_search` keywords
            (``beam_width``, ``generations``, ``store``, ``warm_start``,
            ``record``, ``session``).

    Returns:
        One :class:`CompilationResult` per circuit, in input order.
    """
    from ..parallel import (
        PROCESS_MIN_ITEMS,
        parallel_map,
        resolve_mode,
        resolve_workers,
    )

    if optimization_level == "search":
        from .search import compile_search

        if estimator is None:
            raise ValueError(
                "optimization_level='search' needs an estimator cost model"
            )
        return compile_search(
            circuits, device, estimator,
            seed=seed, seeds=seeds, keep_final_rz=keep_final_rz,
            num_trials=num_trials, max_workers=max_workers,
            workers_mode=workers_mode, on_result=on_result,
            **(search_opts or {}),
        )

    n = len(circuits)
    if seeds is None:
        seeds = [seed + SEED_STRIDE * i for i in range(n)]
    elif len(seeds) != n:
        raise ValueError("seeds must match circuits in length")

    workers = resolve_workers(max_workers, n)
    mode = resolve_mode(workers_mode, default="process")

    if mode == "process" and workers > 1 and n >= PROCESS_MIN_ITEMS:
        device.routing_tables  # precompute once so workers inherit them
        decoded: Dict[int, CompilationResult] = {}

        def _decode(index: int, payload: Tuple) -> None:
            compiled, initial_layout, final_layout, properties = payload
            result = CompilationResult(
                circuit=compiled,
                initial_layout=initial_layout,
                final_layout=final_layout,
                device=device,
                optimization_level=optimization_level,
                properties=properties,
            )
            decoded[index] = result
            if on_result is not None:
                on_result(index, result)

        parallel_map(
            _compile_in_worker,
            [(circuit, s) for circuit, s in zip(circuits, seeds)],
            max_workers=workers,
            mode="process",
            on_result=_decode,
            initializer=_init_compile_worker,
            initargs=(device, optimization_level, keep_final_rz, num_trials),
        )
        return [decoded[index] for index in range(n)]

    def job(index: int) -> CompilationResult:
        return compile_circuit(
            circuits[index],
            device,
            optimization_level=optimization_level,
            seed=seeds[index],
            keep_final_rz=keep_final_rz,
            num_trials=num_trials,
        )

    return parallel_map(
        job, range(n), max_workers=workers, on_result=on_result, mode="thread"
    )


def _run_single(
    body: QuantumCircuit,
    device: Device,
    optimization_level: int,
    seed: int,
    keep_final_rz: bool,
    layout: str | None,
    routing_seed: int | None,
) -> Tuple[QuantumCircuit, PropertySet]:
    pipeline = _build_pipeline(
        device, optimization_level, seed, keep_final_rz, layout, routing_seed
    )
    properties = PropertySet()
    compiled = _pass_manager(pipeline).run(body, properties)
    return compiled, properties


def _run_trials(
    body: QuantumCircuit,
    device: Device,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
) -> Tuple[QuantumCircuit, PropertySet]:
    """Level 3: several layout/routing trials, best expected fidelity wins.

    The trial-invariant prefix (decompose + optimization loop on the
    program body) runs once and every trial continues from its output;
    trials share the device's cached routing tables through their layout
    and routing passes, and all candidates are scored in one vectorized
    expected-fidelity sweep.
    """
    from ..fom.metrics import expected_fidelity_batch

    prepared = _pass_manager([Decompose(), OptimizationLoop()]).run(
        body, PropertySet()
    )

    layouts = ["greedy", "trivial", "line"] + ["greedy"] * max(0, num_trials - 3)
    candidates: List[Tuple[QuantumCircuit, PropertySet]] = []
    for trial in range(num_trials):
        layout = layouts[trial % len(layouts)]
        suffix = _trial_suffix(
            device, seed + trial, keep_final_rz,
            layout if layout != "greedy" else None,
            routing_seed=seed * 1000 + trial,
        )
        properties = PropertySet()
        compiled = _pass_manager(suffix).run(prepared, properties)
        candidates.append((compiled, properties))

    scores = expected_fidelity_batch(
        [compiled for compiled, _ in candidates],
        device,
        calibration=device.reported_calibration,
    )
    # First occurrence of the maximum mirrors the historical scan's
    # strict-greater-than update rule.
    best = int(scores.argmax())
    return candidates[best]
