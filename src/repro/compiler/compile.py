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
calibration arrays.  A whole compile's output is itself a cache entry
(see :func:`_compile_key`), so a warm compile runs no pass and scores
nothing: it is one lookup that rebuilds one circuit.
:func:`compile_batch` resolves those lookups in the caller before it
compiles the misses through a worker pool with deterministic
per-circuit seed streams, mirroring
:meth:`repro.simulation.executor.QPUExecutor.run_batch` — and because
compilation is pure Python (GIL-bound), the batch runs on a *process*
pool (:mod:`repro.parallel`), which scales with cores where threads
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.device import Device
from .cache import CompileCache, active_compile_cache
from .passes.base import (
    Pass,
    PassManager,
    PropertySet,
    circuit_cache_fingerprint,
    restore_result,
    snapshot_result,
)
from .passes.decompose import Decompose
from .passes.layout import GreedySubgraphLayout, LineLayout, TrivialLayout
from .passes.optimization import Merge1QRuns, OptimizationLoop, RemoveIdentities
from .passes.routing import _LOOKAHEAD_SIZE, PathRouting, SabreRouting
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


def _prepare(
    circuit: QuantumCircuit, device: Device
) -> Tuple[QuantumCircuit, List[Tuple[int, int]]]:
    """Check that ``circuit`` fits ``device``; returns its body and its
    stripped terminal measurements."""
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits, device "
            f"{device.name} has {device.num_qubits}"
        )
    return _split_measurements(circuit)


def _remeasure(
    compiled: QuantumCircuit,
    measurements: List[Tuple[int, int]],
    num_clbits: int,
    final_layout: Dict[int, int],
) -> QuantumCircuit:
    """Re-append ``measurements`` to ``compiled`` in place, each on the
    physical qubit that holds its program qubit after routing."""
    if compiled.num_clbits < num_clbits:
        compiled.num_clbits = num_clbits
    for program_qubit, clbit in measurements:
        compiled.measure(final_layout[program_qubit], clbit)
    return compiled


def _pass_manager(passes: List[Pass]) -> PassManager:
    """A pipeline wired to the shared compile cache, history disabled."""
    return PassManager(
        passes, cache=active_compile_cache(), collect_history=False
    )


def _run(
    circuit: QuantumCircuit, passes: List[Pass]
) -> Tuple[QuantumCircuit, PropertySet]:
    """Run ``passes`` on ``circuit``; returns the output and its properties."""
    properties = PropertySet()
    return _pass_manager(passes).run(circuit, properties), properties


# ----------------------------------------------------------------------
# The trial engine: level 2, the level-3 trials and every search
# configuration are built here, so their pass cache keys agree.

#: SABRE lookahead window and optimization-loop budget of a stock trial.
STOCK_LOOKAHEAD_SIZE = _LOOKAHEAD_SIZE
STOCK_OPT_ITERATIONS = OptimizationLoop().max_iterations

#: Layouts of the first level-3 trials; later trials use ``"greedy"``.
_TRIAL_LAYOUTS = ("greedy", "trivial", "line")


def _prefix() -> List[Pass]:
    """The trial-invariant head of level 2, level 3 and search."""
    return [Decompose(), OptimizationLoop()]


def _trial_layout(trial: int) -> str:
    """Layout of level-3 trial ``trial``: greedy, trivial, line, greedy..."""
    return _TRIAL_LAYOUTS[trial] if trial < len(_TRIAL_LAYOUTS) else "greedy"


def _trial_seeds(
    seed: int, layout_seed_offset: int, routing_seed_offset: int
) -> Tuple[int, int]:
    """The (layout, routing) seeds of a trial at offsets from a circuit's
    base seed (level-3 trial ``t`` uses offsets ``(t, t)``)."""
    return seed + layout_seed_offset, seed * 1000 + routing_seed_offset


def _trial_suffix(
    device: Device,
    keep_final_rz: bool,
    layout: str,
    layout_seed: int,
    routing_seed: int,
    lookahead_size: int = STOCK_LOOKAHEAD_SIZE,
    opt_iterations: int = STOCK_OPT_ITERATIONS,
) -> List[Pass]:
    """The trial-varying tail of the level-2/3 and search pipelines."""
    coupling = device.coupling
    if layout == "line":
        layout_pass = LineLayout(coupling)
    elif layout == "trivial":
        layout_pass = TrivialLayout(coupling)
    else:
        layout_pass = GreedySubgraphLayout(coupling, seed=layout_seed)
    return [
        layout_pass,
        SabreRouting(
            coupling, seed=routing_seed, lookahead=lookahead_size > 0,
            lookahead_size=lookahead_size,
        ),
        Decompose(),
        OptimizationLoop(max_iterations=opt_iterations),
        NativeSynthesis(),
        VirtualRZ(keep_final_rz=keep_final_rz),
    ]


def _stock_trials(
    device: Device, seed: int, keep_final_rz: bool, num_trials: int
) -> List[List[Pass]]:
    """The suffixes of the ``num_trials`` level-3 trials."""
    return [
        _trial_suffix(
            device, keep_final_rz, _trial_layout(trial),
            *_trial_seeds(seed, trial, trial),
        )
        for trial in range(num_trials)
    ]


def _pick_best(
    candidates: Sequence[QuantumCircuit], device: Device
) -> Tuple[int, float]:
    """Index and score of the candidate with the best expected fidelity
    on the device's reported calibration.  The first occurrence of the
    maximum wins, so earlier candidates win ties."""
    from ..fom.metrics import expected_fidelity_batch

    scores = expected_fidelity_batch(
        list(candidates), device, calibration=device.reported_calibration
    )
    best = int(scores.argmax())
    return best, float(scores[best])


def _build_pipeline(
    device: Device, optimization_level: int, seed: int, keep_final_rz: bool
) -> List[Pass]:
    """The level-0/1/2 pipeline."""
    coupling = device.coupling
    if optimization_level == 0:
        return [
            Decompose(),
            TrivialLayout(coupling),
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
            TrivialLayout(coupling),
            SabreRouting(coupling, seed=seed, lookahead=False),
            Decompose(),
            Merge1QRuns(),
            NativeSynthesis(),
            VirtualRZ(keep_final_rz=keep_final_rz),
        ]
    return _prefix() + _trial_suffix(
        device, keep_final_rz, "greedy", layout_seed=seed, routing_seed=seed
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
    # One circuit is a batch of one: the whole-compile lookup and store
    # live in compile_batch alone.
    return compile_batch(
        [circuit], device, optimization_level, seeds=[seed],
        keep_final_rz=keep_final_rz, num_trials=num_trials, max_workers=1,
    )[0]


def _compile_key(
    cache: Optional[CompileCache],
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
) -> Optional[Tuple]:
    """Compile-cache key of a whole compile, or ``None``.

    A compile is a pure function of the input circuit's content and of
    its pipeline's pass configurations, whose keys hold the seeds and
    the coupling map.  Level 3 also depends on the reported fidelities
    its trials are scored on.  Calibrations are mutable dicts, so the
    key holds their content, never their identity: an in-place edit
    changes the key and the trials are scored again.  Pass keys and
    fidelities enter as content hashes, as the circuit does in its
    fingerprint, so a key holds a few ints rather than a copy of the
    calibration.  The leading tag keeps these entries apart from the
    pass-result keys.  ``None`` when caching is off or some pass is
    uncacheable.
    """
    if cache is None:
        return None
    if optimization_level < 3:
        pipelines = [_build_pipeline(
            device, optimization_level, seed, keep_final_rz
        )]
    else:
        pipelines = [_prefix()] + _stock_trials(
            device, seed, keep_final_rz, num_trials
        )
    pass_keys = tuple(
        tuple(pass_.cache_key() for pass_ in pipeline) for pipeline in pipelines
    )
    if any(key is None for keys in pass_keys for key in keys):
        return None
    key = (
        "compile",
        circuit_cache_fingerprint(circuit),
        optimization_level,
        keep_final_rz,
        num_trials,
        hash(pass_keys),
    )
    if optimization_level == 3:
        calibration = device.reported_calibration
        key += (hash((
            tuple(calibration.one_qubit_fidelity.items()),
            tuple(calibration.two_qubit_fidelity.items()),
            tuple(calibration.readout_fidelity.items()),
        )),)
    return key


def _result(
    circuit: QuantumCircuit,
    compiled: QuantumCircuit,
    properties: PropertySet,
    device: Device,
    optimization_level: "int | str",
) -> CompilationResult:
    """A result whose layouts cover the program qubits of ``circuit``
    (the identity where no pass set a layout)."""
    initial_layout = properties.get(
        "initial_layout", {q: q for q in range(circuit.num_qubits)}
    )
    final_layout = properties.get("final_layout", initial_layout)
    return CompilationResult(
        circuit=compiled,
        initial_layout={q: initial_layout[q] for q in range(circuit.num_qubits)},
        final_layout={q: final_layout[q] for q in range(circuit.num_qubits)},
        device=device,
        optimization_level=optimization_level,
        properties=properties,
    )


def _finish(
    circuit: QuantumCircuit,
    compiled: QuantumCircuit,
    properties: PropertySet,
    measurements: List[Tuple[int, int]],
    device: Device,
    optimization_level: "int | str",
) -> CompilationResult:
    """The result of compiling ``circuit`` to ``compiled``: measurements
    re-appended, ``circuit``'s name and metadata stamped with the level,
    and the output validated against ``device``."""
    result = _result(circuit, compiled, properties, device, optimization_level)
    _remeasure(compiled, measurements, circuit.num_clbits, result.final_layout)
    compiled.name = circuit.name
    compiled.metadata.update(circuit.metadata)
    compiled.metadata["optimization_level"] = optimization_level
    device.validate_circuit(compiled)
    return result


def _compile_uncached(
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
) -> CompilationResult:
    """Run ``circuit``'s pipeline (its passes may still hit the cache)."""
    body, measurements = _prepare(circuit, device)
    if optimization_level < 3:
        compiled, properties = _run(body, _build_pipeline(
            device, optimization_level, seed, keep_final_rz
        ))
    else:
        compiled, properties = _run_trials(
            body, device, seed, keep_final_rz, num_trials
        )
    return _finish(
        circuit, compiled, properties, measurements, device,
        optimization_level,
    )


def _compile_task(
    device: Device,
    optimization_level: int,
    keep_final_rz: bool,
    num_trials: int,
    task: Tuple[QuantumCircuit, int],
) -> Tuple:
    """Compile one ``(circuit, seed)`` miss of a :func:`compile_batch`."""
    circuit, task_seed = task
    return _payload(_compile_uncached(
        circuit, device, optimization_level, task_seed, keep_final_rz,
        num_trials,
    ))


def _payload(result: CompilationResult) -> Tuple:
    """A batch task's result *without* the device: shipping the device
    back from a pool worker on every item would dominate the payload."""
    return (
        result.circuit,
        result.initial_layout,
        result.final_layout,
        result.properties,
    )


def _seed_streams(
    seed: int, seeds: Optional[Sequence[int]], n: int
) -> Sequence[int]:
    """A batch's per-circuit seeds: ``seeds`` when given, else circuit
    ``i`` gets ``seed + SEED_STRIDE * i``."""
    if seeds is None:
        return [seed + SEED_STRIDE * i for i in range(n)]
    if len(seeds) != n:
        raise ValueError("seeds must match circuits in length")
    return seeds


def _map_compile(
    task: Callable,
    items: List,
    shared: tuple,
    device: Device,
    optimization_level: "int | str",
    max_workers: Optional[int],
    on_result: Optional[Callable[[int, CompilationResult], None]],
) -> List[CompilationResult]:
    """Fan a compile batch out and decode every task payload in the
    parent, re-attaching the caller's ``device``.

    ``on_result`` fires with the decoded result as each item completes.
    """
    from ..parallel import parallel_map

    device.routing_tables  # precompute once so pool workers inherit them
    decoded: Dict[int, CompilationResult] = {}

    def decode(index: int, payload: Tuple) -> None:
        compiled, initial_layout, final_layout, properties = payload
        decoded[index] = result = CompilationResult(
            circuit=compiled,
            initial_layout=initial_layout,
            final_layout=final_layout,
            device=device,
            optimization_level=optimization_level,
            properties=properties,
        )
        if on_result is not None:
            on_result(index, result)

    parallel_map(
        task,
        items,
        max_workers=max_workers,
        on_result=decode,
        mode="process",
        shared=shared,
    )
    return [decoded[index] for index in range(len(items))]


def compile_batch(
    circuits: Sequence[QuantumCircuit],
    device: Device,
    optimization_level: "int | str" = 3,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    keep_final_rz: bool = False,
    num_trials: int = 4,
    max_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, CompilationResult], None]] = None,
    estimator=None,
    search_opts: Optional[dict] = None,
) -> List[CompilationResult]:
    """Compile many circuits, in parallel, with per-circuit seed streams.

    Circuit ``i`` is compiled exactly as ``compile_circuit(circuits[i],
    device, optimization_level, seed=seeds[i], ...)`` would — results come
    back in input order and are bit-identical for every worker count,
    because each circuit's stochastic pass decisions depend only on its
    own seed (pinned by the golden-digest and property tests).

    Every circuit is first looked up in the caller's
    :class:`~repro.compiler.cache.CompileCache` (one whole-compile entry
    each, see :func:`_compile_key`); only the misses are compiled.
    Compilation is pure Python, so threads cannot speed it up — the GIL
    serializes them.  Pooled misses therefore fan out over the process's
    shared spawn pool (:mod:`repro.parallel`), whose long-lived workers
    each hold their own pass cache, emptied when the worker installs
    this batch's invariants.  Circuits,
    :class:`~repro.hardware.coupling.RoutingTables` and results cross the
    process boundary through cheap flat-array encodings.  Each result
    is stored under its whole-compile key in the caller's cache as it
    comes back, whichever process compiled it, so the next batch of the
    same circuits is all hits and fans nothing out.

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
    from ..parallel import resolve_workers

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
            on_result=on_result,
            **(search_opts or {}),
        )

    n = len(circuits)
    seeds = _seed_streams(seed, seeds, n)
    if not (
        isinstance(optimization_level, int) and 0 <= optimization_level <= 3
    ):
        raise ValueError("optimization_level must be in 0..3 or 'search'")

    # Callback errors are held back until every circuit is delivered,
    # as repro.parallel's contract asks; hits are delivered first.
    callback_errors: List[BaseException] = []

    def deliver(index: int, result: CompilationResult) -> None:
        results[index] = result
        if on_result is not None:
            try:
                on_result(index, result)
            except BaseException as exc:
                callback_errors.append(exc)

    cache = active_compile_cache()
    keys = [
        _compile_key(
            cache, circuit, device, optimization_level, task_seed,
            keep_final_rz, num_trials,
        )
        for circuit, task_seed in zip(circuits, seeds)
    ]
    results: List[Optional[CompilationResult]] = [None] * n
    misses = []
    for index, key in enumerate(keys):
        entry = cache.get(key) if key is not None else None
        if entry is None:
            misses.append(index)
        else:
            properties = PropertySet()
            compiled = restore_result(entry, circuits[index], properties)
            device.validate_circuit(compiled)
            deliver(index, _result(
                circuits[index], compiled, properties, device,
                optimization_level,
            ))

    def store(position: int, result: CompilationResult) -> None:
        index = misses[position]
        if keys[index] is not None:
            cache.put(keys[index], snapshot_result(
                circuits[index], result.circuit, result.properties
            ))
        deliver(index, result)

    _map_compile(
        _compile_task,
        [(circuits[index], seeds[index]) for index in misses],
        (device, optimization_level, keep_final_rz, num_trials),
        device,
        optimization_level,
        resolve_workers(max_workers, n),
        store,
    )
    if callback_errors:
        raise callback_errors[0]
    return results


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
    prepared, _ = _run(body, _prefix())
    candidates = [
        _run(prepared, suffix)
        for suffix in _stock_trials(device, seed, keep_final_rz, num_trials)
    ]
    best, _ = _pick_best([compiled for compiled, _ in candidates], device)
    return candidates[best]
