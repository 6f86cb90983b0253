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

Throughput comes from three mechanisms, each making a cold study do a
piece of work once.  Pass results that are pure functions of
``(circuit, device, options)`` are memoized in the shared
:mod:`~repro.compiler.cache` (so warm recompiles and overlapping trials
skip entire passes).  Level-3 trials share their trial-invariant prefix —
the decompose + optimization-loop "body" runs once, not once per trial —
and candidates are scored with one vectorized
:func:`~repro.fom.metrics.expected_fidelity_batch` sweep over a dense
calibration table.  And whole compiles are cache entries, held in the
caller: a compile's output (see :func:`_compile_key`), so a warm compile
runs no pass and scores nothing, and a level-3 compile's trial set (see
:func:`_trial_key`), which depends on the coupling map but not on the
calibration, so a second device on the same topology (Q20-B after
Q20-A) runs no pass either and only re-picks the winner on its own
reported fidelities.  :func:`compile_batch` resolves those lookups in
the caller before it compiles the misses through a worker pool with
deterministic per-circuit seed streams, mirroring
:meth:`repro.simulation.executor.QPUExecutor.run_batch` — and because
compilation is pure Python (GIL-bound), the batch runs on a *process*
pool (:mod:`repro.parallel`), which scales with cores where threads
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import SEED_STRIDE as SEED_STRIDE  # re-exported
from ..circuits.circuit import QuantumCircuit, batch_seeds
from ..hardware.device import Device
from .cache import CachedPassResult, CompileCache, active_compile_cache
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
    candidates: Sequence["QuantumCircuit | CachedPassResult"], device: Device
) -> Tuple[int, float]:
    """Index and score of the candidate with the best expected fidelity
    on the device's reported calibration.  The first occurrence of the
    maximum wins, so earlier candidates win ties.  Candidates are
    compiled circuits or their snapshot entries (see
    :func:`_compile_task`), scored alike."""
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


def _pass_key_hash(
    cache: CompileCache,
    device: Device,
    optimization_level: int,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
) -> Optional[int]:
    """Hash of every pass key of a compile's pipelines (level 3: the
    prefix, then each trial suffix), or ``None`` when some pass is
    uncacheable.

    Pass keys depend on the device only through its coupling map, so the
    hash is memoized under the coupling fingerprint and the options: a
    warm compile builds no pass object.
    """

    def pass_keys() -> Optional[int]:
        if optimization_level < 3:
            pipelines = [_build_pipeline(
                device, optimization_level, seed, keep_final_rz
            )]
        else:
            pipelines = [_prefix()] + _stock_trials(
                device, seed, keep_final_rz, num_trials
            )
        keys = tuple(
            tuple(pass_.cache_key() for pass_ in pipeline)
            for pipeline in pipelines
        )
        if any(key is None for pipeline in keys for key in pipeline):
            return None
        return hash(keys)

    return cache.memo(
        (
            "pass-keys", device.coupling.fingerprint(), optimization_level,
            seed, keep_final_rz, num_trials,
        ),
        pass_keys,
    )


def _compile_key(
    cache: Optional[CompileCache],
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
    calibration_hash: Optional[int] = None,
) -> Optional[Tuple]:
    """Compile-cache key of a whole compile, or ``None``.

    A compile is a pure function of the input circuit's content and of
    its pipeline's pass configurations, whose keys hold the seeds and
    the coupling map.  The device's native gates are a term too: they
    do not change the output, but an entry is validated against them
    once, when it is stored, so a hit under the same key is valid
    without a second check.  Level 3 also depends on the reported
    calibration its trials are scored on: the key's last term is the
    hash of its :meth:`~repro.hardware.calibration.Calibration.content_key`
    (``calibration_hash``, computed here when not given), never the
    calibration's identity, so an in-place edit changes the key and the
    trials are scored again.  Pass keys enter as one
    memoized content hash, as the circuit does in its fingerprint, so a
    key holds a few ints rather than a copy of the calibration.  The
    leading tag keeps these entries apart from the pass-result keys.
    ``None`` when caching is off or some pass is uncacheable.
    """
    if cache is None:
        return None
    pass_hash = _pass_key_hash(
        cache, device, optimization_level, seed, keep_final_rz, num_trials
    )
    if pass_hash is None:
        return None
    key = (
        "compile",
        circuit_cache_fingerprint(circuit),
        optimization_level,
        keep_final_rz,
        num_trials,
        pass_hash,
        frozenset(device.native_gates),
    )
    if optimization_level == 3:
        if calibration_hash is None:
            calibration_hash = hash(device.reported_calibration.content_key())
        key += (calibration_hash,)
    return key


def _trial_key(key: Tuple) -> Tuple:
    """The trial-set key of a level-3 whole-compile key: the same key
    under the ``"trials"`` tag, without its native-gates and calibration
    terms.  Trials depend on the device only through its coupling map,
    so devices that share one share the trial set."""
    return ("trials",) + key[1:-2]


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


#: A compile's candidates, each with its properties: the level-0/1/2
#: pipeline's one output, or one output per level-3 trial.
Candidates = List[Tuple[QuantumCircuit, PropertySet]]

#: A compile's candidates as snapshot entries (see
#: :func:`~repro.compiler.passes.base.snapshot_result`): what a worker
#: returns, and a level-3 trial set's cache entry.
Entries = Tuple[CachedPassResult, ...]


def _run_trials(
    body: QuantumCircuit,
    device: Device,
    seed: int,
    keep_final_rz: bool,
    num_trials: int,
) -> Candidates:
    """Level 3's candidates: one per layout/routing trial.

    The trial-invariant prefix (decompose + optimization loop on the
    program body) runs once and every trial continues from its output;
    trials share the device's cached routing tables through their layout
    and routing passes.
    """
    prepared, _ = _run(body, _prefix())
    return [
        _run(prepared, suffix)
        for suffix in _stock_trials(device, seed, keep_final_rz, num_trials)
    ]


def _compile_task(
    device: Device,
    optimization_level: int,
    keep_final_rz: bool,
    num_trials: int,
    task: Tuple[QuantumCircuit, int],
) -> Tuple[int, Entries]:
    """Compile one ``(circuit, seed)`` miss of a :func:`compile_batch`.

    Returns the winner's index and the compile's candidates, each a
    :func:`~repro.compiler.passes.base.snapshot_result` entry of
    ``circuit`` without its measurements: the level-0/1/2 pipeline's
    one output, or every level-3 trial's, the winner picked here on the
    device's reported calibration.  The caller finishes the winner.
    """
    circuit, task_seed = task
    body, _ = _prepare(circuit, device)
    if optimization_level < 3:
        candidates = [_run(body, _build_pipeline(
            device, optimization_level, task_seed, keep_final_rz
        ))]
    else:
        candidates = _run_trials(
            body, device, task_seed, keep_final_rz, num_trials
        )
    entries = tuple(
        snapshot_result(circuit, compiled, properties)
        for compiled, properties in candidates
    )
    best = _pick_best(entries, device)[0] if optimization_level == 3 else 0
    return best, entries


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
    :class:`~repro.compiler.cache.CompileCache`: its whole-compile entry
    (see :func:`_compile_key`), then, at level 3, its trial set (see
    :func:`_trial_key`), whose winner is re-picked on this device's
    reported calibration and finished in the caller.  Only a miss on
    both is compiled.  Compilation is pure Python, so threads cannot
    speed it up — the GIL serializes them.  Pooled misses therefore fan
    out over the process's shared spawn pool (:mod:`repro.parallel`),
    whose long-lived workers each hold their own pass cache, emptied
    when the worker installs this batch's invariants.  A worker returns
    a miss's candidates as snapshot entries with the index of the winner
    it picked (see :func:`_compile_task`); circuits,
    :class:`~repro.hardware.coupling.RoutingTables` and snapshots cross
    the process boundary through cheap flat-array encodings.  As each
    miss comes back, whichever process compiled it, the caller rebuilds
    and finishes the winner exactly as on a trial-set hit and stores the
    trial set and the whole compile, so the next batch of the same
    circuits is all hits and fans nothing out, and the same batch on
    another device with this coupling map fans nothing out either.

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
    from ..parallel import parallel_map, resolve_workers

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
    seeds = batch_seeds(seed, range(n), seeds)
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
    calibration_hash = (
        hash(device.reported_calibration.content_key())
        if cache is not None and optimization_level == 3 else None
    )
    keys = [
        _compile_key(
            cache, circuit, device, optimization_level, task_seed,
            keep_final_rz, num_trials, calibration_hash,
        )
        for circuit, task_seed in zip(circuits, seeds)
    ]
    results: List[Optional[CompilationResult]] = [None] * n

    def finish(index: int, entry: CachedPassResult) -> None:
        # Rebuild the winner of circuit ``index`` from its snapshot,
        # finish it, and store the whole compile.
        circuit = circuits[index]
        properties = PropertySet()
        compiled = restore_result(entry, circuit, properties)
        _, measurements = _prepare(circuit, device)
        result = _finish(
            circuit, compiled, properties, measurements, device,
            optimization_level,
        )
        if keys[index] is not None:
            cache.put(keys[index], snapshot_result(
                circuit, result.circuit, result.properties
            ))
        deliver(index, result)

    misses = []
    for index, key in enumerate(keys):
        if key is None:
            misses.append(index)
            continue
        entry = cache.get(key)
        if entry is not None:
            # Validated against this key's native gates when stored.
            properties = PropertySet()
            compiled = restore_result(entry, circuits[index], properties)
            deliver(index, _result(
                circuits[index], compiled, properties, device,
                optimization_level,
            ))
            continue
        trials = cache.get(_trial_key(key)) if optimization_level == 3 else None
        if trials is None:
            misses.append(index)
            continue
        # Another device with this coupling map ran these trials: pick
        # the winner on this device's reported calibration, as the
        # worker did.
        finish(index, trials[_pick_best(trials, device)[0]])

    def compiled(position: int, payload: Tuple[int, Entries]) -> None:
        index = misses[position]
        best, entries = payload
        if keys[index] is not None and optimization_level == 3:
            cache.put(_trial_key(keys[index]), entries)
        finish(index, entries[best])

    device.routing_tables  # precompute once so pool workers inherit them
    parallel_map(
        _compile_task,
        [(circuits[index], seeds[index]) for index in misses],
        max_workers=resolve_workers(max_workers, n),
        on_result=compiled,
        mode="process",
        shared=(device, optimization_level, keep_final_rz, num_trials),
    )
    if callback_errors:
        raise callback_errors[0]
    return results


