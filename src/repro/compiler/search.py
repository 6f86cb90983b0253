"""Predictor-guided beam search over compiler pass configurations.

Level 3 sweeps a *fixed* set of layout/routing trials and keeps the best
exact expected fidelity.  This module closes the paper's loop: the trained
FoM estimator is fast enough (~ms per circuit) to act as the *cost model
inside the compiler*, so instead of four hard-coded trials we run a beam
search over the pass-configuration space — layout kinds and seeds, SABRE
lookahead depth, optimization-loop schedules — scoring every candidate
with one batched featurize + ``estimator.predict`` sweep per generation,
and re-scoring only the surviving front with the exact
:func:`~repro.fom.metrics.expected_fidelity_batch`.

**Parity is guaranteed by construction**: the exact re-score set always
contains the stock level-3 trial candidates (they seed generation 0), so
the search winner's expected fidelity is ``>=`` stock level 3's for every
circuit, for any beam knobs — when nothing beats stock, the output is
bit-identical to ``compile_circuit(..., optimization_level=3)``.

Winning configurations persist as ``leaderboard`` artifacts in the
:class:`~repro.evaluation.artifacts.ArtifactStore`, keyed by
``(device-family, width-bucket)`` and fingerprinted by the estimator and
search knobs.  Warm compiles consult the leaderboard first and compile
only the incumbent configuration (one pass suffix instead of the stock
four), which is where the search *wins compile time*; searches only run
for buckets with no incumbent.  Committed entries live under
``benchmarks/leaderboards/`` and are byte-identical reproducible
(canonical JSON, no timestamps).

Every candidate is built by the level-3 trial builder of
:mod:`repro.compiler.compile` and finished through the same compile
skeleton (width check, measurement re-append, first-maximum fidelity
pick, name/metadata stamp and validation); this module owns only the
beam expansion, predictor ranking, leaderboard and counters.

Search activity is observable through :func:`search_stats` — the same
module-counter idiom as :func:`~repro.compiler.cache.compile_cache_stats`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit, batch_seeds
from ..hardware.device import Device
from .compile import (
    STOCK_LOOKAHEAD_SIZE,
    STOCK_OPT_ITERATIONS,
    _TRIAL_LAYOUTS,
    CompilationResult,
    _finish,
    _pick_best,
    _prefix,
    _prepare,
    _remeasure,
    _run,
    _trial_layout,
    _trial_seeds,
    _trial_suffix,
)
from .passes.base import Pass, PropertySet

#: Default number of configurations surviving each generation.
DEFAULT_BEAM_WIDTH = 4
#: Default number of expansion generations after the seed population.
DEFAULT_GENERATIONS = 2

#: Knob ladders the neighbor expansion walks (stock values included).
LOOKAHEAD_LADDER = (0, 10, STOCK_LOOKAHEAD_SIZE, 40)
OPT_ITERATIONS_LADDER = (2, 4, 8, 12)


@dataclass(frozen=True)
class PassConfig:
    """One point in the pass-configuration search space.

    Seeds are stored as *offsets* relative to the per-circuit base seed,
    turned into seeds by the level-3 trial convention of the one trial
    builder in :mod:`repro.compiler.compile`, so a winning configuration
    generalizes across circuits and seed streams instead of memorizing
    one absolute seed.
    """

    layout: str = "greedy"
    layout_seed_offset: int = 0
    routing_seed_offset: int = 0
    lookahead_size: int = STOCK_LOOKAHEAD_SIZE
    opt_iterations: int = STOCK_OPT_ITERATIONS

    def __post_init__(self):
        if self.layout not in _TRIAL_LAYOUTS:
            raise ValueError(
                f"layout must be one of {_TRIAL_LAYOUTS}, got {self.layout!r}"
            )
        if self.lookahead_size < 0:
            raise ValueError("lookahead_size must be >= 0")
        if self.opt_iterations < 1:
            raise ValueError("opt_iterations must be >= 1")

    def passes(
        self, device: Device, seed: int, keep_final_rz: bool
    ) -> List[Pass]:
        """The trial suffix this configuration compiles with: the level-3
        trial builder at this configuration's knobs, so the stock values
        at offsets ``t`` are exactly level-3 trial ``t``."""
        return _trial_suffix(
            device, keep_final_rz, self.layout,
            *_trial_seeds(
                seed, self.layout_seed_offset, self.routing_seed_offset
            ),
            lookahead_size=self.lookahead_size,
            opt_iterations=self.opt_iterations,
        )

    def key(self) -> Tuple:
        return (
            self.layout, self.layout_seed_offset, self.routing_seed_offset,
            self.lookahead_size, self.opt_iterations,
        )

    def to_dict(self) -> Dict:
        return {
            "layout": self.layout,
            "layout_seed_offset": self.layout_seed_offset,
            "routing_seed_offset": self.routing_seed_offset,
            "lookahead_size": self.lookahead_size,
            "opt_iterations": self.opt_iterations,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PassConfig":
        return cls(
            layout=str(payload["layout"]),
            layout_seed_offset=int(payload["layout_seed_offset"]),
            routing_seed_offset=int(payload["routing_seed_offset"]),
            lookahead_size=int(payload["lookahead_size"]),
            opt_iterations=int(payload["opt_iterations"]),
        )

    def neighbors(self, num_trials: int) -> List["PassConfig"]:
        """Deterministic one-step mutations (the beam expansion moves)."""
        out: List[PassConfig] = []
        for layout in _TRIAL_LAYOUTS:
            if layout != self.layout:
                out.append(self._replace(layout=layout))
        if self.layout == "greedy":
            out.append(
                self._replace(
                    layout_seed_offset=self.layout_seed_offset + num_trials
                )
            )
        out.append(
            self._replace(
                routing_seed_offset=self.routing_seed_offset + num_trials
            )
        )
        for size in _ladder_steps(self.lookahead_size, LOOKAHEAD_LADDER):
            out.append(self._replace(lookahead_size=size))
        for iterations in _ladder_steps(
            self.opt_iterations, OPT_ITERATIONS_LADDER
        ):
            out.append(self._replace(opt_iterations=iterations))
        return out

    def _replace(self, **changes) -> "PassConfig":
        payload = self.to_dict()
        payload.update(changes)
        return PassConfig(**payload)


def _ladder_steps(value: int, ladder: Sequence[int]) -> List[int]:
    """The ladder values adjacent to ``value`` (one down, one up)."""
    below = [v for v in ladder if v < value]
    above = [v for v in ladder if v > value]
    steps: List[int] = []
    if below:
        steps.append(max(below))
    if above:
        steps.append(min(above))
    return steps


def stock_configs(num_trials: int = 4) -> List[PassConfig]:
    """The fixed level-3 trial sweep expressed as :class:`PassConfig` rows.

    ``stock_configs(n)[t]`` compiles bit-identically to level-3 trial
    ``t`` of ``compile_circuit(..., num_trials=n)``.
    """
    return [
        PassConfig(
            layout=_trial_layout(trial),
            layout_seed_offset=trial,
            routing_seed_offset=trial,
        )
        for trial in range(num_trials)
    ]


# ----------------------------------------------------------------------
# Search statistics (the compile_cache_stats idiom).

_STATS_LOCK = threading.Lock()


def _zero_stats() -> Dict[str, int]:
    return {
        "searches": 0,          # full beam searches run
        "warm_starts": 0,       # compiles served from a leaderboard incumbent
        "generations": 0,       # expansion generations actually run
        "beam_survivors": 0,    # configs in the final fronts
        "configs_evaluated": 0,  # candidate compilations
        "predictor_calls": 0,   # batched estimator.predict invocations
        "exact_rescores": 0,    # candidates re-scored with expected_fidelity
        "leaderboard_writes": 0,
    }


_STATS = _zero_stats()


def search_stats() -> Dict[str, int]:
    """A snapshot of the process-wide search counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_search_stats() -> None:
    """Zero the counters (benchmarks and tests)."""
    with _STATS_LOCK:
        _STATS.update(_zero_stats())


def _bump_stats(delta: Dict[str, int]) -> None:
    with _STATS_LOCK:
        for key, value in delta.items():
            _STATS[key] = _STATS.get(key, 0) + value


# ----------------------------------------------------------------------
# Leaderboard addressing.


def device_family(device: Device) -> str:
    """The leaderboard grouping key of a device.

    Zoo devices (``zoo-<family><n>-<tier>-s<seed>``) collapse to
    ``zoo-<family>-<tier>`` — one leaderboard row serves every size and
    calibration seed of a family/tier; built-in devices use their name.
    """
    name = device.name.lower()
    if name.startswith("zoo-"):
        head, _, tail = name[4:].partition("-")
        family = head.rstrip("0123456789")
        tier = tail.partition("-")[0]
        return f"zoo-{family}-{tier}" if tier else f"zoo-{family}"
    return name


def width_bucket(num_qubits: int) -> str:
    """Four-qubit-wide width buckets: ``w01-04``, ``w05-08``, ..."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    lo = ((num_qubits - 1) // 4) * 4 + 1
    return f"w{lo:02d}-{lo + 3:02d}"


def leaderboard_name(device: Device, num_qubits: int) -> str:
    """The artifact ``name`` of a (device-family, width-bucket) row."""
    return f"{device_family(device)}-{width_bucket(num_qubits)}"


def model_fingerprint(estimator) -> str:
    """Content hash of a fitted estimator (leaderboard staleness key).

    Forest-backed estimators (:class:`HellingerEstimator`, a raw
    :class:`RandomForestRegressor`) hash their tree node arrays and
    hyper-parameters, so refitting — even to identical scores — rotates
    the fingerprint.  ``np.savez`` archives are *not* byte-stable, so the
    hash is over array contents, never file bytes.  Estimators exposing
    nothing introspectable fall back to a class-name hash.
    """
    from ..evaluation.persistence import config_fingerprint

    forest = getattr(estimator, "model", None)
    if forest is None and hasattr(estimator, "estimators_"):
        forest = estimator
    trees = getattr(forest, "estimators_", None)
    if not trees:
        return config_fingerprint(
            {"class": type(estimator).__qualname__, "kind": "opaque"}
        )
    digest = hashlib.sha256()
    meta = {
        "class": type(estimator).__qualname__,
        "params": forest.get_params(),
        "num_trees": len(trees),
    }
    digest.update(json.dumps(meta, sort_keys=True, default=str).encode())
    for tree in trees:
        for key in sorted(tree.to_arrays()):
            array = np.ascontiguousarray(tree.to_arrays()[key])
            digest.update(key.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def leaderboard_fingerprint(
    estimator_fingerprint: str,
    beam_width: int,
    generations: int,
    num_trials: int,
) -> str:
    """The content fingerprint leaderboard entries are addressed by."""
    from ..evaluation.persistence import (
        LEADERBOARD_VERSION,
        config_fingerprint,
    )

    return config_fingerprint(
        {
            "estimator": estimator_fingerprint,
            "beam_width": int(beam_width),
            "generations": int(generations),
            "num_trials": int(num_trials),
            "version": LEADERBOARD_VERSION,
        }
    )


class LeaderboardSession:
    """Read-snapshot + deferred-write view of the leaderboard store.

    A batch (or a chunked :class:`~repro.predictor.service.FomService`
    call spanning several batches) must behave as if the leaderboard were
    frozen at call start: lookups go to the backing store, writes queue
    up in the session and only land on :meth:`flush`.  First write per
    row wins, so with in-input-order recording the lowest-index searched
    circuit crowns the row — deterministic for every worker count, pool
    mode, and chunk size.
    """

    def __init__(
        self,
        store,
        fingerprint: str,
        warm_start: bool = True,
        record: bool = True,
    ):
        from ..evaluation.artifacts import ArtifactStore

        self.store = ArtifactStore.coerce(store)
        self.fingerprint = fingerprint
        self.warm_start = warm_start
        self.record_enabled = record
        self.estimator_fingerprint: Optional[str] = None
        self._incumbents: Dict[str, Optional[Dict]] = {}
        self._pending: Dict[str, Dict] = {}

    @classmethod
    def for_search(
        cls,
        store,
        estimator,
        *,
        beam_width: int = DEFAULT_BEAM_WIDTH,
        generations: int = DEFAULT_GENERATIONS,
        num_trials: int = 4,
        warm_start: bool = True,
        record: bool = True,
    ) -> "LeaderboardSession":
        """A session addressed the way :func:`compile_search` addresses."""
        estimator_fingerprint = model_fingerprint(estimator)
        fingerprint = leaderboard_fingerprint(
            estimator_fingerprint, beam_width, generations, num_trials
        )
        session = cls(store, fingerprint, warm_start=warm_start, record=record)
        session.estimator_fingerprint = estimator_fingerprint
        return session

    def incumbent(self, name: str) -> Optional[PassConfig]:
        """The stored winning config of row ``name``, or ``None``.

        Any load problem (missing, corrupt, foreign, stale fingerprint)
        is a silent miss: the caller searches fresh, exactly the
        :class:`ArtifactStore` failure policy.
        """
        if self.store is None or not self.warm_start:
            return None
        if name not in self._incumbents:
            self._incumbents[name] = self.store.get(
                "leaderboard", name, self.fingerprint
            )
        entry = self._incumbents[name]
        if entry is None:
            return None
        return PassConfig.from_dict(entry["config"])

    def record(self, name: str, entry: Dict) -> None:
        """Queue a freshly searched winner for row ``name`` (first wins)."""
        if self.store is None or not self.record_enabled:
            return
        if name not in self._pending:
            self._pending[name] = entry

    def flush(self) -> int:
        """Write queued winners to the store; returns the write count."""
        if self.store is None:
            self._pending.clear()
            return 0
        written = 0
        for name in sorted(self._pending):
            self.store.put(
                "leaderboard", self._pending[name], name, self.fingerprint
            )
            written += 1
        self._pending.clear()
        if written:
            _bump_stats({"leaderboard_writes": written})
        return written


# ----------------------------------------------------------------------
# The per-circuit search.


def search_circuit(
    circuit: QuantumCircuit,
    device: Device,
    estimator,
    *,
    seed: int = 0,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    generations: int = DEFAULT_GENERATIONS,
    num_trials: int = 4,
    keep_final_rz: bool = False,
    incumbent: Optional[PassConfig] = None,
):
    """Beam-search one circuit; returns a ``CompilationResult``.

    With ``incumbent`` (a leaderboard hit) the search is skipped and the
    incumbent configuration compiles alone — one pass suffix instead of
    the stock four, the warm fast path.  Otherwise generation 0 seeds the
    beam with the stock level-3 trials, each generation expands the
    surviving front through :meth:`PassConfig.neighbors`, candidates are
    ranked by one batched ``estimator.predict`` per generation, and the
    final front *plus the stock trials* are re-scored exactly —
    guaranteeing expected-fidelity parity-or-win vs level 3.

    ``result.properties["search"]`` holds the outcome: winning config,
    predicted distance, exact expected fidelity, and per-circuit counter
    deltas (also accumulated into :func:`search_stats`).
    """
    result = _search_circuit(
        circuit, device, estimator, seed=seed, beam_width=beam_width,
        generations=generations, num_trials=num_trials,
        keep_final_rz=keep_final_rz, incumbent=incumbent,
    )
    _bump_stats(result.properties["search"]["stats"])
    return result


def _search_circuit(
    circuit: QuantumCircuit,
    device: Device,
    estimator,
    *,
    seed: int,
    beam_width: int,
    generations: int,
    num_trials: int,
    keep_final_rz: bool,
    incumbent: Optional[PassConfig],
):
    """:func:`search_circuit` without folding its counter deltas into
    :func:`search_stats` (batch callers fold them in the parent)."""
    from ..fom.features import feature_vector

    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if generations < 0:
        raise ValueError("generations must be >= 0")
    body, measurements = _prepare(circuit, device)
    prepared, _ = _run(body, _prefix())

    delta = {key: 0 for key in _zero_stats()}
    evaluated: Dict[Tuple, Dict] = {}
    order: List[Tuple] = []

    def measured_copy(compiled: QuantumCircuit, properties: PropertySet):
        """The candidate with measurements re-appended (predictor basis).

        The estimator was trained on features of fully compiled circuits
        *including* their measurements, so candidates are scored on the
        same footing; the exact re-score below uses the bare bodies, the
        level-3 scoring basis.
        """
        if not measurements:
            return compiled
        return _remeasure(
            compiled.copy(), measurements, circuit.num_clbits,
            properties["final_layout"],
        )

    def evaluate(configs: Sequence[PassConfig]) -> List[Tuple]:
        """Compile + predictor-score configs not seen yet; returns keys."""
        # Equal keys mean equal configs, so the dict keeps first sightings.
        fresh = {
            config.key(): config
            for config in configs if config.key() not in evaluated
        }
        if not fresh:
            return []
        rows = [
            (config, *_run(prepared, config.passes(device, seed, keep_final_rz)))
            for config in fresh.values()
        ]
        features = np.stack(
            [
                feature_vector(measured_copy(compiled, properties))
                for _, compiled, properties in rows
            ]
        )
        predictions = np.asarray(estimator.predict(features), dtype=float)
        delta["configs_evaluated"] += len(rows)
        delta["predictor_calls"] += 1
        for (config, compiled, properties), predicted in zip(
            rows, predictions
        ):
            evaluated[config.key()] = {
                "config": config,
                "compiled": compiled,
                "properties": properties,
                "predicted": float(predicted),
            }
        order.extend(fresh)
        return list(fresh)

    def front(width: int) -> List[Tuple]:
        """Top ``width`` keys by predicted distance (stable on ties)."""
        predicted = np.array([evaluated[key]["predicted"] for key in order])
        ranked = np.argsort(predicted, kind="stable")[:width]
        return [order[int(index)] for index in ranked]

    if incumbent is not None:
        evaluate([incumbent])
        rescore_keys = [incumbent.key()]
        delta["warm_starts"] += 1
        source = "leaderboard"
    else:
        stock = stock_configs(num_trials)
        stock_keys = [config.key() for config in stock]
        evaluate(stock)
        for _ in range(generations):
            beam = front(beam_width)
            expansions: List[PassConfig] = []
            for key in beam:
                expansions.extend(evaluated[key]["config"].neighbors(num_trials))
            if not evaluate(expansions):
                break
            delta["generations"] += 1
        beam = front(beam_width)
        delta["beam_survivors"] += len(beam)
        # Exact re-score: the surviving front *plus every stock trial*,
        # stock first, so when nothing beats stock the first-max pick is
        # exactly level 3's.
        rescore_keys = stock_keys + [
            key for key in beam if key not in stock_keys
        ]
        delta["searches"] += 1
        source = "search"

    best, fidelity = _pick_best(
        [evaluated[key]["compiled"] for key in rescore_keys], device
    )
    delta["exact_rescores"] += len(rescore_keys)
    winner = evaluated[rescore_keys[best]]
    result = _finish(
        circuit, winner["compiled"], winner["properties"], measurements,
        device, "search",
    )
    result.properties["search"] = {
        "config": winner["config"].to_dict(),
        "predicted_distance": winner["predicted"],
        "expected_fidelity": fidelity,
        "source": source,
        "num_qubits": circuit.num_qubits,
        "circuit": circuit.name,
        "stats": {key: value for key, value in delta.items() if value},
    }
    return result


# ----------------------------------------------------------------------
# Batch entry point (the compile_batch analogue).


def _search_task(device: Device, estimator, options: dict, task: Tuple):
    """Search one ``(circuit, seed, incumbent)`` task of a
    :func:`compile_search` batch; the parent folds its counter deltas.
    The result comes back without its device, which the parent
    re-attaches: shipping the device back from a pool worker on every
    item would dominate the payload."""
    circuit, task_seed, incumbent = task
    result = _search_circuit(
        circuit, device, estimator,
        seed=task_seed, incumbent=incumbent, **options,
    )
    result.device = None
    return result


def compile_search(
    circuits: Sequence[QuantumCircuit],
    device: Device,
    estimator,
    *,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    generations: int = DEFAULT_GENERATIONS,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    keep_final_rz: bool = False,
    num_trials: int = 4,
    store=None,
    warm_start: bool = True,
    record: bool = True,
    session: Optional[LeaderboardSession] = None,
    max_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
):
    """Predictor-guided search compilation for a batch of circuits.

    The drop-in ``optimization_level="search"`` analogue of
    :func:`~repro.compiler.compile.compile_batch`: per-circuit seed
    streams (``seed + SEED_STRIDE * i``), input-order results, and
    bit-identical output for every ``max_workers``.

    ``store`` (an :class:`~repro.evaluation.artifacts.ArtifactStore` or a
    directory) enables the leaderboard: incumbents matching the estimator
    fingerprint and search knobs skip the search entirely (``warm_start``)
    and freshly searched winners are written back (``record``) — one
    entry per (device-family, width-bucket), crowned by the lowest-index
    searched circuit.  Callers spanning several batches (the chunked
    :class:`FomService`) pass a shared :class:`LeaderboardSession` instead
    and flush it once at the end.

    Returns one ``CompilationResult`` per circuit; each carries its
    search outcome in ``result.properties["search"]``.
    """
    from ..parallel import parallel_map

    seeds = batch_seeds(seed, range(len(circuits)), seeds)
    own_session = session is None
    if own_session:
        session = LeaderboardSession.for_search(
            store, estimator,
            beam_width=beam_width, generations=generations,
            num_trials=num_trials, warm_start=warm_start, record=record,
        )

    names = [leaderboard_name(device, c.num_qubits) for c in circuits]
    incumbents = [session.incumbent(name) for name in names]

    options = {
        "beam_width": beam_width,
        "generations": generations,
        "num_trials": num_trials,
        "keep_final_rz": keep_final_rz,
    }

    results: List[Optional[CompilationResult]] = [None] * len(circuits)

    def fold(index: int, result: CompilationResult) -> None:
        # Fold each circuit's counter deltas into this process's totals,
        # whichever process searched it.
        result.device = device
        results[index] = result
        _bump_stats(result.properties["search"]["stats"])
        if on_result is not None:
            on_result(index, result)

    device.routing_tables  # precompute once so pool workers inherit them
    parallel_map(
        _search_task,
        list(zip(circuits, seeds, incumbents)),
        max_workers=max_workers,
        on_result=fold,
        mode="process",
        shared=(device, estimator, options),
    )

    # Deferred leaderboard writes, in input order: the lowest-index
    # circuit that ran a full search crowns its row.
    estimator_fingerprint = session.estimator_fingerprint
    if estimator_fingerprint is None:
        estimator_fingerprint = model_fingerprint(estimator)
    for name, result in zip(names, results):
        outcome = result.properties["search"]
        if outcome["source"] != "search":
            continue
        session.record(
            name,
            {
                "family": device_family(device),
                "width_bucket": width_bucket(outcome["num_qubits"]),
                "estimator_fingerprint": estimator_fingerprint,
                "beam_width": int(beam_width),
                "generations": int(generations),
                "num_trials": int(num_trials),
                "config": outcome["config"],
                "predicted_distance": outcome["predicted_distance"],
                "expected_fidelity": outcome["expected_fidelity"],
                "device": device.name,
                "circuit": outcome["circuit"],
            },
        )
    if own_session:
        session.flush()
    return results


__all__ = [
    "DEFAULT_BEAM_WIDTH",
    "DEFAULT_GENERATIONS",
    "LOOKAHEAD_LADDER",
    "OPT_ITERATIONS_LADDER",
    "LeaderboardSession",
    "PassConfig",
    "compile_search",
    "device_family",
    "leaderboard_fingerprint",
    "leaderboard_name",
    "model_fingerprint",
    "reset_search_stats",
    "search_circuit",
    "search_stats",
    "stock_configs",
    "width_bucket",
]
