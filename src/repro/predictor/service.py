"""The high-throughput figure-of-merit inference service.

The paper's headline claim is that the trained estimator is *usable* as a
fast figure of merit: hand it compiled circuits, get predicted Hellinger
distances, no calibration data required.  After PRs 1-4 made simulation,
compilation, and training fast, this module adds the missing end-to-end
entry point: :class:`FomService` loads a persisted estimator (the PR 3
``.npz`` model format) and a device **once**, then scores arbitrarily many
circuits per call through the batched substrates —
:func:`~repro.compiler.compile.compile_batch` for compilation, the
single-pass :func:`~repro.fom.features.feature_matrix` for featurization,
and one forest ``predict`` per chunk.

Inputs stream in chunks (:attr:`FomService.chunk_size`), so datasets
larger than memory can be scored from a generator; predictions are
**invariant to the chunk size** — per-circuit compile seeds are assigned
by global input position, not chunk position.

``python -m repro predict`` and ``examples/predict_service.py`` are the
command-line / scripted frontends.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit, batch_seeds
from ..compiler.cache import active_compile_cache
from ..compiler.compile import (
    CompilationResult,
    _compile_key,
    compile_batch,
)
from ..compiler.passes.base import circuit_cache_fingerprint
from ..fom.features import NUM_FEATURES, feature_matrix
from ..fom.metrics import FOM_ORDER, PROPOSED_LABEL, esp, expected_fidelity_batch
from ..hardware import Device, resolve_device

#: Default number of circuits compiled/featurized/predicted per chunk.
DEFAULT_CHUNK_SIZE = 128


class FomService:
    """Serve Hellinger-distance predictions for batches of circuits.

    Loads its two heavyweight inputs once — a fitted estimator (anything
    with a ``predict(X)`` over 30-dim feature rows, typically a
    :class:`~repro.predictor.estimator.HellingerEstimator`) and a target
    :class:`~repro.hardware.device.Device` — and then answers
    :meth:`predict` / :meth:`score_established_foms` calls with batched
    compile -> featurize -> predict sweeps.

    Args:
        estimator: fitted model mapping ``(M, 30)`` features to distances.
        device: a :class:`Device`, a built-in name (``q20a``/``q20b``),
            or a zoo spec string (``zoo:heavy_hex:16:noisy:1``).
        optimization_level: default compilation level for served circuits
            — 0-3, or ``"search"`` for the predictor-guided beam search
            (:mod:`repro.compiler.search`) with the service's own
            estimator as the cost model.
        seed: base seed of the per-circuit compile-seed streams
            (``seed + 7919 * position``, the dataset convention).
        num_trials: level-3 layout/routing trials per circuit.
        chunk_size: circuits per streamed chunk (memory ceiling).
        search_store: leaderboard directory /
            :class:`~repro.evaluation.artifacts.ArtifactStore` consulted
            by ``"search"`` compiles (``None``: search without one).
        beam_width: ``"search"`` beam width.
        generations: ``"search"`` expansion generations.
    """

    def __init__(
        self,
        estimator,
        device: "Device | str",
        *,
        optimization_level: "int | str" = 3,
        seed: int = 0,
        num_trials: int = 4,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        search_store=None,
        beam_width: Optional[int] = None,
        generations: Optional[int] = None,
    ):
        from ..compiler.search import DEFAULT_BEAM_WIDTH, DEFAULT_GENERATIONS

        if not hasattr(estimator, "predict"):
            raise TypeError(
                f"estimator must expose predict(X); got {type(estimator).__name__}"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.estimator = estimator
        self.device = resolve_device(device)
        self.optimization_level = optimization_level
        self.seed = seed
        self.num_trials = num_trials
        self.chunk_size = chunk_size
        self.search_store = search_store
        self.beam_width = (
            DEFAULT_BEAM_WIDTH if beam_width is None else beam_width
        )
        self.generations = (
            DEFAULT_GENERATIONS if generations is None else generations
        )

    # ------------------------------------------------------------------
    # Construction from persisted artifacts
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, model_path, device: "Device | str", **kwargs) -> "FomService":
        """Boot a service from a ``save_model`` ``.npz`` file.

        Raises :class:`~repro.evaluation.persistence.PersistenceError`
        on missing/corrupt/foreign model files.
        """
        from ..evaluation.persistence import load_model

        return cls(load_model(model_path), device, **kwargs)

    @classmethod
    def from_store(
        cls,
        store,
        device: "Device | str",
        *,
        name: Optional[str] = None,
        fingerprint: Optional[str] = None,
        **kwargs,
    ) -> "FomService":
        """Boot a service from an estimator checkpoint in an artifact store.

        ``store`` is an :class:`~repro.evaluation.artifacts.ArtifactStore`
        or a cache directory path (the one ``run_cross_device_study``
        writes its train-split estimator into).  ``name`` /
        ``fingerprint`` narrow the candidates when the store holds more
        than one estimator; ambiguity is an error rather than a guess.
        """
        from ..evaluation.artifacts import ArtifactStore

        store = ArtifactStore.coerce(store)
        candidates = store.find("estimator", name=name, fingerprint=fingerprint)
        if not candidates:
            raise ValueError(
                f"no estimator artifact matching name={name!r} "
                f"fingerprint={fingerprint!r} in {store.root}"
            )
        if len(candidates) > 1:
            raise ValueError(
                "ambiguous estimator artifacts "
                f"{sorted((ref.name, ref.fingerprint) for ref in candidates)} "
                f"in {store.root}; pass name=/fingerprint= to pick one"
            )
        ref = candidates[0]
        estimator = store.get("estimator", ref.name, ref.fingerprint)
        if estimator is None:
            raise ValueError(
                f"estimator artifact {(ref.name, ref.fingerprint)} in "
                f"{store.root} is corrupted or of the wrong kind"
            )
        return cls(estimator, device, **kwargs)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def predict(
        self,
        circuits: Iterable[QuantumCircuit],
        *,
        optimization_level: Optional[int] = None,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Predicted Hellinger distances, one per input circuit.

        The pipeline per chunk is ``compile_batch`` -> batched featurize
        -> one forest ``predict``.  ``circuits`` may be any iterable —
        including a generator over a corpus that does not fit in memory;
        only ``chunk_size`` circuits are materialized at a time.  Results
        are identical for every ``chunk_size`` and ``max_workers``
        (``None`` = one per CPU; the GIL-bound compile and featurize
        stages fan out over the process pool).
        """
        parts = [
            predictions
            for predictions, _ in self._serve(
                circuits, optimization_level, max_workers, chunk_size,
                want_foms=False,
            )
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def predict_stream(
        self,
        circuits: Iterable[QuantumCircuit],
        *,
        optimization_level: Optional[int] = None,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[np.ndarray]:
        """Like :meth:`predict`, but yield per-chunk prediction arrays.

        For callers that also cannot hold the *output* (or want results
        flowing before the corpus is exhausted).
        """
        for predictions, _ in self._serve(
            circuits, optimization_level, max_workers, chunk_size,
            want_foms=False,
        ):
            yield predictions

    def score_established_foms(
        self,
        circuits: Iterable[QuantumCircuit],
        *,
        optimization_level: Optional[int] = None,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """The paper's full metric panel in one call.

        One compile pass feeds everything: the four established figures
        of merit of Table I (gate count, depth, expected fidelity, ESP —
        computed on the *compiled* circuit against the device's reported
        calibration) plus the proposed estimator's predictions under the
        :data:`PROPOSED_LABEL` key.  Each value is one array, in input
        order.
        """
        panel: Dict[str, List[np.ndarray]] = {}
        for predictions, foms in self._serve(
            circuits, optimization_level, max_workers, chunk_size,
            want_foms=True,
        ):
            for fom_name, values in foms.items():
                panel.setdefault(fom_name, []).append(values)
            panel.setdefault(PROPOSED_LABEL, []).append(predictions)
        if not panel:
            return {
                name: np.empty(0) for name in (*FOM_ORDER, PROPOSED_LABEL)
            }
        return {name: np.concatenate(parts) for name, parts in panel.items()}

    def predict_at(
        self,
        circuits: "List[QuantumCircuit]",
        *,
        positions: "List[int]",
        optimization_level: Optional[int] = None,
        max_workers: Optional[int] = None,
        want_foms: bool = False,
        timings: Optional[Dict[str, float]] = None,
        search_session=None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """One batched pipeline pass with explicit per-circuit seed positions.

        This is the serving daemon's coalescing primitive: a dynamic
        batch that merges several concurrent requests must give each
        circuit the compile seed of its position *within its own
        request* — not its position in the merged batch — so that the
        response is bit-identical to the same request served alone.
        ``predict_at(circuits, positions=range(len(circuits)))`` is
        exactly ``predict(circuits)``; per-circuit work is independent
        (compilation seeds, feature rows, forest rows), so any
        concatenation of requests served through one ``predict_at`` call
        splits back into the solo answers.

        With ``want_foms`` the established Table-I panel is computed from
        the same compile pass and returned as the second element (empty
        dict otherwise).  ``timings`` (when given) accumulates per-stage
        wall-clock seconds under ``"compile_s"``, ``"featurize_s"``, and
        ``"predict_s"`` — the daemon's ``/stats`` feed.

        When every circuit is warm (see :meth:`predict_warm`) and no
        panel is wanted, the call compiles and featurizes nothing: it
        predicts from the cached feature rows.

        At ``optimization_level="search"``, ``search_session`` (a
        :class:`~repro.compiler.search.LeaderboardSession`) shares one
        leaderboard snapshot across several calls; without one the call
        opens and flushes its own.
        """
        circuits = list(circuits)
        positions = [int(position) for position in positions]
        if len(positions) != len(circuits):
            raise ValueError(
                f"positions ({len(positions)}) must match "
                f"circuits ({len(circuits)})"
            )
        if any(position < 0 for position in positions):
            raise ValueError("positions must be non-negative")
        level = (
            self.optimization_level
            if optimization_level is None
            else optimization_level
        )
        seeds = batch_seeds(self.seed, positions)
        started = time.perf_counter()
        # The panel needs the compiled circuits, which a warm row skips.
        rows = None if want_foms else self._warm_rows(circuits, seeds, level)
        if rows is None:
            own_session = level == "search" and search_session is None
            if own_session:
                search_session = self._search_session()
            results = compile_batch(
                circuits,
                self.device,
                optimization_level=level,
                seeds=seeds,
                num_trials=self.num_trials,
                max_workers=max_workers,
                **self._compile_extras(level, search_session),
            )
            if own_session:
                search_session.flush()
            compiled = [result.circuit for result in results]
            compiled_at = time.perf_counter()
            features = self._features(compiled, max_workers)
        else:
            compiled_at = time.perf_counter()
            features = _stack(rows)
        featurized_at = time.perf_counter()
        predictions = self._predict_rows(features)
        predicted_at = time.perf_counter()
        foms = self._established_panel(compiled) if want_foms else {}
        if timings is not None:
            timings["compile_s"] = (
                timings.get("compile_s", 0.0) + (compiled_at - started)
            )
            timings["featurize_s"] = (
                timings.get("featurize_s", 0.0) + (featurized_at - compiled_at)
            )
            timings["predict_s"] = (
                timings.get("predict_s", 0.0) + (predicted_at - featurized_at)
            )
        return predictions, foms

    def predict_warm(
        self,
        circuits: "List[QuantumCircuit]",
        optimization_level: "Optional[int | str]" = None,
    ) -> Optional[np.ndarray]:
        """``predict(circuits)`` when every circuit is warm, else ``None``.

        Warm means that the compile cache holds the circuit's whole
        compile at its request position and the feature row of that
        compile's output.  The answer is then one compile key and two
        lookups per circuit and one forest ``predict``: no pass runs, no
        compiled circuit is rebuilt, and no worker is involved.  The
        serving daemon calls this on its event loop before it queues a
        request.
        """
        level = (
            self.optimization_level
            if optimization_level is None
            else optimization_level
        )
        seeds = batch_seeds(self.seed, range(len(circuits)))
        rows = self._warm_rows(circuits, seeds, level)
        return None if rows is None else self._predict_rows(_stack(rows))

    def compile_only(
        self,
        circuits: Iterable[QuantumCircuit],
        *,
        optimization_level: "Optional[int | str]" = None,
        max_workers: Optional[int] = None,
    ) -> List[CompilationResult]:
        """The service's compilation stage alone (seed streams included)."""
        circuits = list(circuits)
        level = (
            self.optimization_level
            if optimization_level is None
            else optimization_level
        )
        session = self._search_session() if level == "search" else None
        results = compile_batch(
            circuits,
            self.device,
            optimization_level=level,
            seed=self.seed,
            num_trials=self.num_trials,
            max_workers=max_workers,
            **self._compile_extras(level, session),
        )
        if session is not None:
            session.flush()
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _search_session(self):
        """A per-call leaderboard view: snapshot reads, deferred writes.

        One session spans every chunk of a :meth:`predict` /
        :meth:`score_established_foms` call, so results stay invariant
        to ``chunk_size``: lookups always see the store as it was at
        call start, and freshly searched winners land only when the call
        completes.
        """
        from ..compiler.search import LeaderboardSession

        return LeaderboardSession.for_search(
            self.search_store,
            self.estimator,
            beam_width=self.beam_width,
            generations=self.generations,
            num_trials=self.num_trials,
        )

    def _warm_rows(
        self,
        circuits: "List[QuantumCircuit]",
        seeds: List[int],
        level,
    ) -> Optional[List[np.ndarray]]:
        """The cached feature rows of ``circuits``, or ``None`` unless
        every circuit is warm (see :meth:`predict_warm`).

        A whole-compile entry carries its output's cache fingerprint,
        which keys the output's feature row, so the row is found without
        rebuilding the circuit; and the entry was validated against this
        device's native gates when it was stored under the same key (see
        :func:`~repro.compiler.compile._compile_key`).  The lookups stop
        at the first miss.  ``"search"`` compiles have no whole-compile
        entry.
        """
        cache = active_compile_cache()
        if cache is None or not (isinstance(level, int) and 0 <= level <= 3):
            return None
        calibration_hash = (
            hash(self.device.reported_calibration.content_key())
            if level == 3 else None
        )
        rows = []
        for circuit, seed in zip(circuits, seeds):
            key = _compile_key(
                cache, circuit, self.device, level, seed, False,
                self.num_trials, calibration_hash,
            )
            entry = None if key is None else cache.get(key)
            row = None if entry is None else cache.get(
                ("features", entry.fingerprint)
            )
            if row is None:
                return None
            rows.append(row)
        return rows

    def _predict_rows(self, features: np.ndarray) -> np.ndarray:
        """One forest ``predict`` over ``features`` (none for no rows)."""
        if not len(features):
            return np.empty(0)
        return np.asarray(self.estimator.predict(features), dtype=float)

    @staticmethod
    def _features(
        compiled: "List[QuantumCircuit]",
        max_workers: Optional[int],
    ) -> np.ndarray:
        """Feature rows of ``compiled``, memoized in the compile cache.

        A row depends only on its compiled circuit, so it is keyed on
        the circuit's cache fingerprint, under the cache's LRU and
        :func:`~repro.compiler.cache.clear_compile_cache`.  The misses
        go through one :func:`feature_matrix` call; stored rows are
        read-only and the returned matrix is a fresh copy.
        """
        cache = active_compile_cache()
        keys = [
            ("features", circuit_cache_fingerprint(circuit))
            for circuit in compiled
        ]
        rows = [None if cache is None else cache.get(key) for key in keys]
        misses = [index for index, row in enumerate(rows) if row is None]
        fresh = feature_matrix(
            [compiled[index] for index in misses],
            max_workers=max_workers,
        )
        for index, row in zip(misses, fresh):
            rows[index] = row = row.copy()
            row.flags.writeable = False
            if cache is not None:
                cache.put(keys[index], row)
        return _stack(rows)

    def _compile_extras(self, level, session) -> Dict:
        """compile_batch keywords that only the ``"search"`` level needs."""
        if level != "search":
            return {}
        return {
            "estimator": self.estimator,
            "search_opts": {
                "beam_width": self.beam_width,
                "generations": self.generations,
                "session": session,
            },
        }

    def _serve(
        self,
        circuits: Iterable[QuantumCircuit],
        optimization_level: Optional[int],
        max_workers: Optional[int],
        chunk_size: Optional[int],
        want_foms: bool,
    ) -> Iterator[Tuple[np.ndarray, Dict[str, np.ndarray]]]:
        level = (
            self.optimization_level
            if optimization_level is None
            else optimization_level
        )
        size = self.chunk_size if chunk_size is None else chunk_size
        if size < 1:
            raise ValueError("chunk_size must be positive")
        # Compilation and featurization are GIL-bound pure Python, so
        # both stages fan out over the process pool; one max_workers
        # governs the whole pipeline (``None`` = one per CPU, the
        # repo-wide rule).
        # "search" compiles share one leaderboard session across every
        # chunk (snapshot reads, writes deferred to the end), keeping
        # predictions chunk-size invariant.
        session = self._search_session() if level == "search" else None
        offset = 0
        try:
            for chunk in _chunked(circuits, size):
                yield self.predict_at(
                    chunk,
                    positions=range(offset, offset + len(chunk)),
                    optimization_level=level,
                    max_workers=max_workers,
                    want_foms=want_foms,
                    search_session=session,
                )
                offset += len(chunk)
        finally:
            if session is not None:
                session.flush()

    def _established_panel(
        self, compiled: "List[QuantumCircuit]"
    ) -> Dict[str, np.ndarray]:
        """The four established Table-I figures of merit, in FOM_ORDER.

        Specialized computations (batched fidelity) under the shared
        Table-I labels, evaluated on already-compiled circuits against
        the device's reported calibration.
        """
        gates_label, depth_label, fidelity_label, esp_label = FOM_ORDER
        return {
            gates_label: np.array(
                [float(circuit.size()) for circuit in compiled]
            ),
            depth_label: np.array(
                [float(circuit.depth()) for circuit in compiled]
            ),
            fidelity_label: expected_fidelity_batch(compiled, self.device),
            esp_label: np.array(
                [esp(circuit, self.device) for circuit in compiled]
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FomService(device={self.device.name!r}, "
            f"level={self.optimization_level}, chunk_size={self.chunk_size})"
        )


def _stack(rows: List[np.ndarray]) -> np.ndarray:
    """A fresh feature matrix of ``rows``, which stay read-only."""
    return np.vstack(rows) if rows else np.empty((0, NUM_FEATURES))


def _chunked(
    circuits: Iterable[QuantumCircuit], size: int
) -> Iterator[List[QuantumCircuit]]:
    """Materialize an iterable ``size`` circuits at a time."""
    chunk: List[QuantumCircuit] = []
    for circuit in circuits:
        chunk.append(circuit)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


__all__ = ["DEFAULT_CHUNK_SIZE", "FomService", "PROPOSED_LABEL"]
