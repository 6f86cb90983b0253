"""Calibration-drift studies: staleness trajectories and cheap refresh.

Real devices drift between calibrations.  An estimator trained when the
reported snapshot matched the hardware keeps compiling against the same
report while the *true* error rates walk away — so its labels go stale
even though its features do not.  This module measures that decay and
what it costs to recover from it:

1. **Snapshot walk** — :func:`~repro.hardware.calibration.drift_walk`
   iterates the drift map over the device's true calibration (the tier's
   ``fidelity_drift`` / ``relaxation_drift`` knobs scaled by
   ``drift_scale``), producing a sequence of step devices.  The reported
   calibration is deliberately frozen at step 0: compilation — and hence
   every feature vector — is identical across steps, so the error
   trajectory isolates the hardware change.  This is the iterated-map
   view of the source paper's Markov dynamics: what matters is error
   under *repeated* application of the drift map, not one perturbation.
2. **Staleness curve** — the step-0 estimator is scored on each step's
   freshly-labelled held-out rows (same split every step).
3. **Recovery curves** — two refresh strategies per step:
   *full retrain* (the complete grid-search protocol on the step's
   labels) vs *fine-tune* (append ``n`` fresh trees fitted on the step's
   training rows to the step-0 forest — PR 3's ``bootstrap_draws``
   prefix property means one ``max(n)``-tree fit serves the whole
   ``refresh_trees`` sweep by slicing prefixes).
4. **Caching** — every stage rides the fingerprinted
   :class:`~repro.evaluation.artifacts.ArtifactStore`: per-step datasets
   (keyed by snapshot content), per-step retrain reports, the base
   estimator, and the completed study (kind ``"drift"``).  A rerun with
   unchanged inputs is a pure cache read.

The serving loop closes in :mod:`repro.serving`: a refreshed model saved
over the daemon's ``.npz`` is detected and hot-swapped without a restart
(see docs/drift.md).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from ..hardware import NOISE_TIERS, resolve_device
from ..hardware.calibration import Calibration, drift_walk
from ..hardware.device import Device
from ..ml.metrics import pearson_r
from ..ml.model_selection import split_indices
from ..predictor.estimator import FINE_TUNE_SEED_OFFSET
from .artifacts import ArtifactStore
from .persistence import _SHAPE_ERRORS, config_fingerprint, device_fingerprint
from .study import StudyConfig, build_device_datasets, fit_device

__all__ = [
    "DriftStepResult",
    "DriftStudyConfig",
    "DriftStudyResult",
    "RefreshPoint",
    "calibration_distance",
    "default_drift_study_config",
    "format_drift_table",
    "run_drift_study",
]

#: Per-step drift knobs when the device is not a zoo spec with a tier
#: (the ``make_device`` defaults).
DEFAULT_DRIFT_KNOBS = (0.3, 0.6)


def default_drift_study_config(progress: bool = False) -> StudyConfig:
    """The reduced dataset/training knobs a drift study uses by default.

    A 2–6-qubit suite, 400 shots, and a two-candidate grid keep the cold
    run in CLI territory while still exercising a real grid search.
    """
    return StudyConfig(
        max_qubits=6,
        shots=400,
        param_grid={
            "n_estimators": [25],
            "max_depth": [8, None],
            "min_samples_leaf": [1],
            "min_samples_split": [2],
        },
        progress=progress,
    )


def calibration_distance(a: Calibration, b: Calibration) -> float:
    """Walk distance between two snapshots: the mean absolute log-ratio
    over every calibrated table (infidelities for the three fidelity
    tables; raw values for T1/T2).  Zero iff the tables agree."""
    ratios: List[float] = []

    def log_ratio(va: float, vb: float, infidelity: bool) -> float:
        if infidelity:
            va, vb = max(1.0 - va, 1e-12), max(1.0 - vb, 1e-12)
        return abs(math.log(vb / va))

    for table_a, table_b, infidelity in (
        (a.one_qubit_fidelity, b.one_qubit_fidelity, True),
        (a.two_qubit_fidelity, b.two_qubit_fidelity, True),
        (a.readout_fidelity, b.readout_fidelity, True),
        (a.t1, b.t1, False),
        (a.t2, b.t2, False),
    ):
        for key, value in table_a.items():
            ratios.append(log_ratio(value, table_b[key], infidelity))
    return float(np.mean(ratios)) if ratios else 0.0


@dataclass
class DriftStudyConfig:
    """Knobs of one drift study."""

    #: Device object or spec string (``q20a`` / ``zoo:...``).  Zoo specs
    #: contribute their tier's per-step drift knobs.
    device: "Device | str" = "zoo:grid:12:typical:0"
    #: Drifted snapshots after step 0 (the walk length).
    steps: int = 3
    #: Multiplies the tier's per-step ``fidelity_drift`` /
    #: ``relaxation_drift`` (the zoo's ``drift_scale`` convention).
    drift_scale: float = 1.0
    #: Explicit per-step knob overrides (pre-scale); ``None`` = tier knob
    #: for zoo specs, else :data:`DEFAULT_DRIFT_KNOBS`.
    fidelity_drift: Optional[float] = None
    relaxation_drift: Optional[float] = None
    #: Opt-in duration drift per step (see ``drift_calibration``).
    duration_drift: float = 0.0
    drift_seed: int = 0
    #: Fine-tune recovery curve: fresh trees appended per refresh.  One
    #: ``max(refresh_trees)``-tree fit serves every point (prefixes).
    refresh_trees: Tuple[int, ...] = (4, 8, 16)
    #: ``True``: the new trees replace the oldest (constant-size forest).
    replace: bool = False
    #: Dataset + training knobs; ``None`` uses
    #: :func:`default_drift_study_config`.
    study: Optional[StudyConfig] = None
    cache_dir: Optional[str] = None
    progress: bool = False

    def effective_drift(self) -> Tuple[float, float]:
        """Per-step ``(fidelity_drift, relaxation_drift)`` after tier
        lookup and ``drift_scale``."""
        fid, relax = DEFAULT_DRIFT_KNOBS
        if isinstance(self.device, str) and self.device.lower().startswith("zoo:"):
            parts = self.device.split(":")
            tier = NOISE_TIERS.get(parts[3]) if len(parts) > 3 and parts[3] else None
            if tier is None and len(parts) <= 3:
                tier = NOISE_TIERS.get("typical")
            if tier is not None:
                fid, relax = tier.fidelity_drift, tier.relaxation_drift
        if self.fidelity_drift is not None:
            fid = self.fidelity_drift
        if self.relaxation_drift is not None:
            relax = self.relaxation_drift
        return fid * self.drift_scale, relax * self.drift_scale

    def fingerprint(self, device: Device, study: StudyConfig) -> str:
        """Hash of every input that influences the study result."""
        fid, relax = self.effective_drift()
        return config_fingerprint({
            "device": device_fingerprint(device),
            "steps": self.steps,
            "fidelity_drift": fid,
            "relaxation_drift": relax,
            "duration_drift": self.duration_drift,
            "drift_seed": self.drift_seed,
            "refresh_trees": list(self.refresh_trees),
            "replace": self.replace,
            # Covers the dataset knobs AND the training protocol.
            "report": study.report_fingerprint(device),
        })


@dataclass
class RefreshPoint:
    """One fine-tune point: ``trees`` fresh trees appended/replaced."""

    trees: int
    pearson: float
    mae: float


@dataclass
class DriftStepResult:
    """Staleness + recovery numbers at one walk step."""

    step: int
    device_name: str
    #: :func:`calibration_distance` from the step-0 true calibration.
    distance: float
    stale_pearson: float
    stale_mae: float
    retrain_pearson: float
    retrain_mae: float
    retrain_cached: bool
    fine_tune: List[RefreshPoint] = field(default_factory=list)
    #: Set on return, never persisted (0.0 on a cache read): the
    #: retrain's fit seconds, and the seconds to fit the
    #: ``max(refresh_trees)`` fresh trees (one fit serves every point).
    retrain_fit_s: float = 0.0
    fine_tune_fit_s: float = 0.0

    def best_fine_tune(self) -> RefreshPoint:
        return max(self.fine_tune, key=lambda point: point.pearson)

    def recovery_gap(self) -> float:
        """Full-retrain Pearson minus the best fine-tune Pearson (how
        much recovery the cheap strategy leaves on the table)."""
        return self.retrain_pearson - self.best_fine_tune().pearson


@dataclass
class DriftStudyResult:
    """Everything one drift study measured."""

    device_name: str
    fidelity_drift: float
    relaxation_drift: float
    duration_drift: float
    refresh_trees: Tuple[int, ...]
    replace: bool
    base_pearson: float
    base_cached: bool
    steps: List[DriftStepResult] = field(default_factory=list)
    #: Set on return, never persisted: the base fit's seconds (0.0 on a
    #: cache read), whether this invocation was a pure cache read, and
    #: its wall-clock seconds.
    base_fit_s: float = 0.0
    from_cache: bool = False
    elapsed_s: float = 0.0


#: Fields set on each return and never persisted, so that two cold runs
#: write the same bytes.
_RUN_ONLY = frozenset({
    "base_fit_s", "retrain_fit_s", "fine_tune_fit_s", "from_cache", "elapsed_s",
})


def _result_to_dict(result: DriftStudyResult) -> Dict:
    return dataclasses.asdict(result, dict_factory=lambda items: {
        name: value for name, value in items if name not in _RUN_ONLY
    })


@functools.cache
def _persisted_fields(cls) -> Tuple[Tuple[str, object], ...]:
    """``(name, type hint)`` of each persisted field of ``cls``, resolved
    once per class: :func:`typing.get_type_hints` evaluates the string
    annotations afresh on every call."""
    hints = get_type_hints(cls)
    return tuple(
        (item.name, hints[item.name])
        for item in dataclasses.fields(cls)
        if item.name not in _RUN_ONLY
    )


def _from_fields(hint, value):
    """Rebuild a value of type ``hint`` from its :func:`dataclasses.asdict`
    form; a missing key or a wrongly typed value raises."""
    if dataclasses.is_dataclass(hint):
        return hint(**{
            name: _from_fields(item_hint, value[name])
            for name, item_hint in _persisted_fields(hint)
        })
    container = get_origin(hint)
    if container is not None:
        item_hint = get_args(hint)[0]
        return container(_from_fields(item_hint, item) for item in value)
    return hint(value)


def format_drift_table(result: DriftStudyResult) -> str:
    """The ``repro drift-study`` table: staleness and recovery per step."""
    knobs = (
        f"fid_drift={result.fidelity_drift:.3f} "
        f"relax_drift={result.relaxation_drift:.3f}"
    )
    if result.duration_drift:
        knobs += f" dur_drift={result.duration_drift:.3f}"
    lines = [
        f"drift study: {result.device_name}  ({knobs})",
        f"base estimator: r={result.base_pearson:.3f}  "
        f"fit={result.base_fit_s:.2f}s"
        + ("  [cached]" if result.base_cached else ""),
    ]
    header = (
        f"{'step':>4} {'distance':>9} {'stale_r':>8} "
        f"{'retrain_r':>10} {'retrain_s':>10}"
    )
    for count in result.refresh_trees:
        header += f" {f'ft{count}_r':>8}"
    header += f" {'finetune_s':>11}"
    lines.append(header)
    for step in result.steps:
        row = (
            f"{step.step:>4} {step.distance:>9.4f} "
            f"{step.stale_pearson:>8.3f} {step.retrain_pearson:>10.3f} "
            f"{step.retrain_fit_s:>9.2f}{'*' if step.retrain_cached else ' '}"
        )
        by_trees = {point.trees: point for point in step.fine_tune}
        for count in result.refresh_trees:
            row += f" {by_trees[count].pearson:>8.3f}"
        row += f" {step.fine_tune_fit_s:>11.3f}"
        lines.append(row)
    origin = "cached result, " if result.from_cache else ""
    lines.append(f"({origin}elapsed {result.elapsed_s:.2f}s; * = cached retrain)")
    return "\n".join(lines)


def _step_devices(base: Device, config: DriftStudyConfig) -> List[Device]:
    """The walk's snapshot devices: drifted *true* calibration, frozen
    *reported* calibration (so compilation — and features — never move)."""
    fid, relax = config.effective_drift()
    snapshots = drift_walk(
        base.true_calibration,
        np.random.default_rng(config.drift_seed),
        config.steps,
        fidelity_drift=fid,
        relaxation_drift=relax,
        duration_drift=config.duration_drift,
    )
    return [
        Device(
            name=f"{base.name}-drift{index + 1}",
            coupling=base.coupling,
            true_calibration=snapshot,
            reported_calibration=base.reported_calibration,
            native_gates=base.native_gates,
            noise=base.noise,
        )
        for index, snapshot in enumerate(snapshots)
    ]


def _mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(y_true) - np.asarray(y_pred))))


def run_drift_study(
    config: Optional[DriftStudyConfig] = None,
    cache_dir: "ArtifactStore | str | None" = None,
) -> DriftStudyResult:
    """Run (or warm-load) one drift study.

    Every stage is cached through the store when one is given: per-step
    datasets, the base report + estimator, per-step retrain reports, and
    the assembled result (kind ``"drift"``).  A rerun with unchanged
    inputs returns the cached result directly (``from_cache=True``).
    """
    config = config or DriftStudyConfig()
    study = config.study or default_drift_study_config(progress=config.progress)
    store = ArtifactStore.coerce(
        cache_dir if cache_dir is not None else (config.cache_dir or study.cache_dir)
    )
    if config.steps < 1:
        raise ValueError("a drift study needs steps >= 1")
    if not config.refresh_trees or min(config.refresh_trees) < 1:
        raise ValueError("refresh_trees must be positive tree counts")

    base_device = resolve_device(config.device)
    started = time.perf_counter()
    fingerprint = config.fingerprint(base_device, study)
    cached = None if store is None else store.get("drift", base_device.name, fingerprint)
    if cached is not None:
        try:
            result = _from_fields(DriftStudyResult, cached)
        except _SHAPE_ERRORS:
            result = None  # a malformed entry is a miss, recomputed below
        if result is not None:
            result.from_cache = True
            result.elapsed_s = time.perf_counter() - started
            if config.progress:
                print(
                    f"[{base_device.name}] drift study loaded from cache",
                    flush=True,
                )
            return result

    step_devices = _step_devices(base_device, config)
    datasets = build_device_datasets(
        [base_device] + step_devices, study, store
    )
    base_data = datasets[base_device.name]
    if len(base_data) < 5:
        raise ValueError(
            f"drift study dataset too small ({len(base_data)} rows); "
            "widen the suite or raise max_qubits"
        )

    # One split for every curve: compilation is frozen across steps, so
    # all step datasets hold the same rows in the same order, and the
    # base fit draws this same split, so ``test_idx`` is its report's
    # ``test_indices``.
    train_idx, test_idx = split_indices(len(base_data), study.test_size, study.seed)
    base = fit_device(base_data, base_device, study, store, keep_estimator=True)
    estimator = base.estimator

    fid, relax = config.effective_drift()
    result = DriftStudyResult(
        device_name=base_device.name,
        fidelity_drift=fid,
        relaxation_drift=relax,
        duration_drift=config.duration_drift,
        refresh_trees=tuple(config.refresh_trees),
        replace=config.replace,
        base_pearson=float(base.report.test_pearson),
        base_fit_s=base.fit_s,
        base_cached=base.cached,
    )

    max_trees = max(config.refresh_trees)
    for index, device in enumerate(step_devices, start=1):
        data = datasets[device.name]
        if len(data) != len(base_data):
            raise RuntimeError(
                f"step dataset {device.name} has {len(data)} rows, base has "
                f"{len(base_data)} — frozen-compilation invariant broken"
            )
        X, y = data.X, data.y

        stale_pred = estimator.predict(X[test_idx])
        stale_pearson = pearson_r(y[test_idx], stale_pred)
        stale_mae = _mae(y[test_idx], stale_pred)

        # Full retrain: the complete (cached) grid-search protocol.
        retrain = fit_device(data, device, study, store)

        # Fine-tune: one max-count fit; every sweep point is a prefix.
        fit_started = time.perf_counter()
        trees = estimator.model.fit_new_trees(
            X[train_idx], y[train_idx], max_trees,
            random_state=study.seed + FINE_TUNE_SEED_OFFSET + index,
            max_workers=study.max_workers,
        )
        fine_tune_fit_s = time.perf_counter() - fit_started
        points = []
        for count in config.refresh_trees:
            tuned = estimator.with_trees(trees[:count], replace=config.replace)
            tuned_pred = tuned.predict(X[test_idx])
            points.append(RefreshPoint(
                trees=count,
                pearson=pearson_r(y[test_idx], tuned_pred),
                mae=_mae(y[test_idx], tuned_pred),
            ))

        step = DriftStepResult(
            step=index,
            device_name=device.name,
            distance=calibration_distance(
                base_device.true_calibration, device.true_calibration
            ),
            stale_pearson=stale_pearson,
            stale_mae=stale_mae,
            retrain_pearson=float(retrain.report.test_pearson),
            retrain_mae=_mae(retrain.report.y_test, retrain.report.y_test_pred),
            retrain_fit_s=retrain.fit_s,
            retrain_cached=retrain.cached,
            fine_tune_fit_s=fine_tune_fit_s,
            fine_tune=points,
        )
        result.steps.append(step)
        if config.progress:
            best = step.best_fine_tune()
            print(
                f"[{device.name}] distance={step.distance:.3f} "
                f"stale_r={stale_pearson:.3f} retrain_r="
                f"{step.retrain_pearson:.3f} finetune_r={best.pearson:.3f} "
                f"({best.trees} trees)",
                flush=True,
            )

    result.elapsed_s = time.perf_counter() - started
    if store is not None:
        store.put("drift", _result_to_dict(result), base_device.name, fingerprint)
    return result
