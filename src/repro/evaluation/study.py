"""The correlation study (Section V): Table I and the improvement numbers.

Pipeline per device:

1. build the benchmark suite (2-20 qubits, all families),
2. compile every circuit at optimization level 3,
3. drop circuits with compiled depth >= 1000,
4. execute on the device emulator, label with the Hellinger distance,
5. correlate each established figure of merit with the labels (Table I
   rows 1-4),
6. train the proposed estimator (80/20 split, 3-fold CV, grid search) and
   score it on the held-out test set (Table I row 5),
7. aggregate "Combined" columns over both devices and the paper's
   improvement percentages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..bench.suite import DEPTH_LIMIT, build_suite
from ..fom.metrics import FOM_ORDER, PROPOSED_LABEL
from ..hardware.device import Device
from ..hardware.iqm import make_q20_pair
from ..ml.metrics import pearson_r
from ..predictor.dataset import CircuitDataset, build_dataset
from ..predictor.estimator import (
    EstimatorReport,
    HellingerEstimator,
    train_and_evaluate,
    train_and_evaluate_model,
)
from .artifacts import ArtifactStore
from .persistence import config_fingerprint, device_fingerprint



@dataclass
class StudyConfig:
    """Knobs of the correlation study (defaults reproduce the paper setup)."""

    algorithms: Optional[Sequence[str]] = None
    min_qubits: int = 2
    max_qubits: int = 20
    qubit_step: int = 1
    #: 0-3 for the fixed pipelines, or ``"search"`` for the
    #: predictor-guided compiler (requires ``search_estimator``).
    optimization_level: "int | str" = 3
    #: Cost model for ``optimization_level="search"``: an estimator with
    #: a ``predict`` method (typically a trained
    #: :class:`~repro.predictor.estimator.HellingerEstimator`).
    search_estimator: Optional[object] = None
    #: Extra keyword arguments for
    #: :func:`~repro.compiler.search.compile_search` (``beam_width``,
    #: ``generations``, ``store``, ...) when the level is ``"search"``.
    search_opts: Optional[Dict] = None
    shots: int = 2000
    seed: int = 0
    depth_limit: int = DEPTH_LIMIT
    test_size: float = 0.2
    n_splits: int = 3
    param_grid: Optional[Dict[str, Sequence]] = None
    progress: bool = False
    #: Worker-pool size for batched compile/simulate/execute stages and
    #: the grid-search/forest training tasks (``None``: one per CPU).
    max_workers: Optional[int] = None
    #: Directory for stage caches: when set, per-device datasets (the
    #: compile/simulate/execute product) and trained-estimator reports
    #: are stored there and reused on reruns whose inputs are unchanged,
    #: making ``run_study`` (and ``reproduce_table1.py``) resumable.
    cache_dir: Optional[str] = None

    def dataset_fingerprint(self, device) -> str:
        """Hash of every input that influences a device's labelled dataset.

        ``device`` is normally a :class:`~repro.hardware.device.Device`,
        keyed by its full content (topology, calibrations, noise) so an
        in-place edit of error rates invalidates the cache even under the
        same name.  A plain string is accepted for key-stability checks
        but then covers the name only.
        """
        key = device if isinstance(device, str) else device_fingerprint(device)
        payload = {
            "device": key,
            "algorithms": list(self.algorithms) if self.algorithms else None,
            "min_qubits": self.min_qubits,
            "max_qubits": self.max_qubits,
            "qubit_step": self.qubit_step,
            "optimization_level": self.optimization_level,
            "shots": self.shots,
            "seed": self.seed,
            "depth_limit": self.depth_limit,
        }
        if self.optimization_level == "search":
            # The search key only exists when search is active, so every
            # pre-existing level-0..3 fingerprint stays byte-stable.
            from ..compiler.search import model_fingerprint

            payload["search"] = {
                "estimator": (
                    model_fingerprint(self.search_estimator)
                    if self.search_estimator is not None else None
                ),
                "opts": {
                    knob: value
                    for knob, value in sorted((self.search_opts or {}).items())
                    if isinstance(value, (int, float, str, bool, type(None)))
                },
            }
        return config_fingerprint(payload)

    def report_fingerprint(self, device) -> str:
        """Hash of the dataset inputs plus every training knob."""
        return config_fingerprint({
            "dataset": self.dataset_fingerprint(device),
            "test_size": self.test_size,
            "n_splits": self.n_splits,
            "param_grid": self.param_grid,
        })


@dataclass
class StudyResult:
    """All numbers behind Table I and Fig. 3."""

    device_names: List[str]
    correlations: Dict[str, Dict[str, float]]
    reports: Dict[str, EstimatorReport]
    datasets: Dict[str, CircuitDataset]
    improvements: Dict[str, float] = field(default_factory=dict)

    def table_rows(self) -> List[Tuple[str, List[float]]]:
        """Rows of Table I: (figure of merit, [Q20-A, Q20-B, Combined])."""
        columns = self.device_names + ["Combined"]
        rows = []
        for fom in FOM_ORDER + [PROPOSED_LABEL]:
            rows.append(
                (fom, [self.correlations[fom][col] for col in columns])
            )
        return rows


def run_study(
    devices: Optional[Sequence[Device]] = None,
    config: Optional[StudyConfig] = None,
    cache_dir: Optional[str] = None,
) -> StudyResult:
    """Run the full correlation study on the given devices.

    Defaults to the paper's two QPUs (Q20-A, Q20-B) and the paper's
    configuration; a reduced :class:`StudyConfig` gives quick smoke runs.

    With ``cache_dir`` (argument or ``config.cache_dir``), the expensive
    stages are checkpointed per device through an
    :class:`~repro.evaluation.artifacts.ArtifactStore`: the labelled
    dataset (compile + simulate + execute) and the trained-estimator
    report are stored keyed by a fingerprint of their inputs, and reruns
    with unchanged inputs skip those stages.  Stale or corrupted cache
    entries are treated as misses and rebuilt.
    """
    config = config or StudyConfig()
    store = ArtifactStore.coerce(cache_dir or config.cache_dir)
    if devices is None:
        devices = list(make_q20_pair())

    datasets = build_device_datasets(devices, config, store)

    names = [device.name for device in devices]
    correlations = established_correlations(datasets, names)
    for fom in FOM_ORDER:
        correlations[fom]["Combined"] = abs(pearson_r(
            np.concatenate([datasets[name].fom_column(fom) for name in names]),
            np.concatenate([datasets[name].y for name in names]),
        ))

    # Proposed approach: one model per device, scored on unseen test sets.
    reports = {
        device.name: fit_device(datasets[device.name], device, config, store).report
        for device in devices
    }
    correlations[PROPOSED_LABEL] = {
        name: abs(reports[name].test_pearson) for name in names
    }
    correlations[PROPOSED_LABEL]["Combined"] = abs(pearson_r(
        np.concatenate([reports[name].y_test for name in names]),
        np.concatenate([reports[name].y_test_pred for name in names]),
    ))

    result = StudyResult(
        device_names=names,
        correlations=correlations,
        reports=reports,
        datasets=datasets,
    )
    result.improvements = compute_improvements(result)
    return result


class DeviceFit(NamedTuple):
    """One device's trained estimator, as :func:`fit_device` returns it."""

    report: EstimatorReport
    #: The fitted model; ``None`` unless ``keep_estimator`` was asked for.
    estimator: Optional[HellingerEstimator]
    #: Seconds the fit took; 0.0 when it came from the store.
    fit_s: float
    cached: bool


def fit_device(
    data: CircuitDataset,
    device: Device,
    config: StudyConfig,
    store: Optional[ArtifactStore] = None,
    keep_estimator: bool = False,
) -> DeviceFit:
    """The device's Table-I fit (80/20 split, CV grid search), cached.

    The report is read from ``store`` under
    :meth:`StudyConfig.report_fingerprint`, or fitted on ``data`` and
    stored.  With ``keep_estimator`` the fitted model is stored and
    returned beside it; a miss on either file refits both, so the
    report's held-out score always belongs to the returned model.
    """
    fingerprint = config.report_fingerprint(device)
    report = estimator = None
    if store is not None:
        report = store.get("report", device.name, fingerprint)
        if report is not None and keep_estimator:
            estimator = store.get("estimator", device.name, fingerprint)
    if report is not None and (estimator is not None or not keep_estimator):
        if config.progress:
            print(f"[{device.name}] estimator loaded from cache", flush=True)
        return DeviceFit(report, estimator, 0.0, True)

    knobs = dict(
        device_name=device.name,
        test_size=config.test_size,
        n_splits=config.n_splits,
        seed=config.seed,
        param_grid=config.param_grid,
        max_workers=config.max_workers,
    )
    started = time.perf_counter()
    if keep_estimator:
        report, estimator = train_and_evaluate_model(data.X, data.y, **knobs)
    else:
        report = train_and_evaluate(data.X, data.y, **knobs)
    fit_s = time.perf_counter() - started
    if store is not None:
        store.put("report", report, device.name, fingerprint)
        if keep_estimator:
            store.put("estimator", estimator, device.name, fingerprint)
    return DeviceFit(report, estimator, fit_s, False)


def established_correlations(
    datasets: Dict[str, CircuitDataset], names: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """|Pearson r| of each established figure of merit against the
    Hellinger labels, per device, in ``names`` order (Table I rows 1-4)."""
    return {
        fom: {
            name: abs(pearson_r(datasets[name].fom_column(fom), datasets[name].y))
            for name in names
        }
        for fom in FOM_ORDER
    }


def build_device_datasets(
    devices: Sequence[Device],
    config: StudyConfig,
    cache: "ArtifactStore | str | Path | None" = None,
) -> Dict[str, CircuitDataset]:
    """Labelled datasets for every device, cache-aware and width-capped.

    The shared compile/execute/label stage of :func:`run_study` and
    :func:`run_cross_device_study`.  Each device's suite is capped at the
    device width (``min(config.max_qubits, device.num_qubits)``) so small
    zoo devices get the widest suite they can hold; the noiseless
    reference distributions are shared across all devices through one
    ``ideal_cache``.  ``cache`` — an
    :class:`~repro.evaluation.artifacts.ArtifactStore` or a directory
    path — checkpoints per-device datasets keyed by their input
    fingerprints.
    """
    store = ArtifactStore.coerce(cache)
    datasets: Dict[str, CircuitDataset] = {}
    missing: List[Device] = []
    for device in devices:
        if store is not None:
            cached = store.get(
                "dataset", device.name, config.dataset_fingerprint(device)
            )
            if cached is not None:
                datasets[device.name] = cached
                if config.progress:
                    print(f"[{device.name}] dataset loaded from cache", flush=True)
                continue
        missing.append(device)

    if missing:
        suites: Dict[int, List] = {}
        ideal_cache: Dict[str, Dict[str, float]] = {}
        for device in missing:
            width = min(config.max_qubits, device.num_qubits)
            if width < config.min_qubits:
                raise ValueError(
                    f"device {device.name} has {device.num_qubits} qubits, "
                    f"below the study's min_qubits={config.min_qubits}"
                )
            if width not in suites:
                suites[width] = build_suite(
                    algorithms=config.algorithms,
                    min_qubits=config.min_qubits,
                    max_qubits=width,
                    step=config.qubit_step,
                )
            datasets[device.name] = build_dataset(
                suites[width], device,
                optimization_level=config.optimization_level,
                shots=config.shots,
                seed=config.seed,
                depth_limit=config.depth_limit,
                ideal_cache=ideal_cache,
                progress=config.progress,
                max_workers=config.max_workers,
                estimator=config.search_estimator,
                search_opts=config.search_opts,
            )
            if store is not None:
                store.put(
                    "dataset", datasets[device.name], device.name,
                    config.dataset_fingerprint(device),
                )
    return datasets


@dataclass
class CrossDeviceResult:
    """Outcome of a transfer study: train on one device, score on others.

    ``correlations`` has one column per device (train first): the four
    established figures of merit plus the proposed estimator.  The
    proposed row is apples-to-apples across columns — one model, fitted
    on the train device's 80/20 *training split*, scored everywhere on
    the **held-out programs only**: the train column is the in-domain
    test score of Table I's protocol, and each evaluation column scores
    the same model on the foreign device's rows for those same held-out
    programs — so a transfer gap isolates the hardware change (new
    topology, new calibration) from program memorization.  (The suite
    *programs* are shared across devices by design; their compiled
    features and Hellinger labels are device-specific.)  If a foreign
    device's depth filter leaves fewer than two held-out programs, that
    column falls back to the device's full dataset (see
    ``transfer_support``).

    ``transfer_support`` records how many circuits each proposed-row
    column was scored on; ``transfer_fallback`` names the devices whose
    column used the full-dataset fallback.
    """

    train_device: str
    eval_device_names: List[str]
    correlations: Dict[str, Dict[str, float]]
    report: EstimatorReport
    estimator: HellingerEstimator
    datasets: Dict[str, CircuitDataset]
    transfer_support: Dict[str, int] = field(default_factory=dict)
    transfer_fallback: List[str] = field(default_factory=list)

    @property
    def device_names(self) -> List[str]:
        return [self.train_device] + list(self.eval_device_names)

    def table_rows(self) -> List[Tuple[str, List[float]]]:
        """Rows (fom, [train, eval...]) in Table-I order."""
        return [
            (fom, [self.correlations[fom][name] for name in self.device_names])
            for fom in FOM_ORDER + [PROPOSED_LABEL]
        ]

    def transfer_gap(self, device_name: str) -> float:
        """In-domain minus transfer correlation of the proposed estimator."""
        proposed = self.correlations[PROPOSED_LABEL]
        return proposed[self.train_device] - proposed[device_name]


def run_cross_device_study(
    train_device: Device,
    eval_devices: Sequence[Device],
    config: Optional[StudyConfig] = None,
    cache_dir: Optional[str] = None,
) -> CrossDeviceResult:
    """Train the Hellinger estimator on one device, score transfer on others.

    The generalization experiment the two-QPU case study cannot run:
    every evaluation device (typically drawn from the device zoo, see
    :mod:`repro.hardware.zoo`) gets its own compiled/executed/labelled
    dataset, one estimator is fitted on the train device's 80/20
    training split, and every proposed-row column scores that model on
    the held-out programs — in-domain on the train device, and on
    foreign compiled/executed versions of those same programs for each
    evaluation device (see :class:`CrossDeviceResult` for the exact
    semantics).

    Stage caches (``cache_dir`` or ``config.cache_dir``) are shared with
    :func:`run_study`: per-device datasets, the train device's 80/20
    report, and the train-split estimator are all checkpointed and
    reused when their input fingerprints are unchanged.
    """
    config = config or StudyConfig()
    store = ArtifactStore.coerce(cache_dir or config.cache_dir)
    eval_devices = list(eval_devices)
    if not eval_devices:
        raise ValueError("run_cross_device_study needs at least one eval device")
    names = [train_device.name] + [device.name for device in eval_devices]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate device names in cross-device study: {names}")

    devices = [train_device] + eval_devices
    datasets = build_device_datasets(devices, config, store)
    train_data = datasets[train_device.name]

    # In-domain protocol (80/20 + CV grid search) on the train device.
    # The report and the transfer model are ONE fit: the estimator that
    # produced the report's held-out score is the estimator scored on
    # foreign devices, so the columns differ only in the hardware.
    fit = fit_device(train_data, train_device, config, store, keep_estimator=True)
    report, estimator = fit.report, fit.estimator

    heldout_names = {
        train_data.entries[int(i)].name for i in report.test_indices
    }

    correlations = established_correlations(datasets, names)
    correlations[PROPOSED_LABEL] = {train_device.name: abs(report.test_pearson)}
    transfer_support = {train_device.name: len(heldout_names)}
    transfer_fallback: List[str] = []
    for device in eval_devices:
        data = datasets[device.name]
        rows = [
            index for index, entry in enumerate(data.entries)
            if entry.name in heldout_names
        ]
        if len(rows) < 2:
            # Foreign depth filter dropped (nearly) all held-out
            # programs: fall back to the full foreign dataset, and say so.
            rows = list(range(len(data)))
            transfer_fallback.append(device.name)
        transfer_support[device.name] = len(rows)
        correlations[PROPOSED_LABEL][device.name] = abs(
            pearson_r(data.y[rows], estimator.predict(data.X[rows]))
        )

    return CrossDeviceResult(
        train_device=train_device.name,
        eval_device_names=[device.name for device in eval_devices],
        correlations=correlations,
        report=report,
        estimator=estimator,
        datasets=datasets,
        transfer_support=transfer_support,
        transfer_fallback=transfer_fallback,
    )


def compute_improvements(result: StudyResult) -> Dict[str, float]:
    """The paper's improvement percentages.

    For each column, the proposed correlation relative to the *average* of
    the four established figures of merit: the paper reports +62% (Q20-A),
    +38% (Q20-B), and +49% (Combined, the headline number).
    """
    improvements: Dict[str, float] = {}
    for column in result.device_names + ["Combined"]:
        established = np.mean(
            [result.correlations[fom][column] for fom in FOM_ORDER]
        )
        proposed = result.correlations[PROPOSED_LABEL][column]
        improvements[column] = (
            (proposed / established - 1.0) * 100.0 if established > 0 else 0.0
        )
    return improvements
