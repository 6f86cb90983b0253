"""Tests for the calibration-drift study (repro.evaluation.drift)."""

import dataclasses
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.artifacts import ArtifactStore
from repro.evaluation.drift import (
    DriftStudyConfig,
    _step_devices,
    calibration_distance,
    format_drift_table,
    run_drift_study,
)
from repro.ml.metrics import pearson_r
from repro.evaluation.study import StudyConfig
from repro.hardware import resolve_device
from repro.hardware.calibration import drift_calibration

TINY_GRID = {
    "n_estimators": [8],
    "max_depth": [6],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tiny_config(cache_dir=None, **overrides) -> DriftStudyConfig:
    defaults = dict(
        device="zoo:line:6:clean:1",
        steps=2,
        refresh_trees=(2, 4),
        study=StudyConfig(
            max_qubits=6, shots=200, n_splits=2, param_grid=TINY_GRID
        ),
        cache_dir=cache_dir,
    )
    defaults.update(overrides)
    return DriftStudyConfig(**defaults)


@pytest.fixture(scope="module")
def cached_study(tmp_path_factory):
    """One cold run shared by the read-only tests below."""
    cache_dir = tmp_path_factory.mktemp("drift-cache")
    return str(cache_dir), run_drift_study(_tiny_config(str(cache_dir)))


def test_study_shape(cached_study):
    _, result = cached_study
    assert result.device_name == "zoo-line6-clean-s1"
    assert not result.from_cache
    assert not result.base_cached
    assert result.base_fit_s > 0
    assert -1.0 <= result.base_pearson <= 1.0
    assert len(result.steps) == 2
    for index, step in enumerate(result.steps, start=1):
        assert step.step == index
        assert step.device_name == f"zoo-line6-clean-s1-drift{index}"
        assert step.distance > 0
        assert not step.retrain_cached
        assert step.retrain_fit_s > 0
        assert step.fine_tune_fit_s > 0
        assert [point.trees for point in step.fine_tune] == [2, 4]
        for point in step.fine_tune:
            assert -1.0 <= point.pearson <= 1.0
            assert point.mae >= 0
        assert step.best_fine_tune().pearson == max(
            point.pearson for point in step.fine_tune
        )
    # The walk moves away from the training-time snapshot.
    assert result.steps[1].distance > result.steps[0].distance


def test_clean_tier_knobs_resolved(cached_study):
    _, result = cached_study
    assert result.fidelity_drift == pytest.approx(0.12)
    assert result.relaxation_drift == pytest.approx(0.5)


def test_warm_rerun_is_pure_cache_read(cached_study):
    cache_dir, cold = cached_study
    warm = run_drift_study(_tiny_config(cache_dir))
    assert warm.from_cache
    assert warm.base_pearson == cold.base_pearson
    # Fit times are run-only: a cache read fitted nothing.
    assert warm.base_fit_s == 0.0
    assert len(warm.steps) == len(cold.steps)
    for warm_step, cold_step in zip(warm.steps, cold.steps):
        assert warm_step.retrain_fit_s == warm_step.fine_tune_fit_s == 0.0
        assert warm_step.stale_pearson == cold_step.stale_pearson
        assert warm_step.retrain_pearson == cold_step.retrain_pearson
        assert warm_step.distance == cold_step.distance
        assert [dataclasses.astuple(p) for p in warm_step.fine_tune] == [
            dataclasses.astuple(p) for p in cold_step.fine_tune
        ]


def test_drift_cache_entry_exists(cached_study):
    cache_dir, result = cached_study
    store = ArtifactStore(cache_dir)
    refs = store.find("drift", name=result.device_name)
    assert len(refs) == 1
    # Datasets for the base device and each step, reports for base + steps,
    # the base estimator — every intermediate stage is in the store too.
    assert len(store.find("dataset")) == 3
    assert len(store.find("report")) == 3
    assert len(store.find("estimator")) == 1


def test_heldout_rows_are_the_base_reports_test_indices(cached_study):
    cache_dir, result = cached_study
    config = _tiny_config(cache_dir)
    store = ArtifactStore(cache_dir)
    base_device = resolve_device(config.device)
    fingerprint = config.study.report_fingerprint(base_device)
    report = store.get("report", base_device.name, fingerprint)
    estimator = store.get("estimator", base_device.name, fingerprint)
    rows = report.test_indices
    for step, device in zip(result.steps, _step_devices(base_device, config)):
        data = store.get(
            "dataset", device.name, config.study.dataset_fingerprint(device)
        )
        stale = pearson_r(data.y[rows], estimator.predict(data.X[rows]))
        assert stale == step.stale_pearson


def test_malformed_drift_entry_is_a_miss(tmp_path, cached_study):
    cache_dir, cold = cached_study
    shutil.copytree(cache_dir, tmp_path / "cache")
    config = _tiny_config(str(tmp_path / "cache"))
    store = ArtifactStore(config.cache_dir)
    base_device = resolve_device(config.device)
    fingerprint = config.fingerprint(base_device, config.study)
    store.put("drift", {"device_name": "x", "steps": [{"step": 1}]},
              base_device.name, fingerprint)

    rebuilt = run_drift_study(config)
    assert not rebuilt.from_cache
    assert rebuilt.base_cached
    assert [step.stale_pearson for step in rebuilt.steps] == [
        step.stale_pearson for step in cold.steps
    ]
    # The bad entry was overwritten: the next run is a pure cache read.
    assert run_drift_study(config).from_cache


def test_changed_knob_misses_cache(cached_study):
    cache_dir, _ = cached_study
    bumped = run_drift_study(
        _tiny_config(cache_dir, drift_seed=1, steps=1)
    )
    # Different walk -> different fingerprint -> computed, not loaded;
    # but the base device's dataset/report/estimator stages still hit.
    assert not bumped.from_cache
    assert bumped.base_cached


def test_cold_runs_deterministic(tmp_path, cached_study):
    first_dir, first = cached_study
    second_dir = tmp_path / "other-cache"
    second = run_drift_study(_tiny_config(str(second_dir)))
    assert not second.from_cache
    assert second.base_pearson == first.base_pearson
    for a, b in zip(second.steps, first.steps):
        assert a.stale_pearson == b.stale_pearson
        assert a.retrain_pearson == b.retrain_pearson
        assert [p.pearson for p in a.fine_tune] == [
            p.pearson for p in b.fine_tune
        ]
    # A cold rerun rewrites every artifact byte for byte, the drift
    # entry included.
    written = sorted(path for path in second_dir.rglob("*") if path.is_file())
    assert any(path.name.startswith("drift") for path in written)
    for path in written:
        twin = Path(first_dir) / path.relative_to(second_dir)
        assert twin.is_file(), path.name
        assert _sha256(twin) == _sha256(path), path.name


def test_runs_without_a_store(cached_study):
    _, cached = cached_study
    result = run_drift_study(_tiny_config(None, steps=1))
    assert not result.from_cache
    assert result.steps[0].stale_pearson == cached.steps[0].stale_pearson


def test_format_drift_table(cached_study):
    _, result = cached_study
    table = format_drift_table(result)
    assert "zoo-line6-clean-s1" in table
    assert "stale_r" in table and "retrain_r" in table
    assert "ft2_r" in table and "ft4_r" in table
    assert len(table.splitlines()) == 4 + len(result.steps)


def test_effective_drift_overrides():
    config = _tiny_config(None, fidelity_drift=0.05, drift_scale=2.0)
    fid, relax = config.effective_drift()
    assert fid == pytest.approx(0.10)        # override x scale
    assert relax == pytest.approx(1.0)       # clean tier 0.5 x scale
    builtin = DriftStudyConfig(device="q20a")
    assert builtin.effective_drift() == (0.3, 0.6)


def test_validation():
    with pytest.raises(ValueError):
        run_drift_study(_tiny_config(None, steps=0))
    with pytest.raises(ValueError):
        run_drift_study(_tiny_config(None, refresh_trees=()))
    with pytest.raises(ValueError):
        run_drift_study(_tiny_config(None, refresh_trees=(0, 2)))


def test_calibration_distance():
    device = resolve_device("q20a")
    calibration = device.true_calibration
    assert calibration_distance(calibration, calibration) == 0.0
    drifted = drift_calibration(
        calibration, np.random.default_rng(0),
        fidelity_drift=0.3, relaxation_drift=0.6,
    )
    assert calibration_distance(calibration, drifted) > 0
