"""Unit tests for the cross-device (transfer) study."""

import numpy as np
import pytest

from repro.evaluation import (
    FOM_ORDER,
    PROPOSED_LABEL,
    StudyConfig,
    format_transfer_table,
    run_cross_device_study,
)
from repro.evaluation.study import build_device_datasets
from repro.hardware import make_zoo_device

TINY_CONFIG_KWARGS = dict(
    algorithms=["ghz", "qft", "dj", "vqe"],
    max_qubits=5,
    shots=250,
    seed=0,
    param_grid={
        "n_estimators": [15],
        "max_depth": [None, 5],
        "min_samples_leaf": [1],
        "min_samples_split": [2],
    },
)


@pytest.fixture(scope="module")
def tiny_result():
    train = make_zoo_device("grid", 8, tier="noisy", seed=0)
    evals = [
        make_zoo_device("ring", 8, seed=0),
        make_zoo_device("random", 8, seed=2),
    ]
    return run_cross_device_study(
        train, evals, config=StudyConfig(**TINY_CONFIG_KWARGS)
    )


def test_result_shape(tiny_result):
    assert tiny_result.train_device == "zoo-grid8-noisy-s0"
    assert tiny_result.eval_device_names == [
        "zoo-ring8-typical-s0", "zoo-random8-typical-s2",
    ]
    for fom in FOM_ORDER + [PROPOSED_LABEL]:
        for name in tiny_result.device_names:
            value = tiny_result.correlations[fom][name]
            assert 0.0 <= value <= 1.0, (fom, name)
    rows = tiny_result.table_rows()
    assert [row[0] for row in rows] == FOM_ORDER + [PROPOSED_LABEL]
    assert all(len(values) == 3 for _, values in rows)


def test_transfer_scores_use_the_trained_model_on_heldout_programs(tiny_result):
    """Recomputing a transfer column from the returned estimator matches."""
    from repro.ml.metrics import pearson_r

    train_data = tiny_result.datasets[tiny_result.train_device]
    heldout = {
        train_data.entries[int(i)].name
        for i in tiny_result.report.test_indices
    }
    name = tiny_result.eval_device_names[0]
    data = tiny_result.datasets[name]
    rows = [i for i, entry in enumerate(data.entries) if entry.name in heldout]
    assert len(rows) >= 2
    expected = abs(
        pearson_r(data.y[rows], tiny_result.estimator.predict(data.X[rows]))
    )
    assert tiny_result.correlations[PROPOSED_LABEL][name] == pytest.approx(expected)


def test_single_model_scores_every_column(tiny_result):
    """The in-domain column comes from the same forest as the transfer ones."""
    from repro.ml.metrics import pearson_r

    train_data = tiny_result.datasets[tiny_result.train_device]
    test_idx = [int(i) for i in tiny_result.report.test_indices]
    recomputed = abs(pearson_r(
        train_data.y[test_idx],
        tiny_result.estimator.predict(train_data.X[test_idx]),
    ))
    assert tiny_result.correlations[PROPOSED_LABEL][
        tiny_result.train_device
    ] == pytest.approx(recomputed)


def test_transfer_scored_on_heldout_subset_only(tiny_result):
    """The proposed row never scores programs seen during training."""
    n_heldout = len(tiny_result.report.test_indices)
    for name in tiny_result.device_names:
        support = tiny_result.transfer_support[name]
        assert support <= n_heldout
        assert support < len(tiny_result.datasets[name])


def test_transfer_gap_definition(tiny_result):
    name = tiny_result.eval_device_names[1]
    proposed = tiny_result.correlations[PROPOSED_LABEL]
    assert tiny_result.transfer_gap(name) == pytest.approx(
        proposed[tiny_result.train_device] - proposed[name]
    )


def test_format_transfer_table(tiny_result):
    text = format_transfer_table(tiny_result)
    assert "Cross-device transfer" in text
    assert "(train)" in text
    assert "Transfer gap" in text
    for name in tiny_result.device_names:
        assert name in text


def test_cache_round_trip_is_bit_identical(tmp_path):
    train = make_zoo_device("grid", 8, tier="noisy", seed=0)
    evals = [make_zoo_device("ring", 8, seed=0)]
    config = StudyConfig(**TINY_CONFIG_KWARGS)
    cold = run_cross_device_study(
        train, evals, config=config, cache_dir=str(tmp_path)
    )
    # Datasets, report, and train-split estimator are all checkpointed.
    kinds = {path.name.split("_")[0] for path in tmp_path.iterdir()}
    assert kinds == {"dataset", "report", "transfer-estimator"}
    warm = run_cross_device_study(
        train, evals, config=config, cache_dir=str(tmp_path)
    )
    for fom in FOM_ORDER + [PROPOSED_LABEL]:
        for name in cold.device_names:
            assert warm.correlations[fom][name] == cold.correlations[fom][name]
    assert np.array_equal(
        warm.estimator.predict(cold.datasets[evals[0].name].X),
        cold.estimator.predict(cold.datasets[evals[0].name].X),
    )


def test_rejects_empty_and_duplicate_devices():
    train = make_zoo_device("ring", 8, seed=0)
    with pytest.raises(ValueError, match="at least one eval device"):
        run_cross_device_study(train, [], config=StudyConfig(**TINY_CONFIG_KWARGS))
    with pytest.raises(ValueError, match="duplicate device names"):
        run_cross_device_study(
            train, [make_zoo_device("ring", 8, seed=0)],
            config=StudyConfig(**TINY_CONFIG_KWARGS),
        )


def test_datasets_capped_at_device_width():
    """A small device gets the widest suite it can hold, not a crash."""
    config = StudyConfig(**{**TINY_CONFIG_KWARGS, "max_qubits": 6})
    small = make_zoo_device("line", 4, seed=0)
    datasets = build_device_datasets([small], config)
    assert max(entry.num_qubits for entry in datasets[small.name].entries) <= 4


def test_datasets_reject_devices_below_min_qubits():
    config = StudyConfig(**{**TINY_CONFIG_KWARGS, "min_qubits": 5})
    tiny = make_zoo_device("line", 3, seed=0)
    with pytest.raises(ValueError, match="below the study's min_qubits"):
        build_device_datasets([tiny], config)


def test_thread_mode_study_starts_no_process_pool(pool_constructions):
    """``workers_mode="thread"`` reaches every stage, training included."""
    train = make_zoo_device("grid", 8, tier="noisy", seed=0)
    config = StudyConfig(
        **TINY_CONFIG_KWARGS, max_workers=2, workers_mode="thread"
    )
    run_cross_device_study(
        train, [make_zoo_device("ring", 8, seed=0)], config=config
    )
    assert pool_constructions == []
