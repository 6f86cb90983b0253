"""Integration tests for the correlation study (reduced configuration)."""

import numpy as np
import pytest

from repro.evaluation.study import (
    FOM_ORDER,
    PROPOSED_LABEL,
    StudyConfig,
    compute_improvements,
    run_study,
)

SMALL_CONFIG = StudyConfig(
    algorithms=["ghz", "bv", "qft", "wstate", "vqe", "qaoa"],
    max_qubits=7,
    shots=500,
    seed=0,
    optimization_level=1,
    param_grid={
        "n_estimators": [20],
        "max_depth": [None],
        "min_samples_leaf": [1],
        "min_samples_split": [2],
    },
)


@pytest.fixture(scope="module")
def result():
    return run_study(config=SMALL_CONFIG)


def test_all_foms_scored(result):
    for fom in FOM_ORDER + [PROPOSED_LABEL]:
        for column in ["Q20-A", "Q20-B", "Combined"]:
            value = result.correlations[fom][column]
            assert 0.0 <= value <= 1.0


def test_proposed_beats_established(result):
    for column in ["Q20-A", "Q20-B", "Combined"]:
        established_best = max(
            result.correlations[fom][column] for fom in FOM_ORDER
        )
        assert result.correlations[PROPOSED_LABEL][column] > established_best - 0.1


def test_improvements_positive(result):
    for column, value in result.improvements.items():
        assert value > 0, column


def test_table_rows_structure(result):
    rows = result.table_rows()
    assert len(rows) == 5
    assert rows[0][0] == "Number of gates"
    assert rows[-1][0] == PROPOSED_LABEL
    assert all(len(values) == 3 for _, values in rows)


def test_reports_have_importances(result):
    for name in ("Q20-A", "Q20-B"):
        report = result.reports[name]
        assert report.feature_importances.shape == (30,)
        assert report.feature_importances.sum() == pytest.approx(1.0)


def test_datasets_nonempty_and_filtered(result):
    for name in ("Q20-A", "Q20-B"):
        data = result.datasets[name]
        assert len(data) > 10
        assert all(e.compiled_depth < 1000 for e in data.entries)


def test_compute_improvements_formula(result):
    improvements = compute_improvements(result)
    for column in ["Q20-A", "Q20-B", "Combined"]:
        established = np.mean(
            [result.correlations[fom][column] for fom in FOM_ORDER]
        )
        proposed = result.correlations[PROPOSED_LABEL][column]
        expected = (proposed / established - 1.0) * 100.0
        assert improvements[column] == pytest.approx(expected)


def test_build_device_datasets_empty_mapping():
    from repro.evaluation.study import build_device_datasets

    assert build_device_datasets({}, SMALL_CONFIG, cache=None) == {}


def test_study_deterministic():
    a = run_study(config=SMALL_CONFIG)
    b = run_study(config=SMALL_CONFIG)
    for fom in FOM_ORDER:
        assert a.correlations[fom] == b.correlations[fom]


# ----------------------------------------------------------------------
# optimization_level="search": predictor-guided study compilation.


def _search_estimator():
    from repro.ml.forest import RandomForestRegressor

    rng = np.random.default_rng(0)
    forest = RandomForestRegressor(
        n_estimators=5, random_state=0, max_features="sqrt"
    )
    forest.fit(rng.uniform(size=(40, 30)), rng.uniform(size=40))
    return forest


def test_search_fingerprint_only_when_active():
    base = StudyConfig(max_qubits=4, algorithms=["ghz"], shots=200)
    # Search fields on an int-level config must not move the fingerprint:
    # every pre-search cache entry stays addressable.
    decoy = StudyConfig(
        max_qubits=4, algorithms=["ghz"], shots=200,
        search_estimator=_search_estimator(),
        search_opts={"beam_width": 9},
    )
    assert base.dataset_fingerprint("Q20-A") == decoy.dataset_fingerprint("Q20-A")
    active = StudyConfig(
        max_qubits=4, algorithms=["ghz"], shots=200,
        optimization_level="search", search_estimator=_search_estimator(),
        search_opts={"beam_width": 2, "generations": 1},
    )
    fingerprint = active.dataset_fingerprint("Q20-A")
    assert fingerprint != base.dataset_fingerprint("Q20-A")
    # ... and the search knobs are part of the key.
    other = StudyConfig(
        max_qubits=4, algorithms=["ghz"], shots=200,
        optimization_level="search", search_estimator=_search_estimator(),
        search_opts={"beam_width": 3, "generations": 1},
    )
    assert other.dataset_fingerprint("Q20-A") != fingerprint


def test_build_device_datasets_search_level():
    from repro.evaluation.study import build_device_datasets
    from repro.hardware.iqm import make_q20a

    config = StudyConfig(
        max_qubits=4, algorithms=["ghz", "bv"], shots=200,
        optimization_level="search", search_estimator=_search_estimator(),
        search_opts={"beam_width": 2, "generations": 1},
    )
    datasets = build_device_datasets([make_q20a()], config)
    data = datasets["Q20-A"]
    assert len(data) > 0
