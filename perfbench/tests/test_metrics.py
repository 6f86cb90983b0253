"""Metric names and the declared benchmark contract."""

import json

import pytest

import layers
from common import END_TO_END, METRIC_NAME, MIN_BEYOND, ROOT, end_to_end, nearest_rank

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [name for name, _ in layers.catalogue()]
    assert names and all(METRIC_NAME.fullmatch(name) for name in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) == (
        len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    )


def test_per_layer_metrics_match_the_catalogue():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == layers.catalogue()


def test_every_workload_reports_the_declared_end_to_end_metrics():
    declared = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert declared == list(END_TO_END)
    reported = end_to_end(setup_s=1.0, latency_ms=2.0, peak_rss_mb=3.0)
    assert [(name, unit) for name, (_, unit) in reported.items()] == declared


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_nearest_rank_requires_ten_samples_beyond_the_percentile():
    samples = list(range(1, 101))                 # 1..100
    assert nearest_rank(samples, 0.90) == 90      # 10 samples beyond
    assert nearest_rank(samples, 0.50) == 50
    with pytest.raises(ValueError):
        nearest_rank(samples[:99], 0.90)          # only 9 beyond
    assert nearest_rank(list(range(20)), 0.50) == 9
    with pytest.raises(ValueError):
        nearest_rank(list(range(19)), 0.50)
    assert MIN_BEYOND == 10


def test_nearest_rank_does_not_depend_on_input_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 30
    assert nearest_rank(samples, 0.5) == nearest_rank(sorted(samples), 0.5) == 3.0
