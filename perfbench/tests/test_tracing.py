"""Span recording and the ledger's self-time arithmetic."""

import pytest

import tracing


def _span(span_id, parent, name, start, end, request=None):
    return (span_id, parent, name, start, end, request)


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        _span(1, None, "compiler.compile_batch", 0.0, 10.0),
        _span(2, 1, "compiler.pass.SabreRouting", 1.0, 4.0),
        _span(3, 1, "compiler.pass.NativeSynthesis", 3.0, 6.0),   # overlaps 2
        _span(4, 2, "compiler.pass.Decompose", 2.0, 3.0),
        _span(5, 1, "fom.features", 8.0, 12.0),                   # runs past 1
    ]
    own = tracing.self_times(spans)
    # 10 s minus the covered [1, 6] and [8, 10].
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(4.0)


def test_worker_spans_are_adopted_by_the_call_that_waited_for_them():
    main = {"role": "main", "spans": [
        _span(1, None, "ml.train", 0.0, 10.0),
        _span(2, 1, "compiler.compile_batch", 1.0, 5.0),
    ], "events": [], "counters": {}}
    worker = {"role": "worker", "spans": [
        _span(1, None, "compiler.pass.SabreRouting", 2.0, 4.0),
        _span(2, None, "compiler.pass.SabreRouting", 3.0, 4.5),   # parallel
        _span(3, 2, "compiler.pass.Decompose", 3.0, 3.5),
    ], "events": [], "counters": {}}
    assert dict(tracing.adopt_worker_spans(main, [worker])) == {
        2: [(2.0, 4.0), (3.0, 4.5)],
    }
    ledger = tracing.ledger([main, worker])
    names = ledger["names"]
    assert names["compiler.compile_batch"]["self_s"] == pytest.approx(1.5)
    assert names["ml.train"]["self_s"] == pytest.approx(6.0)
    assert names["compiler.pass.SabreRouting"]["calls"] == 2
    assert names["compiler.pass.SabreRouting"]["self_s"] == pytest.approx(3.0)
    layers = ledger["layers"]
    assert layers["compiler"]["self_s"] == pytest.approx(1.5 + 3.0 + 0.5)
    assert sum(layer["share"] for layer in layers.values()) == pytest.approx(1.0)


def test_ledger_window_and_wait_spans():
    dump = {"role": "main", "spans": [
        _span(1, None, "serving.request", 0.0, 1.0, request=7),
        _span(2, 1, "serving.batcher.submit", 0.1, 0.9, request=7),
        _span(3, None, "serving.batch", 0.5, 0.8),
        _span(4, None, "serving.request", 5.0, 6.0, request=8),
    ], "events": [["compiler.cache_miss", 0.6], ["compiler.cache_miss", 5.5]],
        "counters": {}}
    ledger = tracing.ledger([dump], windows=[(0.0, 2.0), (9.0, 10.0)])
    assert ledger["names"]["serving.request"]["calls"] == 1
    assert ledger["events"] == {"compiler.cache_miss": 1}
    # Waiting in the batcher queue is listed but is not busy time.
    assert ledger["names"]["serving.batcher.submit"]["self_s"] == pytest.approx(0.8)
    assert ledger["layers"]["serving"]["self_s"] == pytest.approx(0.2 + 0.3)


def test_recorder_links_parents_and_request_ids():
    recorder = tracing.Recorder()

    def inner():
        return "done"

    traced_inner = recorder.wrap("fom.features", inner)
    outer = recorder.wrap("predictor.predict_at", lambda: traced_inner())
    token = tracing.set_request(42)
    try:
        assert outer() == "done"
    finally:
        tracing._request.reset(token)
    child, parent = recorder.spans
    assert child[2] == "fom.features" and parent[2] == "predictor.predict_at"
    assert child[1] == parent[0] and parent[1] is None
    assert child[5] == parent[5] == 42


def test_pass_shares_count_nested_passes_once():
    import layers

    dump = {"role": "main", "spans": [
        _span(1, None, "compiler.compile_batch", 0.0, 10.0),
        _span(2, 1, "compiler.pass.SabreRouting", 0.0, 4.0),
        _span(3, 1, "compiler.pass.OptimizationLoop", 4.0, 8.0),
        _span(4, 3, "compiler.pass.NativeSynthesis", 5.0, 7.0),  # inside the loop
        _span(5, 1, "compiler.pass.NativeSynthesis", 8.0, 10.0),
    ], "events": [], "counters": {}}
    names = tracing.ledger([dump])["names"]
    assert names["compiler.pass.NativeSynthesis"]["outer_s"] == pytest.approx(2.0)
    shares = layers.pass_shares(names)
    assert shares == pytest.approx(
        {"routing": 0.4, "optimization_loop": 0.4, "synthesis": 0.2})
