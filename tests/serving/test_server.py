"""ServingDaemon end-to-end over real sockets (DaemonThread + ServingClient).

The contract under test: daemon responses are **bit-identical** to
direct :class:`FomService` calls, concurrency and batch size never
change values, backpressure sheds load with 503, and shutdown drains
queued work without dropping or duplicating a response.  Tests that need
requests to coalesce, time out or be in flight hold the batch runner on
a :class:`threading.Event` (:mod:`.gating`) instead of waiting on timers.
"""

import asyncio
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.circuits.qasm import to_qasm
from repro.circuits.random import random_circuit
from repro.compiler import clear_compile_cache
from repro.evaluation.persistence import save_model
from repro.predictor.estimator import HellingerEstimator
from repro.predictor.service import PROPOSED_LABEL, FomService
from repro.serving import (
    ModelSource,
    ServerConfig,
    ServingClient,
    ServingError,
    ServingDaemon,
)
from repro.serving.batcher import DynamicBatcher
from repro.serving.server import DaemonThread

from .gating import behind_a_running_batch, gated, wait_for

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}
DEVICE = "q20a"
LEVEL = 2


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )
    path = tmp_path_factory.mktemp("serving") / "model.npz"
    save_model(estimator, path)
    return path


@pytest.fixture(scope="module")
def direct(model_path):
    """The reference answer: a FomService on the same model + device."""
    return FomService(
        FomService.load(model_path, DEVICE).estimator,
        DEVICE, optimization_level=LEVEL, seed=0,
    )


@pytest.fixture(scope="module")
def circuits():
    return [
        random_circuit(3 + (seed % 3), 6, seed=seed, measure=True)
        for seed in range(9)
    ]


def make_daemon(model_path, **config_kwargs):
    source = ModelSource(
        "file", model_path, DEVICE, {"optimization_level": LEVEL, "seed": 0}
    )
    config_kwargs.setdefault("port", 0)
    return ServingDaemon([source], ServerConfig(**config_kwargs))


def hold_batches(daemon):
    """Block every batch of an in-process daemon until the returned
    :class:`threading.Event` is set.

    A warm request is answered before it reaches the batcher, and the
    daemon shares this process's compile cache, so the cache is emptied:
    every circuit sent next is cold and really queues.
    """
    clear_compile_cache()
    gate = threading.Event()
    batcher = daemon._backend.batcher
    batcher._runner = gated(batcher._runner, gate)
    return gate


def queued_behind_a_blocker(daemon, requests):
    """Send ``requests`` (lists of QASM strings) to a started daemon while
    a one-circuit blocker batch holds its runner, so they queue and leave
    together; returns their ``(status, body)`` answers in order."""
    batcher = daemon._backend.batcher
    gate = hold_batches(daemon)
    answers = [None] * (len(requests) + 1)

    def send(index, qasm):
        with ServingClient(daemon.host, daemon.port) as client:
            answers[index] = client.request(
                "POST", "/predict", {"circuits": qasm}
            )

    threads = [threading.Thread(target=send, args=(0, requests[0][:1]))]
    try:
        threads[0].start()
        wait_for(lambda: batcher.snapshot().in_flight == 1)
        for index, qasm in enumerate(requests, start=1):
            threads.append(threading.Thread(target=send, args=(index, qasm)))
            threads[-1].start()
        wait_for(
            lambda: batcher.snapshot().requests_waiting == len(requests)
        )
    finally:
        gate.set()
        for thread in threads:
            thread.join(timeout=600)
    assert answers[0][0] == 200
    return answers[1:]


@pytest.fixture(scope="module")
def daemon(model_path):
    """A long-lived daemon shared by the read-only tests."""
    thread = DaemonThread(make_daemon(model_path))
    host, port = thread.start()
    yield thread.daemon
    thread.stop()


@pytest.fixture()
def client(daemon):
    with ServingClient(daemon.host, daemon.port) as connected:
        yield connected


def test_healthz_reports_models_and_knobs(daemon, client):
    status, payload = client.healthz()
    assert status == 200
    assert payload["status"] == "serving"
    (model,) = payload["models"]
    assert model["device"] == "Q20-A"
    assert payload["batch"]["max_batch"] == daemon.config.max_batch


def test_concurrent_clients_bit_identical_to_solo_calls(
    model_path, direct, circuits
):
    """N concurrent clients, unequal request sizes, one coalesced batch —
    every response equals the 1-client (direct FomService) answer."""
    requests = [circuits[0:3], circuits[3:5], circuits[5:9], circuits[1:2]]
    daemon = make_daemon(model_path)
    with DaemonThread(daemon):
        answers = queued_behind_a_blocker(
            daemon, [[to_qasm(c) for c in request] for request in requests]
        )
        with ServingClient(daemon.host, daemon.port) as client:
            histogram = client.stats()["batches"]["size_histogram"]
    assert histogram == {"1": 1, "10": 1}
    for (status, body), request in zip(answers, requests):
        assert status == 200, body
        assert body["predictions"] == direct.predict(request).tolist()
        assert body["count"] == len(request)


def test_coalesced_single_circuit_requests_match_their_solo_bytes(
    tmp_path, circuits
):
    """A one-circuit request coalesced with others answers the same bytes
    as when it runs alone.  The forest has 16 trees, so numpy's one-row
    ``mean(axis=0)`` (pairwise, eight accumulators) would differ from its
    many-row mean (sequential) in the last bit; the forest therefore sums
    over trees sequentially for any row count."""
    rng = np.random.default_rng(1)
    grid = {**TINY_GRID, "n_estimators": [16], "max_depth": [8]}
    estimator = HellingerEstimator(param_grid=grid, seed=0).fit(
        rng.uniform(size=(80, 30)), rng.uniform(size=80)
    )
    daemon = make_daemon(save_model(estimator, tmp_path / "model16.npz"))
    entry = daemon.registry.resolve()
    key = (entry.name, entry.fingerprint, LEVEL, False)
    singles = [[circuit] for circuit in circuits[:6]]
    requests = singles + [circuits[6:8], circuits[8:9] + circuits[:2]]

    async def serve(batch_requests):
        gate = threading.Event()
        batcher = DynamicBatcher(
            gated(daemon._run_batch, gate),
            max_batch=sum(len(request) for request in batch_requests),
        )
        try:
            held, tasks = await behind_a_running_batch(
                batcher, gate,
                [(key, request, len(request)) for request in batch_requests],
                hold=(key, circuits[:1], 1),
            )
        finally:
            gate.set()
        results = await asyncio.gather(*tasks)
        await held
        await batcher.close()
        return results, batcher.snapshot()

    coalesced, snapshot = asyncio.run(serve(requests))
    # The hold, then every request in one batch.
    assert snapshot.batch_size_histogram == {1: 1, 11: 1}
    for request, answer in zip(singles, coalesced):
        (solo,), _ = asyncio.run(serve([request]))
        assert json.dumps(answer).encode() == json.dumps(solo).encode()


def test_max_batch_does_not_change_response_bytes(
    model_path, direct, circuits
):
    """Requests queued together answer the same bytes whether
    ``max_batch=1`` runs each alone or ``max_batch=1024`` coalesces them."""
    requests = [
        [to_qasm(c) for c in circuits[:4]], [to_qasm(c) for c in circuits[4:6]],
    ]
    served = {}
    for max_batch in (1, 1024):
        daemon = make_daemon(model_path, max_batch=max_batch)
        with DaemonThread(daemon):
            served[max_batch] = queued_behind_a_blocker(daemon, requests)
            with ServingClient(daemon.host, daemon.port) as client:
                histogram = client.stats()["batches"]["size_histogram"]
        assert histogram == (
            {"1": 1, "2": 1, "4": 1} if max_batch == 1 else {"1": 1, "6": 1}
        )
    assert served[1] == served[1024]
    assert served[1][0][1]["predictions"] == (
        direct.predict(circuits[:4]).tolist()
    )


def test_foms_panel_matches_direct_service(client, direct, circuits):
    panel = client.foms(circuits[:3])["foms"]
    reference = direct.score_established_foms(circuits[:3])
    assert set(panel) == set(reference)
    for label, values in reference.items():
        assert panel[label] == values.tolist()
    assert panel[PROPOSED_LABEL] == direct.predict(circuits[:3]).tolist()


def test_optimization_level_override_per_request(client, direct, circuits):
    served = client.predict(circuits[:3], optimization_level=0)
    assert served["optimization_level"] == 0
    assert served["predictions"] == (
        direct.predict(circuits[:3], optimization_level=0).tolist()
    )


def test_backpressure_returns_503(model_path, circuits):
    """A request heavier than the queue bound is shed with 503, and the
    daemon keeps serving afterwards."""
    with DaemonThread(make_daemon(model_path, queue_limit=2)) as (host, port):
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError) as excinfo:
                client.predict(circuits[:5])
            assert excinfo.value.status == 503
            # Within bounds still works.
            assert len(client.predict(circuits[:2])["predictions"]) == 2
            assert client.stats()["queue"]["rejected_total"] == 1


def test_request_timeout_returns_504(model_path, circuits):
    """A request whose batch cannot finish before its timeout gets 504."""
    daemon = make_daemon(model_path, request_timeout=0.05)
    gate = hold_batches(daemon)
    try:
        with DaemonThread(daemon) as (host, port):
            with ServingClient(host, port) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.predict(circuits[:1])
                assert excinfo.value.status == 504
                gate.set()
                # The held batch completes; the daemon keeps serving.
                assert len(client.predict(circuits[:1])["predictions"]) == 1
    finally:
        gate.set()


@pytest.mark.parametrize(
    "field, value",
    [
        ("request_timeout", 0.0),
        ("request_timeout", -1.0),
        ("reload_interval", -0.5),
        ("max_body_bytes", 0),
    ],
)
def test_server_config_rejects_values_that_break_every_request(field, value):
    with pytest.raises(ValueError, match=field):
        ServerConfig(**{field: value})


def test_serve_cli_rejects_zero_request_timeout(model_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="request_timeout must be positive"):
        main([
            "serve", "--model", str(model_path), "--port", "0",
            "--request-timeout", "0",
        ])


def test_shutdown_drains_queued_request(model_path, direct, circuits):
    """stop() while one request is in flight and another is queued: both
    responses still arrive (bit-identical), then the port stops
    answering."""
    daemon = make_daemon(model_path)
    batcher = daemon._backend.batcher
    gate = hold_batches(daemon)
    thread = DaemonThread(daemon)
    host, port = thread.start()
    requests = [circuits[:1], circuits[:2]]
    results = {}

    def drive(index):
        with ServingClient(host, port) as client:
            try:
                results[index] = client.predict(requests[index])
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[index] = exc

    drivers = [threading.Thread(target=drive, args=(0,))]
    drivers[0].start()
    stopper = threading.Thread(target=thread.stop)
    try:
        wait_for(lambda: batcher.snapshot().in_flight == 1)
        drivers.append(threading.Thread(target=drive, args=(1,)))
        drivers[1].start()
        wait_for(lambda: batcher.snapshot().requests_waiting == 1)
        stopper.start()
        wait_for(lambda: daemon._draining)
    finally:
        gate.set()
    for driver in drivers + [stopper]:
        driver.join(timeout=600)
    for index, request in enumerate(requests):
        assert not isinstance(results[index], Exception), results[index]
        assert results[index]["predictions"] == (
            direct.predict(request).tolist()
        )
    # Fully down: a fresh request cannot connect.
    with pytest.raises((ConnectionError, OSError)):
        with ServingClient(host, port, timeout=2) as client:
            client.predict(circuits[:1])


def test_draining_daemon_rejects_new_work(model_path, circuits):
    thread = DaemonThread(make_daemon(model_path))
    host, port = thread.start()
    try:
        thread.daemon.begin_drain()
        with ServingClient(host, port) as client:
            status, payload = client.healthz()
            assert status == 503
            assert payload["status"] == "draining"
            with pytest.raises(ServingError) as excinfo:
                client.predict(circuits[:1])
            assert excinfo.value.status == 503
    finally:
        thread.stop()


def test_bad_requests_are_400s(client, circuits):
    qasm = to_qasm(circuits[0])
    cases = [
        ("POST", "/predict", None),                        # no body
        ("POST", "/predict", {"circuits": []}),            # empty list
        ("POST", "/predict", {"circuits": "not-a-list"}),
        ("POST", "/predict", {"circuits": [qasm], "optimization_level": 9}),
        ("POST", "/predict", {"circuits": [qasm], "model": "nope"}),
        ("POST", "/predict", {"circuits": ["qreg q[2]; bogus q[0];"]}),
    ]
    for method, path, payload in cases:
        status, body = client.request(method, path, payload)
        assert status == 400, (payload, body)
        assert "error" in body


#: Parses, fits the device, and fails inside the batch: the compiler
#: rejects a gate after a measurement.
MID_CIRCUIT_MEASURE = (
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
    "h q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\n"
)


def test_wide_circuits_and_hostile_angles_are_400s(client, circuits):
    wide = "OPENQASM 2.0;\nqreg q[25];\nh q[24];\n"
    hostile = [
        "qreg q[1];\nrz(1e308*10) q[0];\n",
        "qreg q[1];\nrz(9**9**9) q[0];\n",
        "qreg q[1];\nrz(pi/0) q[0];\n",
    ]
    for qasm in [wide] + hostile:
        for stream in (False, True):
            payload = {"circuits": [to_qasm(circuits[0]), qasm]}
            if stream:
                payload["stream"] = True
            status, body = client.request("POST", "/predict", payload)
            assert status == 400, (qasm, body)
            assert "error" in body
    status, body = client.request("POST", "/predict", {"circuits": [wide]})
    assert "needs 25 qubits" in body["error"]
    # The daemon is still serving.
    assert len(client.predict(circuits[:1])["predictions"]) == 1


def test_failing_batch_is_answered_500(client, circuits):
    status, body = client.request(
        "POST", "/predict", {"circuits": [MID_CIRCUIT_MEASURE]}
    )
    assert status == 500
    assert "mid-circuit measurement" in body["error"]
    assert len(client.predict(circuits[:1])["predictions"]) == 1


def test_failing_request_fails_its_whole_batch_with_500s(
    model_path, direct, circuits
):
    """A gated runner holds the first batch, so a good request and a
    failing one queue behind it and coalesce into one batch.  That batch
    raises: both requests get a 500 (not a dropped connection), and the
    daemon serves normally afterwards."""
    daemon = make_daemon(model_path)
    good = to_qasm(circuits[1])
    with DaemonThread(daemon):
        answers = queued_behind_a_blocker(
            daemon, [[good], [MID_CIRCUIT_MEASURE]]
        )
        for status, body in answers:
            assert status == 500, body
            assert "mid-circuit measurement" in body["error"]
        with ServingClient(daemon.host, daemon.port) as client:
            stats = client.stats()
            assert stats["batches"]["size_histogram"] == {"1": 1, "2": 1}
            assert stats["responses"]["500"] == 2
            # Alone, the good request is answered as usual.
            assert client.predict([good])["predictions"] == (
                direct.predict([circuits[1]]).tolist()
            )


def test_routing_errors(client):
    status, body = client.request("GET", "/nowhere")
    assert status == 404
    assert "/predict" in body["error"]
    status, _ = client.request("POST", "/healthz")
    assert status == 405
    status, _ = client.request("GET", "/predict")
    assert status == 405


def test_stats_shape_and_counters(client, circuits):
    client.predict(circuits[:2])
    stats = client.stats()
    assert stats["uptime_s"] > 0
    assert stats["draining"] is False
    assert stats["requests"]["/predict"] >= 1
    assert stats["responses"]["200"] >= 1
    assert stats["queue"]["depth"] == 0
    assert stats["batches"]["total"] >= 1
    assert stats["batches"]["requests_total"] >= 1
    assert stats["latency"]["samples"] >= 1
    assert stats["latency"]["request_p50_s"] > 0
    assert stats["latency"]["request_p99_s"] >= stats["latency"]["request_p50_s"]
    assert set(stats["latency"]["stages_s"]) == {
        "compile_s", "featurize_s", "predict_s",
    }


def test_warm_path_skips_only_plain_warm_requests(model_path, circuits):
    """Only a /predict whose every circuit is warm, within ``max_batch``
    and not streamed is answered without the batcher; /foms, streams,
    oversized requests and a request with one cold circuit queue as
    before."""
    daemon = make_daemon(model_path, max_batch=2)
    clear_compile_cache()
    warm = circuits[:3]
    with DaemonThread(daemon) as (host, port):
        with ServingClient(host, port) as client:
            client.predict(warm[:2])
            client.predict(warm[2:])

            def counters():
                batches = client.stats()["batches"]
                return batches["requests_total"], batches["warm_total"]

            assert counters() == (2, 0)
            assert client.predict(warm[:2])["count"] == 2
            assert counters() == (2, 1)
            client.foms(warm[:2])
            assert counters() == (3, 1)
            assert len(list(client.predict_stream(warm[:2]))) == 1
            assert counters() == (3, 1)
            assert client.predict(warm)["count"] == 3
            assert counters() == (4, 1)
            assert client.predict([warm[0], circuits[8]])["count"] == 2
            assert counters() == (5, 1)
            # Every answer, streamed or not, is one latency sample.
            assert client.stats()["latency"]["samples"] == 7


def test_warm_and_batched_requests_interleave_under_load(
    model_path, direct, circuits
):
    """Clients racing warm answers on the loop against batches in the
    runner thread, which share the compile cache, all get their solo
    bytes."""
    clear_compile_cache()
    requests = [circuits[start:start + 2] for start in range(0, 8, 2)]
    expected = [direct.predict(request).tolist() for request in requests]
    clear_compile_cache()
    answers, errors = [], []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DaemonThread(make_daemon(model_path)) as (host, port):

            def drive(offset):
                with ServingClient(host, port) as client:
                    for round_ in range(3):
                        for index in range(len(requests)):
                            index = (index + offset) % len(requests)
                            try:
                                served = client.predict(requests[index])
                            except Exception as exc:  # noqa: BLE001
                                errors.append(exc)
                                return
                            answers.append((index, served["predictions"]))

            drivers = [
                threading.Thread(target=drive, args=(offset,))
                for offset in range(4)
            ]
            for driver in drivers:
                driver.start()
            for driver in drivers:
                driver.join(timeout=300)
            assert not any(driver.is_alive() for driver in drivers)
            with ServingClient(host, port) as client:
                batches = client.stats()["batches"]
    finally:
        sys.setswitchinterval(switch_interval)
    assert not errors
    assert len(answers) == 4 * 3 * len(requests)
    for index, predictions in answers:
        assert predictions == expected[index]
    assert batches["warm_total"] > 0 and batches["requests_total"] > 0
    assert batches["warm_total"] + batches["requests_total"] == len(answers)


def test_warm_answer_that_raises_is_a_500_like_a_failed_batch(
    model_path, circuits
):
    clear_compile_cache()
    daemon = make_daemon(model_path)
    payload = {"circuits": [to_qasm(circuit) for circuit in circuits[:2]]}
    with DaemonThread(daemon) as (host, port):
        with ServingClient(host, port) as client:
            first = client.request("POST", "/predict", payload)
            service = daemon.registry.resolve().service
            estimator = service.estimator

            class Broken:
                def predict(self, X):
                    raise RuntimeError("forest unavailable")

            service.estimator = Broken()
            try:
                failed = client.request("POST", "/predict", payload)
            finally:
                service.estimator = estimator
            assert failed == (
                500, {"error": "batch failed: forest unavailable"}
            )
            # The daemon keeps serving, warm, in the first answer's bytes.
            assert client.request("POST", "/predict", payload) == first
            batches = client.stats()["batches"]
            assert (batches["requests_total"], batches["warm_total"]) == (1, 1)


def test_draining_daemon_refuses_warm_and_batched_requests_alike(
    model_path, circuits
):
    clear_compile_cache()
    thread = DaemonThread(make_daemon(model_path))
    host, port = thread.start()
    try:
        with ServingClient(host, port) as client:
            client.predict(circuits[:1])
            thread.daemon.begin_drain()
            warm = client.request(
                "POST", "/predict", {"circuits": [to_qasm(circuits[0])]}
            )
            cold = client.request(
                "POST", "/predict", {"circuits": [to_qasm(circuits[5])]}
            )
            assert warm == cold
            assert warm[0] == 503
            assert client.stats()["batches"]["warm_total"] == 0
    finally:
        thread.stop()


def test_empty_registry_is_rejected():
    with pytest.raises(ValueError, match="empty model registry"):
        ServingDaemon([])


# ----------------------------------------------------------------------
# Chunked streaming (in-process mode)
# ----------------------------------------------------------------------


def test_stream_bit_identical_across_chunk_boundaries(
    client, direct, circuits
):
    """`"stream": true` delivers the same values as a plain /predict —
    chunk boundaries change delivery, never math (global positions in
    predict_stream keep the compile seeds identical)."""
    expected = direct.predict(circuits[:5]).tolist()
    stream = client.predict_stream(circuits[:5], chunk_size=2)
    assert stream.header["count"] == 5
    assert stream.header["optimization_level"] == LEVEL
    chunks = list(stream)
    assert [len(chunk) for chunk in chunks] == [2, 2, 1]
    assert [value for chunk in chunks for value in chunk] == expected
    assert stream.received == 5
    # A different chunking yields the same flat values.
    whole = list(client.predict_stream(circuits[:5]))
    assert [value for chunk in whole for value in chunk] == expected


def test_stream_then_plain_request_reuse_connection(
    client, direct, circuits
):
    """A drained stream leaves the keep-alive connection usable."""
    flat = [
        value
        for chunk in client.predict_stream(circuits[:3], chunk_size=1)
        for value in chunk
    ]
    assert flat == direct.predict(circuits[:3]).tolist()
    assert client.predict(circuits[:2])["predictions"] == (
        direct.predict(circuits[:2]).tolist()
    )


def test_stream_validation_rejections(client, circuits):
    qasm = to_qasm(circuits[0])
    cases = [
        ("/foms", {"circuits": [qasm], "stream": True}),      # predict-only
        ("/predict", {"circuits": [qasm], "stream": "yes"}),  # not a bool
        ("/predict", {"circuits": [qasm], "chunk_size": 2}),  # needs stream
        ("/predict", {"circuits": [qasm], "stream": True, "chunk_size": 0}),
        ("/predict", {"circuits": [qasm], "stream": True, "chunk_size": True}),
    ]
    for path, payload in cases:
        status, body = client.request("POST", path, payload)
        assert status == 400, (payload, body)
        assert "error" in body


def test_stream_rejected_while_draining(model_path, circuits):
    thread = DaemonThread(make_daemon(model_path))
    host, port = thread.start()
    try:
        thread.daemon.begin_drain()
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError) as excinfo:
                client.predict_stream(circuits[:1])
            assert excinfo.value.status == 503
    finally:
        thread.stop()


def test_stats_expose_raw_latency_reservoir(client, circuits):
    """The reservoir a sharded parent merges: raw samples whose
    nearest-rank percentiles are exactly the reported ones."""
    from repro.serving.server import nearest_rank

    client.predict(circuits[:2])
    latency = client.stats()["latency"]
    reservoir = latency["reservoir"]
    assert len(reservoir) == latency["samples"] >= 1
    ordered = sorted(reservoir)
    assert latency["request_p50_s"] == nearest_rank(ordered, 0.50)
    assert latency["request_p99_s"] == nearest_rank(ordered, 0.99)
    assert latency["request_max_s"] == ordered[-1]


# ----------------------------------------------------------------------
# Latency percentiles (nearest-rank) on tiny samples
# ----------------------------------------------------------------------


def test_percentile_nearest_rank_small_samples(model_path):
    """Regression: int(f * n) indexed one rank high at exact multiples —
    with two samples, p50 returned the *larger* one."""
    import asyncio

    daemon = make_daemon(model_path)

    def latency_with(samples):
        async def run():
            daemon._latencies.clear()
            daemon._latencies.extend(samples)
            return daemon._stats()["latency"]
        return asyncio.run(run())

    empty = latency_with([])
    assert empty["request_p50_s"] is None
    assert empty["request_p99_s"] is None
    assert empty["request_max_s"] is None

    one = latency_with([0.5])
    assert one["request_p50_s"] == 0.5
    assert one["request_p99_s"] == 0.5

    two = latency_with([0.9, 0.1])
    assert two["request_p50_s"] == 0.1     # nearest-rank p50 of n=2
    assert two["request_p99_s"] == 0.9

    three = latency_with([0.3, 0.1, 0.2])
    assert three["request_p50_s"] == 0.2
    assert three["request_p99_s"] == 0.3
    assert three["request_max_s"] == 0.3


def test_render_stats_handles_null_percentiles(model_path):
    """`repro client stats` must render a fresh daemon's null percentiles
    as n/a, not crash formatting None."""
    import asyncio

    from repro.cli import _render_stats

    daemon = make_daemon(model_path)

    async def run():
        return daemon._stats()

    rendered = _render_stats(asyncio.run(run()))
    assert "p50=n/a p99=n/a max=n/a" in rendered
    assert "warm=0" in rendered
    assert "samples=0" in rendered
    rendered = _render_stats(
        {"latency": {"request_p50_s": 0.25, "samples": 1}}
    )
    assert "p50=250.0ms" in rendered


# ----------------------------------------------------------------------
# Hot estimator reload
# ----------------------------------------------------------------------


def _fresh_model(seed):
    rng = np.random.default_rng(seed)
    return HellingerEstimator(param_grid=TINY_GRID, seed=seed).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )


@pytest.fixture()
def swap_path(tmp_path):
    path = tmp_path / "model.npz"
    save_model(_fresh_model(0), path)
    return path


def test_reload_hot_swaps_overwritten_model(swap_path, circuits):
    request = circuits[:3]
    with DaemonThread(make_daemon(swap_path)) as (host, port):
        with ServingClient(host, port) as client:
            # No change yet: reload is a no-op.
            report = client.reload()
            assert report["swapped"] == []
            before = client.predict(request)

            save_model(_fresh_model(9), swap_path)
            report = client.reload()
            (swap,) = report["swapped"]
            assert swap["model"] == "model"
            assert swap["version"] == 2
            assert swap["previous_fingerprint"] == before["fingerprint"]
            (serving,) = report["serving"]
            assert serving["version"] == "2"
            assert serving["fingerprint"] == swap["fingerprint"]

            after = client.predict(request)
            assert after["fingerprint"] == swap["fingerprint"]
            assert after["predictions"] != before["predictions"]
            # The superseded model stays pinnable by fingerprint and
            # still answers exactly as before the swap.
            pinned = client.predict(request, fingerprint=before["fingerprint"])
            assert pinned["predictions"] == before["predictions"]

            # healthz + stats surface the swap.
            _, health = client.healthz()
            assert health["reload"]["swaps"] == 1
            assert health["reload"]["checks"] >= 2
            stats = client.stats()
            assert stats["models"]["swaps"] == 1
            assert stats["models"]["registered"] == 2
            assert stats["models"]["serving"] == [
                f"model@{swap['fingerprint']}"
            ]

    # Bit-identity: the hot-swapped daemon answers exactly like a daemon
    # freshly booted from the overwritten file.
    with DaemonThread(make_daemon(swap_path)) as (host, port):
        with ServingClient(host, port) as client:
            restarted = client.predict(request)
    assert restarted["predictions"] == after["predictions"]
    assert restarted["fingerprint"] == after["fingerprint"]
    # ...and exactly like a direct FomService on the new file.
    direct_new = FomService(
        FomService.load(swap_path, DEVICE).estimator,
        DEVICE, optimization_level=LEVEL, seed=0,
    )
    assert after["predictions"] == direct_new.predict(request).tolist()


def test_reload_under_concurrent_traffic(swap_path, circuits):
    """Requests racing a hot swap never error; every response matches
    either the old or the new model bit-exactly."""
    request = circuits[:2]
    with DaemonThread(make_daemon(swap_path)) as (host, port):
        with ServingClient(host, port) as client:
            old = client.predict(request)
        save_model(_fresh_model(9), swap_path)

        stop = threading.Event()
        responses, errors = [], []

        def drive():
            with ServingClient(host, port) as worker:
                while not stop.is_set():
                    try:
                        responses.append(worker.predict(request))
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)
                        return

        drivers = [threading.Thread(target=drive) for _ in range(3)]
        for thread in drivers:
            thread.start()
        with ServingClient(host, port) as client:
            report = client.reload()
            new = client.predict(request)
        stop.set()
        for thread in drivers:
            thread.join(timeout=600)

        assert not errors
        assert len(report["swapped"]) == 1
        assert new["predictions"] != old["predictions"]
        allowed = {
            old["fingerprint"]: old["predictions"],
            new["fingerprint"]: new["predictions"],
        }
        assert responses
        for response in responses:
            assert response["predictions"] == allowed[response["fingerprint"]]


def test_auto_reload_polls_for_staleness(swap_path, circuits):
    """reload_interval > 0: the daemon notices an overwritten file by
    itself — no /reload call — and swaps mid-serve."""
    with DaemonThread(
        make_daemon(swap_path, reload_interval=0.05)
    ) as (host, port):
        with ServingClient(host, port) as client:
            before = client.predict(circuits[:2])
            save_model(_fresh_model(9), swap_path)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, health = client.healthz()
                if health["reload"]["swaps"] >= 1:
                    break
                time.sleep(0.02)
            assert health["reload"]["swaps"] == 1
            assert health["reload"]["interval_s"] == 0.05
            assert health["reload"]["checks"] >= 1
            after = client.predict(circuits[:2])
            assert after["fingerprint"] != before["fingerprint"]
            assert after["predictions"] != before["predictions"]


def test_reload_routing_and_draining(swap_path):
    with DaemonThread(make_daemon(swap_path)) as (host, port):
        with ServingClient(host, port) as client:
            status, _ = client.request("GET", "/reload")
            assert status == 405
    # Draining daemons refuse reloads.
    thread = DaemonThread(make_daemon(swap_path))
    host, port = thread.start()
    try:
        thread.daemon.begin_drain()
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError) as excinfo:
                client.reload()
            assert excinfo.value.status == 503
    finally:
        thread.stop()
