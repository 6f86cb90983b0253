"""Sharded serving: routing units, stats merging, and the byte-identity matrix.

The tentpole contract: a daemon with ``--shards N`` answers with bytes
**identical** to the single-process daemon (and therefore to a solo
:class:`FomService`) for any N, under concurrent clients, for both
content-length and streamed responses.  The matrix tests here compare
raw response bytes — head and body — across shard counts {1, 2, 4},
then exercise the operational paths: drain during a live stream,
reload broadcast under traffic, per-worker reload polling, and worker
crash → 503 → respawn.

Process tests spawn real workers (one registry + batcher each), so the
shared matrix daemons are module-scoped; the destructive tests (drain,
crash, reload-with-swap) each build their own short-lived pool.
"""

import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.circuits.qasm import to_qasm
from repro.circuits.random import random_circuit
from repro.evaluation.persistence import save_model
from repro.predictor.estimator import HellingerEstimator
from repro.predictor.service import FomService
from repro.serving import (
    ModelSource,
    ServerConfig,
    ServingClient,
    ServingDaemon,
    ServingError,
    resolve_shards,
    shard_for,
)
from repro.serving.server import DaemonThread, nearest_rank
from repro.serving.shards import (
    ShardDown,
    choose_shard,
    merge_latency_reservoirs,
    merge_shard_stats,
)

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}
DEVICE = "q20a"
LEVEL = 2
SHARD_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# Routing units (no processes)
# ----------------------------------------------------------------------


def test_resolve_shards_edges():
    assert resolve_shards(1) == 1
    assert resolve_shards(5) == 5
    assert resolve_shards(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_shards(-1)


def test_shard_for_is_stable_and_in_range():
    key = ("model-a", "abc123", 2, False)
    first = shard_for(key, 4)
    assert first == shard_for(key, 4)  # deterministic
    for count in (1, 2, 4, 7):
        assert 0 <= shard_for(key, count) < count
    # None is distinguished from the string "None", and values carry
    # their type — (1, ...) and ("1", ...) are different lanes.
    keys = [
        ("m", None, None, False),
        ("m", "None", None, False),
        (1, None, None, False),
        ("1", None, None, False),
    ]
    digests = {shard_for(key, 2 ** 32) for key in keys}
    assert len(digests) == len(keys)


def test_shard_for_spreads_lanes():
    lanes = {
        shard_for((f"model-{i}", None, None, False), 4) for i in range(64)
    }
    assert lanes == {0, 1, 2, 3}


def test_choose_shard_prefers_live_primary_under_limit():
    assert choose_shard(1, [0, 0, 0], [True] * 3, 4, 10) == 1


def test_choose_shard_spills_round_robin_past_saturation():
    # Primary 0 saturated: next live under-limit shard (round-robin) wins.
    assert choose_shard(0, [10, 0, 0], [True] * 3, 4, 10) == 1
    # ...skipping a dead intermediate.
    assert choose_shard(0, [10, 0, 0], [True, False, True], 4, 10) == 2
    # ...and a saturated intermediate.
    assert choose_shard(0, [10, 9, 0], [True] * 3, 4, 10) == 2


def test_choose_shard_saturated_everywhere_keeps_primary():
    # The primary's own bounded queue answers 503 — the parent must not
    # invent a second backpressure policy.
    assert choose_shard(2, [10, 10, 10], [True] * 3, 4, 10) == 2


def test_choose_shard_dead_primary_is_shard_down():
    with pytest.raises(ShardDown) as caught:
        choose_shard(1, [0, 0, 0], [True, False, True], 1, 10)
    assert caught.value.index == 1
    assert "retry shortly" in str(caught.value)


# ----------------------------------------------------------------------
# Stats merging units (satellite: percentile merge)
# ----------------------------------------------------------------------


def test_merged_percentiles_equal_flat_sample_nearest_rank():
    """The pinned merge rule: percentiles over the *union* of per-shard
    reservoirs equal nearest-rank over the same samples collected flat
    in one process — and differ from averaging per-shard percentiles."""
    rng = np.random.default_rng(7)
    # Deliberately skewed: shard 0 fast and busy, shard 1 slow and idle.
    reservoirs = [
        sorted(rng.uniform(0.001, 0.010, size=97).tolist()),
        sorted(rng.uniform(0.5, 2.0, size=5).tolist()),
        [],  # a freshly-respawned shard contributes nothing
    ]
    flat = sorted(sample for reservoir in reservoirs for sample in reservoir)
    merged = merge_latency_reservoirs(reservoirs)
    assert merged["samples"] == len(flat)
    assert merged["reservoir"] == flat
    assert merged["request_p50_s"] == nearest_rank(flat, 0.50)
    assert merged["request_p99_s"] == nearest_rank(flat, 0.99)
    assert merged["request_max_s"] == flat[-1]
    # The naive merge — averaging the per-shard p99s — is badly wrong
    # under skew: here it lands around 1s while the true p99 is ~6ms.
    naive_p99 = float(np.mean([
        nearest_rank(reservoir, 0.99)
        for reservoir in reservoirs
        if reservoir
    ]))
    assert abs(naive_p99 - merged["request_p99_s"]) > 0.1


def test_merge_latency_reservoirs_empty():
    merged = merge_latency_reservoirs([[], []])
    assert merged["samples"] == 0
    assert merged["request_p50_s"] is None
    assert merged["request_max_s"] is None


def test_merge_shard_stats_sums_counters_and_histograms():
    reports = [
        {
            "queue": {
                "depth": 2, "requests_waiting": 1, "in_flight": 3,
                "rejected_total": 4,
            },
            "batches": {
                "total": 10, "requests_total": 20, "warm_total": 7,
                "size_histogram": {"1": 5, "4": 5},
            },
            "latency": {
                "reservoir": [0.001, 0.002],
                "queue_wait_s_total": 0.5,
                "queue_wait_s_max": 0.2,
                "stages_s": {"compile": 1.0, "features": 0.25},
            },
        },
        {
            "queue": {
                "depth": 1, "requests_waiting": 0, "in_flight": 1,
                "rejected_total": 0,
            },
            "batches": {
                "total": 3, "requests_total": 6, "warm_total": 2,
                "size_histogram": {"4": 2, "16": 1},
            },
            "latency": {
                "reservoir": [0.003],
                "queue_wait_s_total": 0.25,
                "queue_wait_s_max": 0.3,
                "stages_s": {"compile": 0.5},
            },
        },
    ]
    merged = merge_shard_stats(reports)
    assert merged["queue"] == {
        "depth": 3, "requests_waiting": 1, "in_flight": 4,
        "rejected_total": 4,
    }
    assert merged["batches"]["total"] == 13
    assert merged["batches"]["requests_total"] == 26
    assert merged["batches"]["warm_total"] == 9
    # Histogram keys sum and sort numerically, not lexically.
    assert merged["batches"]["size_histogram"] == {"1": 5, "4": 7, "16": 1}
    assert list(merged["batches"]["size_histogram"]) == ["1", "4", "16"]
    latency = merged["latency"]
    assert latency["samples"] == 3
    assert latency["queue_wait_s_total"] == 0.75
    assert latency["queue_wait_s_max"] == 0.3
    assert latency["stages_s"] == {"compile": 1.5, "features": 0.25}


# ----------------------------------------------------------------------
# Source validation
# ----------------------------------------------------------------------


def test_sharded_daemon_validates_sources(tmp_path):
    """A sharded daemon fails fast in the parent, before any spawn, with
    the registry loaders' own errors."""
    config = ServerConfig(port=0, shards=2)
    with pytest.raises(ValueError, match="empty model registry"):
        ServingDaemon([], config)
    missing = ModelSource("file", tmp_path / "missing.npz", DEVICE, {})
    with pytest.raises(ValueError, match="no model file at .*missing.npz"):
        ServingDaemon([missing], config)
    empty_store = ModelSource("store", tmp_path, DEVICE, {}, name="Q99")
    with pytest.raises(ValueError, match="no estimator artifact matching"):
        ServingDaemon([empty_store], config)


# ----------------------------------------------------------------------
# Process matrix fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )
    path = tmp_path_factory.mktemp("shards") / "model.npz"
    save_model(estimator, path)
    return path


@pytest.fixture(scope="module")
def direct(model_path):
    """The reference answer: a solo FomService on the same model."""
    return FomService(
        FomService.load(model_path, DEVICE).estimator,
        DEVICE, optimization_level=LEVEL, seed=0,
    )


@pytest.fixture(scope="module")
def circuits():
    return [
        random_circuit(3 + (seed % 2), 5, seed=seed, measure=True)
        for seed in range(6)
    ]


def make_sharded(model_path, shards, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    source = ModelSource(
        "file", model_path, DEVICE, {"optimization_level": LEVEL, "seed": 0}
    )
    return ServingDaemon(
        [source], ServerConfig(shards=shards, **config_kwargs)
    )


@pytest.fixture(scope="module")
def matrix(model_path):
    """One live daemon per shard count — shards=1 is the in-process
    reference the sharded ones must match byte-for-byte."""
    threads = {}
    try:
        for count in SHARD_COUNTS:
            thread = DaemonThread(make_sharded(model_path, count))
            thread.start()
            threads[count] = thread
        yield {count: thread.daemon for count, thread in threads.items()}
    finally:
        for thread in threads.values():
            thread.stop()


def raw_exchange(daemon, payload, path="/predict", timeout=300.0) -> bytes:
    """One request over a fresh socket; returns the raw response bytes.

    ``Connection: close`` so the daemon half-closes after the response
    (content-length or chunked terminator alike) and a read-to-EOF
    captures every byte it wrote — head, framing, and body.
    """
    body = json.dumps(payload).encode()
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode() + body
    with socket.create_connection(
        (daemon.host, daemon.port), timeout=timeout
    ) as sock:
        sock.sendall(request)
        received = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received.append(data)
    return b"".join(received)


def response_body(raw: bytes) -> dict:
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"Content-Length" in head
    return json.loads(body.decode())


def stream_lines(raw: bytes) -> list:
    """Decode the NDJSON lines of a chunked response's raw bytes."""
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"Transfer-Encoding: chunked" in head
    lines = []
    offset = 0
    while True:
        crlf = body.index(b"\r\n", offset)
        size = int(body[offset:crlf], 16)
        if size == 0:
            break
        chunk = body[crlf + 2:crlf + 2 + size]
        lines.extend(
            json.loads(line) for line in chunk.splitlines() if line.strip()
        )
        offset = crlf + 2 + size + 2
    return lines


# ----------------------------------------------------------------------
# The byte-identity matrix
# ----------------------------------------------------------------------


def test_shard_matrix_concurrent_clients_byte_identical(
    matrix, direct, circuits
):
    """Concurrent mixed requests: every daemon in the matrix answers
    with byte-identical responses, which equal the solo service."""
    qasm = [to_qasm(circuit) for circuit in circuits]
    payloads = [
        ("/predict", {"circuits": qasm[0:3]}),
        ("/predict", {"circuits": qasm[3:6], "optimization_level": 1}),
        ("/predict", {"circuits": qasm[1:2]}),
        ("/foms", {"circuits": qasm[4:6]}),
    ]
    raw = {
        count: [None] * len(payloads) for count in matrix
    }
    errors = []

    def drive(count, index):
        path, payload = payloads[index]
        try:
            raw[count][index] = raw_exchange(matrix[count], payload, path)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append((count, index, exc))

    threads = [
        threading.Thread(target=drive, args=(count, index))
        for count in matrix
        for index in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not errors
    for index in range(len(payloads)):
        reference = raw[1][index]
        for count in SHARD_COUNTS[1:]:
            assert raw[count][index] == reference, (
                f"shards={count} bytes differ for payload {index}"
            )
    # ...and the reference equals the solo FomService answer.
    assert response_body(raw[1][0])["predictions"] == (
        direct.predict(circuits[0:3]).tolist()
    )
    assert response_body(raw[1][1])["predictions"] == (
        direct.predict(circuits[3:6], optimization_level=1).tolist()
    )


def test_shard_matrix_streaming_byte_identical(matrix, direct, circuits):
    """Streamed responses relay chunk-for-chunk: the raw bytes — head,
    chunk framing, NDJSON lines, terminator — match across shard
    counts, and the values match the solo service."""
    qasm = [to_qasm(circuit) for circuit in circuits[:5]]
    payload = {"circuits": qasm, "stream": True, "chunk_size": 2}
    raw = {
        count: raw_exchange(matrix[count], payload) for count in matrix
    }
    for count in SHARD_COUNTS[1:]:
        assert raw[count] == raw[1], f"shards={count} stream bytes differ"
    lines = stream_lines(raw[1])
    assert lines[0]["stream"] is True and lines[0]["count"] == 5
    assert lines[-1] == {"done": True, "count": 5}
    chunks = [line["predictions"] for line in lines[1:-1]]
    assert [len(chunk) for chunk in chunks] == [2, 2, 1]
    flat = [value for chunk in chunks for value in chunk]
    assert flat == direct.predict(circuits[:5]).tolist()


def test_pooled_workers_answer_byte_identically(matrix, model_path, circuits):
    """``max_workers=2`` fans compile and featurize out over a process
    pool, in the in-process daemon and inside each shard (which owns its
    pool), and answers with the bytes of the ``max_workers=1`` daemon."""
    from repro.compiler import clear_compile_cache

    qasm = [to_qasm(circuit) for circuit in circuits]
    requests = [
        ("/predict", {"circuits": qasm}),
        ("/foms", {"circuits": qasm[:4], "optimization_level": 1}),
        ("/predict", {"circuits": qasm[:5], "stream": True, "chunk_size": 3}),
    ]
    reference = [
        raw_exchange(matrix[1], payload, path) for path, payload in requests
    ]
    for shards in (1, 2):
        # The in-process daemon shares this process's compile cache;
        # emptying it makes the pool really compile.
        clear_compile_cache()
        thread = DaemonThread(make_sharded(model_path, shards, max_workers=2))
        thread.start()
        try:
            for (path, payload), expected in zip(requests, reference):
                assert raw_exchange(thread.daemon, payload, path) == expected, (
                    f"shards={shards} {path} bytes differ"
                )
        finally:
            thread.stop()


def test_shard_matrix_errors_byte_identical(matrix):
    """400s come from the shared parser — identical in every mode."""
    for path, payload in [
        ("/predict", {"circuits": []}),
        ("/predict", {"circuits": ["x"], "optimization_level": 9}),
        ("/foms", {"circuits": ["x"], "stream": True}),
        ("/predict", {"circuits": ["x"], "chunk_size": 2}),
    ]:
        raws = {
            count: raw_exchange(matrix[count], payload, path)
            for count in matrix
        }
        assert raws[2] == raws[1] and raws[4] == raws[1]
        assert raws[1].startswith(b"HTTP/1.1 400 ")


def test_sharded_healthz_reports_workers(matrix):
    daemon = matrix[4]
    with ServingClient(daemon.host, daemon.port) as client:
        status, payload = client.healthz()
    assert status == 200
    assert payload["status"] == "serving"
    shards = payload["shards"]
    assert shards["count"] == 4 and shards["live"] == 4
    assert not shards["degraded"]
    pids = [worker["pid"] for worker in shards["workers"]]
    assert len(set(pids)) == 4
    assert all(worker["status"] == "serving" for worker in shards["workers"])
    (model,) = payload["models"]
    assert model["device"] == "Q20-A"


def test_sharded_stats_aggregate(matrix, circuits):
    """Merged /stats: counters sum over workers, per-shard depths are
    reported, and the latency sample count equals the per-shard sum."""
    daemon = matrix[2]
    with ServingClient(daemon.host, daemon.port) as client:
        for start in range(3):
            client.predict(circuits[start:start + 2])
        stats = client.stats()
    assert stats["shards"]["count"] == 2
    assert stats["shards"]["live"] == 2
    per_shard = stats["shards"]["per_shard"]
    assert [entry["shard"] for entry in per_shard] == [0, 1]
    assert stats["latency"]["samples"] == sum(
        entry["latency_samples"] for entry in per_shard
    )
    assert stats["latency"]["samples"] >= 3
    assert stats["queue"]["limit"] == daemon.config.queue_limit
    assert stats["batches"]["requests_total"] >= 3
    assert stats["responses"].get("200", 0) >= 3
    assert stats["requests"].get("/predict", 0) >= 3


# ----------------------------------------------------------------------
# Operational paths (dedicated short-lived pools)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
def test_warm_answer_bytes_equal_batched_and_solo(
    model_path, direct, circuits, shards
):
    """The second send of a request is answered warm, without a batch,
    in the bytes of the first (batched) answer and of a solo
    ``predict_at`` call."""
    from repro.compiler import clear_compile_cache

    payload = {"circuits": [to_qasm(circuit) for circuit in circuits[:3]]}
    # The in-process daemon shares this process's compile cache.
    clear_compile_cache()
    thread = DaemonThread(make_sharded(model_path, shards))
    thread.start()
    try:
        batched = raw_exchange(thread.daemon, payload)
        warm = raw_exchange(thread.daemon, payload)
        with ServingClient(thread.daemon.host, thread.daemon.port) as client:
            stats = client.stats()
    finally:
        thread.stop()
    assert warm == batched
    assert stats["batches"]["requests_total"] == 1
    assert stats["batches"]["warm_total"] == 1
    assert stats["latency"]["samples"] == 2
    body = response_body(warm)
    predictions, _ = direct.predict_at(circuits[:3], positions=range(3))
    solo = {
        "model": body["model"], "fingerprint": body["fingerprint"],
        "optimization_level": LEVEL, "count": 3,
        "predictions": predictions.tolist(),
    }
    assert warm.partition(b"\r\n\r\n")[2] == json.dumps(solo).encode()


def test_drain_during_streaming_completes_then_reaps(
    model_path, direct, circuits
):
    """SIGTERM (stop()) while a stream is mid-flight: the stream runs to
    its terminator with correct values, the listener then refuses new
    connections, and every worker process is reaped — no orphans."""
    thread = DaemonThread(make_sharded(model_path, 2))
    host, port = thread.start()
    client = ServingClient(host, port)
    try:
        _, health = client.healthz()
        worker_pids = [
            worker["pid"] for worker in health["shards"]["workers"]
        ]
        stream = client.predict_stream(circuits[:4], chunk_size=1)
        first = next(stream)

        stopper = threading.Thread(target=thread.stop)
        stopper.start()
        received = list(first)
        for chunk in stream:
            received.extend(chunk)
        stopper.join(timeout=120)
        assert not stopper.is_alive()
        assert received == direct.predict(circuits[:4]).tolist()
        assert stream.header["count"] == 4
    finally:
        client.close()
        thread.stop()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=5).close()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if not any(
            os.path.isdir(f"/proc/{pid}") for pid in worker_pids
        ):
            break
        time.sleep(0.1)
    else:
        raise AssertionError(f"orphaned shard workers: {worker_pids}")


def test_reload_broadcast_swaps_every_shard_under_traffic(
    tmp_path, model_path, circuits
):
    """Overwrite the model file mid-traffic, POST /reload: every worker
    reports the swap, and subsequent responses serve the new model."""
    serving_path = tmp_path / "model.npz"
    serving_path.write_bytes(model_path.read_bytes())
    thread = DaemonThread(make_sharded(serving_path, 2))
    host, port = thread.start()
    stop_traffic = threading.Event()
    errors = []

    def traffic():
        with ServingClient(host, port) as worker:
            while not stop_traffic.is_set():
                try:
                    worker.predict(circuits[:2])
                except ServingError as exc:
                    errors.append(exc)

    driver = threading.Thread(target=traffic)
    driver.start()
    try:
        with ServingClient(host, port) as client:
            old = client.predict(circuits[:3])
            rng = np.random.default_rng(99)
            successor = HellingerEstimator(
                param_grid=TINY_GRID, seed=99
            ).fit(rng.uniform(size=(60, 30)), rng.uniform(size=60))
            save_model(successor, serving_path)
            report = client.reload()
            new = client.predict(circuits[:3])
    finally:
        stop_traffic.set()
        driver.join(timeout=120)
        thread.stop()
    assert not errors
    assert [shard["ok"] for shard in report["shards"]] == [True, True]
    # Both workers swapped to the same successor fingerprint...
    assert len(report["swapped"]) == 2
    assert {swap["shard"] for swap in report["swapped"]} == {0, 1}
    fingerprints = {swap["fingerprint"] for swap in report["swapped"]}
    assert len(fingerprints) == 1
    assert fingerprints != {old["fingerprint"]}
    # ...and post-swap responses serve it, with changed values.
    assert new["fingerprint"] in fingerprints
    fresh = FomService(
        FomService.load(serving_path, DEVICE).estimator,
        DEVICE, optimization_level=LEVEL, seed=0,
    )
    assert new["predictions"] == fresh.predict(circuits[:3]).tolist()
    assert new["predictions"] != old["predictions"]


def test_reload_interval_polls_on_every_shard(tmp_path, model_path, circuits):
    """reload_interval > 0 with two shards: each worker polls its own
    registry, so an overwritten model file is picked up on both shards
    with no POST /reload, and the swapped pool answers byte-for-byte
    like a pool freshly booted on the new file."""
    serving_path = tmp_path / "model.npz"
    serving_path.write_bytes(model_path.read_bytes())
    qasm = [to_qasm(circuit) for circuit in circuits]
    requests = [
        ("/predict", {"circuits": qasm[0:3]}),
        ("/predict", {"circuits": qasm[1:4], "optimization_level": 0}),
        ("/predict", {"circuits": qasm[2:5], "optimization_level": 1}),
        ("/predict", {"circuits": qasm[3:6], "optimization_level": 3}),
        ("/foms", {"circuits": qasm[4:6]}),
    ]
    lanes = {
        shard_for(
            (None, None, payload.get("optimization_level"), path == "/foms"),
            2,
        )
        for path, payload in requests
    }
    assert lanes == {0, 1}  # the requests below reach both workers

    thread = DaemonThread(
        make_sharded(serving_path, 2, reload_interval=0.05)
    )
    thread.start()
    try:
        with ServingClient(thread.daemon.host, thread.daemon.port) as client:
            old = client.predict(circuits[:3])
            rng = np.random.default_rng(99)
            successor = HellingerEstimator(
                param_grid=TINY_GRID, seed=99
            ).fit(rng.uniform(size=(60, 30)), rng.uniform(size=60))
            staged = tmp_path / "staged.npz"
            save_model(successor, staged)
            os.replace(staged, serving_path)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, health = client.healthz()
                if health["reload"]["swaps"] >= 2:
                    break
                time.sleep(0.05)
            assert health["reload"]["swaps"] == 2
            assert health["reload"]["interval_s"] == 0.05
            assert health["reload"]["checks"] >= 2
        swapped = [
            raw_exchange(thread.daemon, payload, path)
            for path, payload in requests
        ]
    finally:
        thread.stop()
    assert response_body(swapped[0])["fingerprint"] != old["fingerprint"]
    assert response_body(swapped[0])["predictions"] != old["predictions"]

    fresh = DaemonThread(make_sharded(serving_path, 2))
    fresh.start()
    try:
        booted = [
            raw_exchange(fresh.daemon, payload, path)
            for path, payload in requests
        ]
    finally:
        fresh.stop()
    assert swapped == booted


def test_worker_crash_503_respawn_recovers(model_path, direct, circuits):
    """SIGKILL a lane's worker: requests to that lane answer 503 (never
    silently move), healthz turns degraded, the manager respawns, and
    the recovered lane serves identical values."""
    thread = DaemonThread(make_sharded(model_path, 2))
    host, port = thread.start()
    client = ServingClient(host, port)
    try:
        baseline = client.predict(circuits[:3])["predictions"]
        lane = shard_for((None, None, None, False), 2)
        _, health = client.healthz()
        victim = next(
            worker["pid"]
            for worker in health["shards"]["workers"]
            if worker["shard"] == lane
        )
        os.kill(victim, signal.SIGKILL)
        saw_503 = degraded_seen = False
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            _, health = client.healthz()
            if health["status"] == "degraded":
                degraded_seen = True
            try:
                recovered = client.predict(circuits[:3])["predictions"]
            except ServingError as exc:
                assert exc.status == 503
                saw_503 = True
                time.sleep(0.05)
                continue
            if health["shards"]["respawns"] >= 1 and (
                health["shards"]["live"] == 2
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("shard never respawned")
        assert recovered == baseline
        assert saw_503 and degraded_seen
        assert health["shards"]["crashes"] >= 1
        new_pid = next(
            worker["pid"]
            for worker in health["shards"]["workers"]
            if worker["shard"] == lane
        )
        assert new_pid != victim
    finally:
        client.close()
        thread.stop()


def test_respawn_backs_off_exponentially_and_reports_in_healthz(monkeypatch):
    """A shard whose boot keeps failing is retried after 1, 2, 4, 8, 16
    and then every 30 s, not every second forever; ``/healthz`` shows
    its consecutive failures and the wait to the next retry, and a
    successful boot resets both."""
    import asyncio

    import repro.serving.shards as shards_mod

    manager = shards_mod.ShardManager((), ServerConfig(), 1)
    failing_boots = 8
    launches = []

    def launch(index):
        launches.append(index)
        if len(launches) <= failing_boots:
            raise RuntimeError("worker failed to boot")

    async def ready(index):
        return None

    monkeypatch.setattr(manager, "_launch", launch)
    monkeypatch.setattr(manager, "_await_ready", ready)
    delays, reports = [], []
    real_sleep = asyncio.sleep

    async def sleep(delay):
        # Record each backoff and what /healthz says during it, without
        # waiting it out.
        delays.append(delay)
        reports.append((await manager.health())[1]["shards"]["workers"][0])
        await real_sleep(0)

    monkeypatch.setattr(shards_mod.asyncio, "sleep", sleep)

    async def run():
        await manager._respawn(0)
        return (await manager.health())[1]["shards"]["workers"][0]

    after = asyncio.run(run())
    assert launches == [0] * (failing_boots + 1)
    assert delays == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]
    assert [report["boot_failures"] for report in reports] == list(
        range(1, failing_boots + 1)
    )
    for delay, report in zip(delays, reports):
        assert 0.0 < report["retry_in_s"] <= delay
    assert manager.respawns == 1
    assert after["boot_failures"] == 0 and after["retry_in_s"] is None

    # Days of failures still wait the cap (the doubling cannot overflow).
    launches.clear()
    failing_boots = 1
    manager.boot_failures[0] = 5000
    asyncio.run(run())
    assert delays[-1] == 30.0 and manager.boot_failures[0] == 0
