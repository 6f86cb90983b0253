"""Characterization: the JSON shapes of /healthz, /stats and /reload.

For an in-process daemon (``shards=1``) and a two-worker pool
(``shards=2``), one fixed request script runs against a fresh daemon
and the nested key sets of every admin response are compared with the
literal shapes below.  Values (pids, timings, fingerprints) are not
pinned; keys are.  The status codes of every endpoint while draining
are pinned as well.  Shapes compare as JSON text, so key order is
pinned too.

A shape replaces each dict by ``{key: shape(value)}``, each list of
dicts by the list of their shapes, and anything else by ``"."``.
"""

import json

import numpy as np
import pytest

from repro.circuits.qasm import to_qasm
from repro.circuits.random import random_circuit
from repro.compiler import clear_compile_cache
from repro.evaluation.persistence import save_model
from repro.predictor.estimator import HellingerEstimator
from repro.serving import ModelSource, ServerConfig, ServingClient, ServingDaemon
from repro.serving.server import DaemonThread

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}
DEVICE = "q20a"


def shape(value):
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, list) and value and all(
        isinstance(item, dict) for item in value
    ):
        return [shape(item) for item in value]
    return "."


MODEL = {
    "name": ".", "fingerprint": ".", "version": ".", "device": ".",
    "optimization_level": ".",
}
BATCH = {"max_batch": ".", "queue_limit": ".", "request_timeout_s": "."}
RELOAD = {"interval_s": ".", "checks": ".", "refreshes": ".", "swaps": "."}
WORKER = {
    "shard": ".", "alive": ".", "pid": ".", "boot_failures": ".",
    "retry_in_s": ".", "status": ".",
}
QUEUE = {
    "depth": ".", "requests_waiting": ".", "in_flight": ".",
    "limit": ".", "rejected_total": ".",
}
MERGED_QUEUE = {
    "depth": ".", "requests_waiting": ".", "in_flight": ".",
    "rejected_total": ".", "limit": ".",
}
BATCHES = {
    "total": ".", "requests_total": ".", "warm_total": ".",
    "size_histogram": {"2": "."},
}
STAGES = {"compile_s": ".", "featurize_s": ".", "predict_s": "."}
LATENCY = {
    "request_p50_s": ".", "request_p99_s": ".", "request_max_s": ".",
    "samples": ".", "reservoir": ".", "queue_wait_s_total": ".",
    "queue_wait_s_max": ".", "stages_s": STAGES,
}
MODELS = {
    "serving": ".", "registered": ".", "reload_checks": ".",
    "refreshes": ".", "swaps": ".",
}
PER_SHARD = {
    "shard": ".", "alive": ".", "pid": ".", "queue_depth": ".",
    "in_flight": ".", "requests_total": ".", "latency_samples": ".",
}
COUNTERS = {
    "requests": {"/healthz": ".", "/predict": ".", "/stats": "."},
    "responses": {"200": "."},
}

EXPECTED = {
    1: {
        "healthz": {
            "status": ".", "models": [MODEL], "reload": RELOAD,
            "batch": BATCH,
        },
        "stats": {
            "uptime_s": ".", "draining": ".", **COUNTERS, "queue": QUEUE,
            "batches": BATCHES, "latency": LATENCY, "models": MODELS,
        },
        "reload": {"swapped": ".", "serving": [MODEL]},
    },
    2: {
        "healthz": {
            "status": ".", "models": [MODEL],
            "shards": {
                "count": ".", "live": ".", "degraded": ".", "crashes": ".",
                "respawns": ".", "workers": [WORKER, WORKER],
            },
            "reload": RELOAD, "batch": BATCH,
        },
        "stats": {
            "uptime_s": ".", "draining": ".", **COUNTERS,
            "queue": MERGED_QUEUE, "batches": BATCHES, "latency": LATENCY,
            "models": MODELS,
            "shards": {
                "count": ".", "live": ".", "crashes": ".", "respawns": ".",
                "spills": ".", "per_shard": [PER_SHARD, PER_SHARD],
            },
        },
        "reload": {
            "swapped": ".", "serving": [MODEL],
            "shards": [
                {"shard": ".", "ok": ".", "swapped": "."},
                {"shard": ".", "ok": ".", "swapped": "."},
            ],
        },
    },
}

#: Every endpoint's status code once the daemon has begun draining.
DRAINING = {
    ("GET", "/healthz"): 503,
    ("GET", "/stats"): 200,
    ("POST", "/reload"): 503,
    ("POST", "/predict"): 503,
    ("POST", "/foms"): 503,
    ("GET", "/predict"): 405,
    ("GET", "/nowhere"): 404,
}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )
    path = tmp_path_factory.mktemp("shapes") / "model.npz"
    save_model(estimator, path)
    return path


@pytest.mark.parametrize("shards", [1, 2])
def test_admin_endpoint_shapes_and_draining_codes(model_path, shards):
    source = ModelSource(
        "file", model_path, DEVICE, {"optimization_level": 2, "seed": 0}
    )
    qasm = [
        to_qasm(random_circuit(3, 5, seed=seed, measure=True))
        for seed in range(2)
    ]
    # The in-process daemon shares this process's compile cache; emptying
    # it makes the first request a batch and the second a warm answer.
    clear_compile_cache()
    thread = DaemonThread(
        ServingDaemon([source], ServerConfig(port=0, shards=shards))
    )
    host, port = thread.start()
    try:
        with ServingClient(host, port) as client:
            status, health = client.healthz()
            assert status == 200
            assert client.predict(qasm) == client.predict(qasm)
            stats = client.stats()
            assert stats["batches"]["requests_total"] == 1
            assert stats["batches"]["warm_total"] == 1
            reload = client.reload()
            observed = {
                "healthz": shape(health),
                "stats": shape(stats),
                "reload": shape(reload),
            }
            assert json.dumps(observed) == json.dumps(EXPECTED[shards])

            thread.daemon.begin_drain()
            codes = {
                (method, path): client.request(
                    method, path,
                    {"circuits": qasm} if method == "POST" else None,
                )[0]
                for method, path in DRAINING
            }
            assert codes == DRAINING
            status, draining = client.healthz()
            assert status == 503
            assert draining["status"] == "draining"
            assert json.dumps(shape(draining)) == json.dumps(
                EXPECTED[shards]["healthz"]
            )
    finally:
        thread.stop()
