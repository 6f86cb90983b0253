"""The in-process request path calls through the hooks a tracer patches.

``perfbench/tracing.py`` (``perfbench/run.py --trace 1``) times the
serving layers by replacing four names before the daemon is built:
``ServingDaemon._predict`` and ``ServingDaemon._run_batch`` (taken from
the class ``__dict__``) and the module globals ``parse_predict_payload``
and ``from_qasm`` of :mod:`repro.serving.server`.  This test wraps the
same four names with counting wrappers, drives one ``/predict`` through
a :class:`DaemonThread`, and checks that every wrapper ran, so a
refactor that stops calling through one of them fails here rather than
in an empty trace ledger.
"""

import functools

import numpy as np

import repro.serving.server as server
from repro.circuits.qasm import to_qasm
from repro.circuits.random import random_circuit
from repro.compiler import clear_compile_cache
from repro.evaluation.persistence import save_model
from repro.predictor.estimator import HellingerEstimator
from repro.serving import ModelSource, ServerConfig, ServingClient
from repro.serving.server import DaemonThread, ServingDaemon

TINY_GRID = {
    "n_estimators": [4],
    "max_depth": [3],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}


def counting(fn, calls, name):
    if name == "_predict":
        # The tracer's replacement has exactly this signature.
        async def wrapped(self, body, want_foms):
            calls[name] += 1
            return await fn(self, body, want_foms)
        return wrapped

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_predict_calls_through_every_traced_hook(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(param_grid=TINY_GRID, seed=0).fit(
        rng.uniform(size=(60, 30)), rng.uniform(size=60)
    )
    model = tmp_path / "model.npz"
    save_model(estimator, model)

    calls = dict.fromkeys(
        ("_predict", "_run_batch", "parse_predict_payload", "from_qasm"), 0
    )
    for name in ("_predict", "_run_batch"):
        monkeypatch.setattr(
            ServingDaemon, name,
            counting(ServingDaemon.__dict__[name], calls, name),
        )
    for name in ("parse_predict_payload", "from_qasm"):
        monkeypatch.setattr(
            server, name, counting(getattr(server, name), calls, name)
        )

    source = ModelSource(
        "file", model, "q20a", {"optimization_level": 2, "seed": 0}
    )
    qasm = [
        to_qasm(random_circuit(3, 5, seed=seed, measure=True))
        for seed in range(2)
    ]
    # Cold circuits: a warm request is answered without a batch.  The
    # daemon shares this process's compile cache, so empty it.
    clear_compile_cache()
    with DaemonThread(
        ServingDaemon([source], ServerConfig(port=0))
    ) as (host, port):
        with ServingClient(host, port) as client:
            response = client.predict(qasm)
    assert response["count"] == 2
    assert calls == {
        "_predict": 1,
        "_run_batch": 1,
        "parse_predict_payload": 1,
        "from_qasm": 2,
    }
