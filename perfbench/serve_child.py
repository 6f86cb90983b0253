"""Serving fixtures and the serving output check, run in a child process.

Usage (from the checkout root, with ``src`` importable):

    python3 perfbench/serve_child.py model OUT.npz
    python3 perfbench/serve_child.py hot OUT.json
    python3 perfbench/serve_child.py verify MODEL.npz CASES.json

``model`` trains the served estimator once (a reduced Q20-A suite);
``hot`` writes the hot set of request bodies; ``verify``
recomputes each sampled request with a direct ``FomService.predict_at``
call and exits non-zero unless every daemon response is byte-equal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Daemon knobs the fixtures and the check must share with ``repro serve``.
DEVICE = "q20a"
SERVICE_KWARGS = dict(optimization_level=3, seed=0, num_trials=4)

#: The served model: a reduced suite, one grid point, fixed seeds.
MODEL_MAX_QUBITS = 5
MODEL_SHOTS = 500
MODEL_GRID = {
    "n_estimators": [50], "max_depth": [None],
    "min_samples_leaf": [1], "min_samples_split": [2],
}

#: Request shapes: 1-4 circuits per request.
MAX_CIRCUITS = 4
#: The hot set: the suite up to this width.
HOT_MAX_QUBITS = 5


def build_model(out: Path) -> None:
    from repro.bench import build_suite
    from repro.evaluation import save_model
    from repro.hardware import make_q20a
    from repro.predictor import HellingerEstimator, build_dataset

    device = make_q20a()
    dataset = build_dataset(
        build_suite(max_qubits=MODEL_MAX_QUBITS), device,
        shots=MODEL_SHOTS, seed=0,
    )
    estimator = HellingerEstimator(param_grid=MODEL_GRID, seed=0)
    estimator.fit(dataset.X, dataset.y)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(estimator, out)


def _body(circuits) -> str:
    from repro.circuits.qasm import to_qasm

    return json.dumps({"circuits": [to_qasm(c) for c in circuits]})


def hot_set():
    """The hot set of (path, body) requests, the same for every seed.

    It holds every suite circuit up to HOT_MAX_QUBITS exactly once, in
    suite order, cut into requests of 1, 2, 3, 4, 1, 2, ... circuits.
    """
    from repro.bench import build_suite

    circuits = [entry.circuit for entry in build_suite(max_qubits=HOT_MAX_QUBITS)]
    hot = []
    size = 0
    while circuits:
        size = size % MAX_CIRCUITS + 1
        hot.append(["/predict", _body(circuits[:size])])
        circuits = circuits[size:]
    return hot


def _expected(entry, circuits) -> dict:
    """The response body a solo ``predict_at`` call implies, key for key."""
    predictions, _ = entry.service.predict_at(
        circuits, positions=list(range(len(circuits))),
    )
    return {
        "model": entry.name,
        "fingerprint": entry.fingerprint,
        "optimization_level": entry.service.optimization_level,
        "count": len(circuits),
        "predictions": predictions.tolist(),
    }


def verify(model: Path, cases_path: Path) -> int:
    """Byte-compare daemon responses with direct ``predict_at`` calls.

    One known exception: a one-circuit request answered inside a
    coalesced batch may differ from its solo answer in the last bit.  The
    forest averages its (trees x rows) prediction matrix with
    ``mean(axis=0)``, which numpy sums pairwise for one row but
    sequentially for several.  Such answers are counted as
    ``ulp_differences`` and must agree to 1e-12; every other answer must
    be byte-equal.
    """
    from repro.circuits.qasm import from_qasm
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry()
    entry = registry.add_model_file(model, DEVICE, **SERVICE_KWARGS)
    mismatches = ulp_differences = 0
    cases = json.loads(cases_path.read_text())
    for path, body, served in cases:
        circuits = [from_qasm(text) for text in json.loads(body)["circuits"]]
        expected = _expected(entry, circuits)
        if json.dumps(expected).encode() == served.encode():
            continue
        close = len(circuits) == 1 and all(
            abs(a - b) <= 1e-12
            for a, b in zip(expected["predictions"],
                            json.loads(served)["predictions"])
        )
        if close:
            ulp_differences += 1
        else:
            mismatches += 1
            print(f"mismatch on {path}: served {served[:200]}", file=sys.stderr)
    print(json.dumps({
        "checked": len(cases), "mismatches": mismatches,
        "ulp_differences": ulp_differences,
    }))
    return 1 if mismatches else 0


def main(argv) -> int:
    command = argv[0]
    if command == "model":
        build_model(Path(argv[1]))
        return 0
    if command == "hot":
        Path(argv[1]).write_text(json.dumps(hot_set()))
        return 0
    if command == "verify":
        return verify(Path(argv[1]), Path(argv[2]))
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
