"""One cold reduced Table-I study in a fresh interpreter.

Usage (from the checkout root):

    python3 perfbench/study_child.py OUT.json STORE_DIR CHECK_SEED
    python3 perfbench/study_child.py --setup-only OUT.json
    python3 perfbench/study_child.py --write-expected

``run.py`` spawns this script once per repetition, so every study starts
with an empty compile cache and an empty ``ArtifactStore`` (the ``put``
path runs).  The script stamps the moment its devices are built (the end
of set-up), runs ``run_study``, and then checks its outputs (with
``--setup-only`` it stops after the stamp):

* the Table-I matrix must equal ``expected/table1.json`` exactly;
* a seeded sample of compiled circuits must put every two-qubit gate on
  a coupling edge and reproduce the source circuit's noiseless
  distribution, simulated independently of the compiler.

With ``PERFBENCH_TRACE_DIR`` set, the layer wrappers are installed here
and — because spawned pool workers re-import this file — in every worker
too; each process writes its spans into that directory when it ends.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import multiprocessing.util  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402

EXPECTED = BENCH / "expected" / "table1.json"

#: The reduced study: 2-6 qubit suite on Q20-A and Q20-B, the paper's
#: protocol otherwise (level 3, 80/20 split, 3-fold CV) with the small
#: grid of examples/reproduce_table1.py.  The study seed is fixed, so the
#: Table-I matrix is one committed file; the run seed picks which
#: compiled circuits are checked.
STUDY = dict(
    max_qubits=6,
    shots=1000,
    seed=0,
    param_grid={
        "n_estimators": [50], "max_depth": [None, 10],
        "min_samples_leaf": [1, 2], "min_samples_split": [2],
    },
)
CHECKED_PER_DEVICE = 4
DISTRIBUTION_TOLERANCE = 1e-9


def _install_tracing() -> tracing.Recorder:
    recorder = tracing.Recorder()
    tracing.install_study(recorder)
    return recorder


if __name__ == "__mp_main__" and os.environ.get(tracing.TRACE_DIR_ENV):
    # A spawned pool worker of a traced study: record, and write the spans
    # out when the worker shuts down.
    _worker_recorder = _install_tracing()
    multiprocessing.util.Finalize(
        None,
        lambda: _worker_recorder.dump(
            os.environ[tracing.TRACE_DIR_ENV], tracing.process_extra("worker")
        ),
        exitpriority=10,
    )


def table_matrix(result):
    return [[fom, list(values)] for fom, values in result.table_rows()]


def _active(circuit):
    """The circuit restricted to the qubits it touches (simulation size)."""
    used = sorted({q for ins in circuit.instructions for q in ins.qubits})
    return circuit.remap_qubits(
        {q: i for i, q in enumerate(used)}, num_qubits=len(used)
    )


def check_compiled(result, devices, suite, seed):
    """Independent checks on a seeded sample of the study's compiled circuits."""
    from repro.simulation.statevector import ideal_distribution

    rng = random.Random(seed)
    sources = {entry.name: entry.circuit for entry in suite}
    failures, checked = [], 0
    for device in devices:
        entries = result.datasets[device.name].entries
        for entry in rng.sample(entries, min(CHECKED_PER_DEVICE, len(entries))):
            checked += 1
            compiled = entry.compiled
            for ins in compiled.instructions:
                if (
                    ins.is_unitary and len(ins.qubits) == 2
                    and not device.coupling.has_edge(*ins.qubits)
                ):
                    failures.append(f"{device.name}/{entry.name}: {ins} off-edge")
                    break
            want = ideal_distribution(sources[entry.name])
            got = ideal_distribution(_active(compiled))
            drift = max(
                abs(want.get(key, 0.0) - got.get(key, 0.0))
                for key in set(want) | set(got)
            )
            if drift > DISTRIBUTION_TOLERANCE:
                failures.append(
                    f"{device.name}/{entry.name}: distribution differs by {drift:.3g}"
                )
    return checked, failures


def set_up():
    """Import the program and build the devices: a study's set-up.

    Returns the devices and the moment they were built.
    """
    import repro.bench  # noqa: F401
    import repro.evaluation  # noqa: F401
    from repro.hardware.iqm import make_q20_pair

    devices = list(make_q20_pair())
    return devices, time.monotonic()


def run(out: Path, store: Path, check_seed: int) -> None:
    trace_dir = os.environ.get(tracing.TRACE_DIR_ENV)
    devices, t_devices = set_up()
    from repro.bench import build_suite
    from repro.evaluation import StudyConfig, run_study

    recorder = _install_tracing() if trace_dir else None

    started = time.perf_counter()
    result = run_study(devices, StudyConfig(**STUDY), cache_dir=str(store))
    study_s = time.perf_counter() - started
    if recorder is not None:
        recorder.dump(trace_dir, tracing.process_extra("main"))

    table = table_matrix(result)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else None
    suite = build_suite(max_qubits=STUDY["max_qubits"])
    checked, failures = check_compiled(result, devices, suite, check_seed)
    if table != expected:
        failures.append(f"Table-I matrix differs from {EXPECTED.name}: {table}")
    out.write_text(json.dumps({
        "t_start": T_START,
        "t_devices": t_devices,
        "study_s": study_s,
        "table": table,
        # Last row is the proposed estimator, last column "Combined".
        "proposed_r": table[-1][1][-1],
        "circuits_checked": checked,
        "failures": failures,
    }))


def write_expected() -> None:
    import shutil

    from repro.evaluation import StudyConfig, run_study

    store = BENCH.parent / ".perfbench" / "expected-store"
    shutil.rmtree(store, ignore_errors=True)
    result = run_study(None, StudyConfig(**STUDY), cache_dir=str(store))
    shutil.rmtree(store, ignore_errors=True)
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED.write_text(json.dumps(table_matrix(result), indent=1) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-expected"]:
        write_expected()
    elif sys.argv[1] == "--setup-only":
        Path(sys.argv[2]).write_text(json.dumps({"t_devices": set_up()[1]}))
    else:
        run(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]))
