"""Throughput microbenchmarks of the substrates.

Not a paper artefact — these keep the reproduction's moving parts honest:
statevector simulation, compilation, noisy execution, feature extraction,
and forest training all have to be fast enough to sustain the paper-scale
study (650+ compile/execute/label passes).
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.bench.algorithms import ghz, qft
from repro.bench.suite import build_suite, compile_suite
from repro.circuits.random import random_circuit
from repro.compiler import (
    clear_compile_cache,
    compile_cache_stats,
    compile_circuit,
)
from repro.compiler.compile import compile_batch
from repro.evaluation.persistence import save_model
from repro.fom import feature_matrix, feature_vector
from repro.hardware import make_q20a, make_q20b, make_zoo_device
from repro.ml import RandomForestRegressor, grid_search
from repro.predictor import FomService, HellingerEstimator
from repro.predictor.estimator import DEFAULT_PARAM_GRID
from repro.simulation import QPUExecutor, ideal_distribution
from repro.simulation.statevector import simulate_statevector


@pytest.fixture(scope="module")
def device():
    return make_q20a()


def test_perf_statevector_12q(benchmark):
    circuit = random_circuit(12, 30, seed=0)
    benchmark(lambda: simulate_statevector(circuit))


def test_perf_statevector_qft16(benchmark):
    circuit = qft(16)
    benchmark.pedantic(
        lambda: ideal_distribution(circuit, dtype=np.complex64),
        rounds=2, iterations=1,
    )


def test_perf_compile_level3(benchmark, device):
    circuit = random_circuit(12, 20, seed=1, measure=True)
    benchmark.pedantic(
        lambda: compile_circuit(circuit, device, optimization_level=3, seed=0),
        rounds=3, iterations=1,
    )


def test_perf_compile_level3_suite(benchmark, device):
    """The full 2-20-qubit benchmark suite at optimization level 3.

    This is the dataset-generation compile workload (the dominant
    `run_study` cost since PR 1 made simulation fast).  The cache is
    cleared each round, so this measures *cold* compilation; the warm
    path is covered by `test_perf_compile_level3_suite_warm`.
    """
    suite = build_suite(min_qubits=2, max_qubits=20)

    def run():
        # max_workers=1: a sequential pass gives the stablest timing for
        # the regression gate; the pooled wall-clock has its own entry
        # (test_perf_compile_level3_suite_process).
        clear_compile_cache()
        return compile_suite(
            suite, device, optimization_level=3, seed=0, max_workers=1
        )

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_perf_compile_level3_suite_warm(benchmark, device):
    """Warm recompilation of the full suite (pass-cache hit path)."""
    suite = build_suite(min_qubits=2, max_qubits=20)
    clear_compile_cache()
    compile_suite(suite, device, optimization_level=3, seed=0, max_workers=1)
    benchmark.pedantic(
        lambda: compile_suite(
            suite, device, optimization_level=3, seed=0, max_workers=1
        ),
        rounds=2, iterations=1,
    )


def test_perf_compile_level3_suite_process(benchmark, device):
    """Cold full-suite level-3 compile through the 4-worker process pool.

    The PR 6 headline: compilation is pure Python, so the thread pool
    never beat sequential — the spawn-based process pool is what makes
    ``max_workers`` buy wall-clock on a multi-core box.  Output is
    bit-identical to the sequential pass (pinned by the golden-digest
    tests); this entry tracks the pooled wall-clock, spawn overhead
    included.  On a single-core runner it degrades to pure overhead —
    the scaling assertion lives in
    ``test_process_pool_compile_scales_on_multicore``.
    """
    suite = build_suite(min_qubits=2, max_qubits=20)

    def run():
        clear_compile_cache()
        return compile_suite(
            suite, device, optimization_level=3, seed=0,
            max_workers=4,
        )

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_perf_compile_shared_topology(benchmark, device):
    """The study suite (2-6 qubits) at level 3 on Q20-B after Q20-A,
    default workers.

    Both devices use the 4x5 grid, so Q20-A's level-3 trial sets, held
    in the caller's compile cache, serve Q20-B: its compile runs no pass
    and fans nothing out, and only re-picks each winner on Q20-B's
    reported calibration.  Each round starts cold and compiles Q20-A
    untimed.
    """
    suite = [entry.circuit for entry in build_suite(max_qubits=6)]
    q20b = make_q20b()

    def after_q20a():
        clear_compile_cache()
        compile_batch(suite, device, optimization_level=3, seed=0)
        return (), {}

    benchmark.pedantic(
        lambda: compile_batch(suite, q20b, optimization_level=3, seed=0),
        setup=after_q20a, rounds=3, iterations=1,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the >=2.5x scaling headline needs at least 4 physical cores",
)
def test_process_pool_compile_scales_on_multicore(device):
    """PR 6 acceptance: >=2.5x on 4 process workers for the cold suite
    compile (near-linear minus spawn/serialization overhead)."""
    suite = build_suite(min_qubits=2, max_qubits=20)

    def timed(**kwargs):
        clear_compile_cache()
        start = time.perf_counter()
        compile_suite(suite, device, optimization_level=3, seed=0, **kwargs)
        return time.perf_counter() - start

    sequential = timed(max_workers=1)
    pooled = timed(max_workers=4)
    assert sequential / pooled >= 2.5, (sequential, pooled)


def test_perf_compile_heavy_hex(benchmark):
    """Level-3 compilation on a non-grid coupling (device-zoo smoke bench).

    Heavy-hex is the sparsest realistic topology in the zoo (max degree
    3), so routing works hardest here — this guards the router/layout
    fast paths against regressions that only show off the square grid.
    """
    device = make_zoo_device("heavy_hex", 16, tier="typical", seed=0)
    circuits = [ghz(12), qft(10), random_circuit(12, 20, seed=5, measure=True)]

    def run():
        clear_compile_cache()
        return compile_batch(
            circuits, device, optimization_level=3, seed=0, max_workers=1
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_perf_noisy_execution(benchmark, device):
    circuit = random_circuit(10, 15, seed=2, measure=True)
    compiled = compile_circuit(circuit, device, optimization_level=2, seed=0)
    ideal = ideal_distribution(compiled.circuit)
    executor = QPUExecutor(device)
    benchmark(
        lambda: executor.execute(
            compiled.circuit, shots=2000, seed=3, ideal=ideal
        )
    )


def test_perf_feature_extraction(benchmark, device):
    circuit = random_circuit(15, 40, seed=4, measure=True)
    compiled = compile_circuit(circuit, device, optimization_level=2, seed=0)
    benchmark(lambda: feature_vector(compiled.circuit))


def _serving_suite():
    """The 120-circuit serving workload (2-11-qubit suite prefix)."""
    suite = build_suite(min_qubits=2, max_qubits=11)[:120]
    return suite


def _tiny_estimator():
    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(
        param_grid={
            "n_estimators": [25],
            "max_depth": [None],
            "min_samples_leaf": [1],
            "min_samples_split": [2],
        },
        seed=0,
    )
    estimator.fit(rng.uniform(size=(60, 30)), rng.uniform(size=60))
    return estimator


def test_perf_feature_matrix(benchmark, device):
    """Single-pass featurization of 120 compiled suite circuits.

    The serving hot path between compilation and the forest: one
    traversal per circuit, adjacency-array graph stats, no networkx.
    """
    compiled = [
        result.circuit
        for result in compile_suite(
            _serving_suite(), device,
            optimization_level=3, seed=0, max_workers=1,
        )
    ]
    benchmark.pedantic(lambda: feature_matrix(compiled), rounds=3, iterations=1)


def test_perf_predict_batch(benchmark, device):
    """Steady-state ``FomService.predict`` over the 120-circuit suite.

    End-to-end serving throughput: batched compile (warm cache, the
    loaded-service steady state: one lookup per circuit) -> featurize
    (one lookup per circuit) -> one forest predict per chunk.  Measured against the seed-era per-circuit loop
    (cache disabled, multi-pass features, per-circuit predict) this path
    scores the same 120 circuits ~15x faster; the regression gate pins
    the absolute number.
    """
    circuits = [entry.circuit for entry in _serving_suite()]
    service = FomService(
        _tiny_estimator(), device, optimization_level=3, seed=0
    )
    clear_compile_cache()
    service.predict(circuits)  # warm the cache once: serving steady state
    before = compile_cache_stats()
    benchmark.pedantic(
        lambda: service.predict(circuits), rounds=3, iterations=1
    )
    after = compile_cache_stats()
    # A silent recompile or refeaturize fails the bench instead of only
    # slowing it: every timed compile and feature row is one cache hit.
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == 3 * 2 * len(circuits)


def test_perf_serving_qps(benchmark, tmp_path):
    """Sustained many-client load through the serving daemon.

    The full network path: 6 concurrent clients x 5 keep-alive requests
    of 4 circuits each (the 120-circuit serving suite) against an
    in-process daemon — HTTP framing, work-conserving dynamic batching,
    and the warm FomService pipeline.  The benchmark mean is the
    wall-clock of one whole load run; ``extra_info`` records the derived
    QPS and client-observed p50/p99 request latency, so the smoke-bench
    artifact doubles as the serving tail-latency report.
    """
    from repro.circuits.qasm import to_qasm
    from repro.serving import ModelSource, ServerConfig, ServingClient
    from repro.serving.server import DaemonThread, ServingDaemon

    model_path = tmp_path / "model.npz"
    save_model(_tiny_estimator(), model_path)
    source = ModelSource(
        "file", model_path, make_q20a(), {"optimization_level": 3, "seed": 0}
    )
    daemon = ServingDaemon([source], ServerConfig(
        port=0, max_batch=64, queue_limit=4096,
    ))
    qasm = [to_qasm(entry.circuit) for entry in _serving_suite()]
    n_clients, requests_per_client, request_size = 6, 5, 4
    chunks = [
        qasm[start:start + request_size]
        for start in range(0, n_clients * requests_per_client * request_size,
                           request_size)
    ]
    latencies = []
    wall = {}

    def run_load(host, port):
        latencies.clear()
        errors = []
        started_load = time.perf_counter()

        def drive(client_index):
            with ServingClient(host, port) as client:
                for request_index in range(requests_per_client):
                    chunk = chunks[
                        client_index * requests_per_client + request_index
                    ]
                    started = time.perf_counter()
                    try:
                        client.predict(chunk)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    latencies.append(time.perf_counter() - started)

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall["s"] = time.perf_counter() - started_load
        assert not errors, errors

    with DaemonThread(daemon) as (host, port):
        run_load(host, port)  # warm the compile pass cache: steady state
        benchmark.pedantic(
            run_load, args=(host, port), rounds=3, iterations=1
        )

    total_requests = n_clients * requests_per_client
    ordered = sorted(latencies)
    benchmark.extra_info["qps"] = total_requests / wall["s"]
    benchmark.extra_info["requests"] = total_requests
    benchmark.extra_info["p50_s"] = ordered[len(ordered) // 2]
    benchmark.extra_info["p99_s"] = ordered[
        min(len(ordered) - 1, int(0.99 * len(ordered)))
    ]


def test_perf_serving_sharded_qps(benchmark, tmp_path):
    """The same many-client load through a ``--shards 2`` daemon.

    Two spawn workers (own registry + batcher + GIL each) behind the
    dispatcher; half the clients pin ``model="model"`` and half stay
    anonymous — semantically identical requests (same model, same level,
    bit-identical answers) whose routing keys hash to *different* lanes,
    so both shards stay busy.  The timed section is the load run only
    (worker boot is setup), so the regression gate watches dispatch +
    relay overhead on any machine, including the 1-CPU CI container.
    On >=4 cores the sharded daemon must also beat the single-process
    one by >=2x QPS without giving up tail latency (the PR 10 headline:
    serving QPS is no longer capped by one GIL).
    """
    from repro.circuits.qasm import to_qasm
    from repro.serving import ModelSource, ServerConfig, ServingClient
    from repro.serving.server import DaemonThread, ServingDaemon

    model_path = tmp_path / "model.npz"
    save_model(_tiny_estimator(), model_path)
    source = ModelSource(
        "file", model_path, "q20a", {"optimization_level": 3, "seed": 0}
    )
    qasm = [to_qasm(entry.circuit) for entry in _serving_suite()]
    n_clients, requests_per_client, request_size = 6, 5, 4
    chunks = [
        qasm[start:start + request_size]
        for start in range(0, n_clients * requests_per_client * request_size,
                           request_size)
    ]
    # Even clients pin the model by name, odd ones don't: same answers,
    # different (model, fingerprint, level, panel) lanes -> both shards.
    lane_pins = ["model", None]

    def run_load(host, port):
        errors = []
        latencies = []
        started_load = time.perf_counter()

        def drive(client_index):
            pin = lane_pins[client_index % len(lane_pins)]
            with ServingClient(host, port) as client:
                for request_index in range(requests_per_client):
                    chunk = chunks[
                        client_index * requests_per_client + request_index
                    ]
                    started = time.perf_counter()
                    try:
                        client.predict(chunk, model=pin)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    latencies.append(time.perf_counter() - started)

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started_load
        assert not errors, errors
        ordered = sorted(latencies)
        return {
            "wall_s": wall,
            "qps": (n_clients * requests_per_client) / wall,
            "p50_s": ordered[len(ordered) // 2],
            "p99_s": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        }

    def make_daemon(shards):
        return ServingDaemon([source], ServerConfig(
            port=0, shards=shards, max_batch=64, queue_limit=4096,
        ))

    report = {}
    with DaemonThread(make_daemon(2)) as (host, port):
        run_load(host, port)  # warm both workers' lane caches
        benchmark.pedantic(
            lambda: report.update(run_load(host, port)),
            rounds=3, iterations=1,
        )
    benchmark.extra_info["qps"] = report["qps"]
    benchmark.extra_info["p50_s"] = report["p50_s"]
    benchmark.extra_info["p99_s"] = report["p99_s"]

    if (os.cpu_count() or 1) >= 4:
        # The scaling headline needs real cores: 2 workers + parent +
        # client threads on one CPU would only measure contention.
        with DaemonThread(make_daemon(1)) as (host, port):
            run_load(host, port)
            single = run_load(host, port)
        benchmark.extra_info["single_process_qps"] = single["qps"]
        assert report["qps"] / single["qps"] >= 2.0, (report, single)
        assert report["p99_s"] <= single["p99_s"] * 1.5, (report, single)


def test_perf_compile_search(benchmark, device, tmp_path):
    """Predictor-guided search vs stock level 3 (the PR 8 tentpole gate).

    Setup (untimed) regenerates the committed leaderboards from scratch
    through the process pool and proves the two structural claims:

    * **byte-identical reproducibility** — the freshly generated entries
      equal ``benchmarks/leaderboards/`` byte for byte;
    * **parity-or-win** — on the full 2-20-qubit suite plus both zoo
      workloads, every searched circuit's exact expected fidelity is
      ``>=`` stock level 3's for the same (circuit, seed).

    The timed section is the leaderboard steady state: a *warm*
    ``compile_search`` over the full suite (incumbent config only, one
    trial instead of four) from a cold pass cache, which must come in at
    or under the stock level-3 cold compile it replaces.
    """
    import make_leaderboards as mlb

    from repro.compiler import compile_search
    from repro.compiler.search import reset_search_stats, search_stats
    from repro.fom.metrics import expected_fidelity

    scratch = tmp_path / "leaderboards"
    reset_search_stats()
    searched = mlb.generate(scratch, max_workers=4)

    committed = sorted(mlb.LEADERBOARD_DIR.glob("leaderboard_*.json"))
    regenerated = sorted(scratch.glob("leaderboard_*.json"))
    assert [p.name for p in regenerated] == [p.name for p in committed], (
        "leaderboard set drifted -- rerun benchmarks/make_leaderboards.py"
    )
    for fresh, kept in zip(regenerated, committed):
        assert fresh.read_bytes() == kept.read_bytes(), (
            f"{kept.name} is not byte-identical -- rerun "
            "benchmarks/make_leaderboards.py"
        )

    suite = None
    for (tag, workload_device, circuits) in mlb.workloads():
        clear_compile_cache()
        stock = compile_batch(
            circuits, workload_device, optimization_level=3,
            seed=mlb.SEED, max_workers=4,
        )
        for result, reference in zip(searched[tag], stock):
            stock_fidelity = expected_fidelity(
                reference.circuit, workload_device,
                calibration=workload_device.reported_calibration,
            )
            search_fidelity = result.properties["search"]["expected_fidelity"]
            assert search_fidelity >= stock_fidelity - 1e-12, (
                tag, result.circuit.name, search_fidelity, stock_fidelity,
            )
        if tag == "q20a-suite":
            suite = circuits

    estimator = mlb.bench_estimator()

    def warm_suite():
        clear_compile_cache()
        return compile_search(
            suite, device, estimator,
            beam_width=mlb.BEAM_WIDTH, generations=mlb.GENERATIONS,
            seed=mlb.SEED, store=mlb.LEADERBOARD_DIR, max_workers=1,
        )

    reset_search_stats()
    benchmark.pedantic(warm_suite, rounds=2, iterations=1)
    stats = search_stats()
    assert stats["searches"] == 0, stats
    assert stats["warm_starts"] == 2 * len(suite), stats

    clear_compile_cache()
    started = time.perf_counter()
    compile_batch(
        suite, device, optimization_level=3, seed=mlb.SEED, max_workers=1
    )
    stock_seconds = time.perf_counter() - started
    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["stock_level3_s"] = stock_seconds
    benchmark.extra_info["speedup_vs_stock"] = stock_seconds / warm_seconds
    assert warm_seconds <= stock_seconds, (warm_seconds, stock_seconds)


def test_perf_drift_refresh(benchmark, tmp_path):
    """Warm drift-study rerun plus the PR 9 refresh-cost/recovery gate.

    Setup (untimed) runs a reduced calibration-drift sweep cold into a
    fresh artifact store and pins the two recovery claims:

    * **cheap refresh** — the single prefix-sliced fine-tune fit per
      step costs a fraction of the full grid-search retrain it stands
      in for (``<= 40%`` of the retrain fit time, summed over steps);
    * **bounded gap** — the best fine-tune Pearson lands within 0.15 of
      the full retrain's at every step (the tolerance documented in
      docs/drift.md).

    The timed section is the warm rerun: the finished study served
    straight back from the fingerprinted store, which must be >=5x
    faster than the cold run (the nightly ``--expect-warm`` contract).
    """
    from repro.evaluation.drift import (
        DriftStudyConfig,
        default_drift_study_config,
        run_drift_study,
    )

    config = DriftStudyConfig(
        device="zoo:grid:8:typical:0",
        steps=2,
        refresh_trees=(4, 8, 16),
        study=default_drift_study_config(),
        cache_dir=str(tmp_path / "drift-cache"),
    )

    started = time.perf_counter()
    cold = run_drift_study(config)
    cold_seconds = time.perf_counter() - started
    assert not cold.from_cache

    retrain_seconds = sum(step.retrain_fit_s for step in cold.steps)
    fine_tune_seconds = sum(step.fine_tune_fit_s for step in cold.steps)
    assert fine_tune_seconds <= 0.40 * retrain_seconds, (
        fine_tune_seconds, retrain_seconds,
    )
    for step in cold.steps:
        assert step.recovery_gap() <= 0.15, (
            step.step, step.retrain_pearson, step.best_fine_tune().pearson,
        )

    def warm():
        result = run_drift_study(config)
        assert result.from_cache
        return result

    benchmark.pedantic(warm, rounds=3, iterations=1)
    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["cold_s"] = cold_seconds
    benchmark.extra_info["warm_speedup"] = cold_seconds / warm_seconds
    benchmark.extra_info["retrain_fit_s"] = retrain_seconds
    benchmark.extra_info["fine_tune_fit_s"] = fine_tune_seconds
    benchmark.extra_info["fine_tune_cost_fraction"] = (
        fine_tune_seconds / retrain_seconds
    )
    benchmark.extra_info["max_recovery_gap"] = max(
        step.recovery_gap() for step in cold.steps
    )
    assert cold_seconds / warm_seconds >= 5, (cold_seconds, warm_seconds)


def test_perf_forest_fit(benchmark):
    """Fitting one paper-sized forest (50 trees, 250x30, sqrt features)."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(250, 30))
    y = rng.uniform(size=250)
    benchmark.pedantic(
        lambda: RandomForestRegressor(
            n_estimators=50, random_state=0, max_features="sqrt"
        ).fit(X, y),
        rounds=2, iterations=1,
    )


def test_perf_forest_fit_process(benchmark):
    """The paper forest fit through the 4-worker process pool (PR 6).

    Tree fitting is GIL-bound pure Python; the process pool ships
    ``(X, y)`` once per worker and fitted trees come back as flat
    arrays.  Bit-identical to the sequential fit (property-tier pinned).
    """
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(250, 30))
    y = rng.uniform(size=250)
    benchmark.pedantic(
        lambda: RandomForestRegressor(
            n_estimators=50, random_state=0, max_features="sqrt",
            max_workers=4,
        ).fit(X, y),
        rounds=2, iterations=1,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the >=2.5x scaling headline needs at least 4 physical cores",
)
def test_process_pool_forest_fit_scales_on_multicore():
    """PR 6 acceptance: >=2.5x on 4 process workers for the paper fit."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(250, 30))
    y = rng.uniform(size=250)

    def timed(**kwargs):
        start = time.perf_counter()
        RandomForestRegressor(
            n_estimators=50, random_state=0, max_features="sqrt", **kwargs
        ).fit(X, y)
        return time.perf_counter() - start

    sequential = timed(max_workers=1)
    pooled = timed(max_workers=4)
    assert sequential / pooled >= 2.5, (sequential, pooled)


def test_perf_grid_search(benchmark):
    """The paper's Section V-A3 model selection: the default 36-config
    grid (trees x depth x leaf/split minima) under 3-fold CV.

    This is the estimator-training workload of ``run_study`` — the
    dominant cost once compilation (PR 2) and simulation (PR 1) are fast.
    Sized to a ~120-circuit per-device dataset.  Sequential
    (max_workers=1) for stable regression-gate timing.
    """
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(120, 30))
    y = 1.0 - np.exp(
        -(2.2 * X[:, 12] + 1.4 * X[:, 8] + 0.7 * X[:, 17])
    ) + 0.02 * rng.standard_normal(120)

    benchmark.pedantic(
        lambda: grid_search(
            RandomForestRegressor(random_state=0, max_features="sqrt"),
            DEFAULT_PARAM_GRID, X, y, n_splits=3, seed=0, max_workers=1,
        ),
        rounds=1, iterations=1,
    )
