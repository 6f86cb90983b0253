"""Contract tests for :mod:`repro.parallel` across both execution modes.

Pins the PR 6 guarantees: order preservation in thread *and* process
pools, the parent-side ``on_result`` callback contract (exceptions
propagate only after the batch drains), fn-error precedence, the
small-batch process degradation, the ``REPRO_WORKERS_MODE`` override,
and the single repo-wide ``max_workers=None`` -> one-per-CPU rule; and
the shared spawn pool: reuse across calls, per-call initializer state,
and recovery from a dead worker.
"""

import os
import sys
import threading

import pytest

from repro.parallel import (
    PROCESS_MIN_ITEMS,
    WORKER_MODES,
    WORKERS_MODE_ENV,
    parallel_map,
    resolve_mode,
    resolve_workers,
)

# Module-level so process mode can pickle them by reference.  This module
# only imports repro.parallel, so spawned workers stay cheap to start.


def _square(x):
    return x * x


def _fail_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"bad {x}")
    return x


def _worker_pid(_):
    return os.getpid()


_INIT_VALUE = None


def _remember(value):
    global _INIT_VALUE
    _INIT_VALUE = value


def _recall(_):
    return _INIT_VALUE


def _refuse(_value):
    raise ValueError("initializer refused")


def _exit_in_worker(x):
    if x == 0:
        os._exit(1)
    return os.getpid()


@pytest.mark.parametrize("mode", WORKER_MODES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_order_preserved_across_modes_and_worker_counts(mode, workers):
    items = list(range(10))
    assert parallel_map(
        _square, items, max_workers=workers, mode=mode
    ) == [i * i for i in items]


@pytest.mark.parametrize("mode", WORKER_MODES)
def test_on_result_fires_in_parent_for_every_item(mode):
    items = list(range(8))
    seen = []
    parent = os.getpid()

    def callback(index, result):
        # Appending to a closure list only works because the callback
        # runs in the parent, whatever the pool flavor.
        assert os.getpid() == parent
        seen.append((index, result))

    results = parallel_map(
        _square, items, max_workers=4, mode=mode, on_result=callback
    )
    assert sorted(index for index, _ in seen) == items
    assert dict(seen) == dict(enumerate(results))


@pytest.mark.parametrize("mode", WORKER_MODES)
def test_callback_exception_propagates_after_drain(mode):
    """A raising callback must neither hang the pool nor skip items."""
    items = list(range(8))
    seen = []

    def bad_callback(index, result):
        seen.append(index)
        if len(seen) == 1:
            raise RuntimeError("callback blew up")

    with pytest.raises(RuntimeError, match="callback blew up"):
        parallel_map(
            _square, items, max_workers=4, mode=mode, on_result=bad_callback
        )
    # The batch drained fully: every item completed and fired its callback.
    assert sorted(seen) == items


@pytest.mark.parametrize("mode", WORKER_MODES)
def test_lowest_index_fn_error_wins(mode):
    """With several failing items the lowest input index propagates, and
    fn errors take precedence over callback errors."""

    def callback(index, result):
        raise RuntimeError("callback error should lose")

    with pytest.raises(ValueError, match="bad 2"):
        parallel_map(
            _fail_on_even,
            [1, 3, 2, 5, 4, 7],
            max_workers=4,
            mode=mode,
            on_result=callback,
        )


def test_sequential_path_stops_at_first_failure():
    calls = []

    def fn(x):
        calls.append(x)
        if x == 2:
            raise ValueError(f"bad {x}")
        return x

    with pytest.raises(ValueError, match="bad 2"):
        parallel_map(fn, [1, 2, 3, 4], max_workers=1)
    assert calls == [1, 2]


def test_small_process_batch_degrades_to_in_process_loop():
    items = list(range(PROCESS_MIN_ITEMS - 1))
    pids = parallel_map(_worker_pid, items, max_workers=4, mode="process")
    assert pids == [os.getpid()] * len(items)


def test_process_pool_actually_leaves_the_parent():
    items = list(range(max(PROCESS_MIN_ITEMS, 4)))
    pids = parallel_map(_worker_pid, items, max_workers=2, mode="process")
    assert all(pid != os.getpid() for pid in pids)


def test_initializer_ships_state_to_process_workers():
    items = list(range(max(PROCESS_MIN_ITEMS, 4)))
    results = parallel_map(
        _recall,
        items,
        max_workers=2,
        mode="process",
        initializer=_remember,
        initargs=(42,),
    )
    assert results == [42] * len(items)
    # Parent state untouched: the initializer ran in the workers only.
    assert _INIT_VALUE is None


def test_initializer_runs_in_parent_on_degenerate_path():
    global _INIT_VALUE
    try:
        assert parallel_map(
            _recall, [0], max_workers=4, mode="process",
            initializer=_remember, initargs=(7,),
        ) == [7]
        assert _INIT_VALUE == 7
    finally:
        _INIT_VALUE = None


def test_resolve_mode_precedence(monkeypatch):
    monkeypatch.delenv(WORKERS_MODE_ENV, raising=False)
    assert resolve_mode(None) == "thread"
    assert resolve_mode(None, default="process") == "process"
    assert resolve_mode("thread", default="process") == "thread"
    monkeypatch.setenv(WORKERS_MODE_ENV, "process")
    assert resolve_mode(None) == "process"
    # An explicit argument still beats the environment.
    assert resolve_mode("thread") == "thread"
    monkeypatch.setenv(WORKERS_MODE_ENV, "")
    assert resolve_mode(None) == "thread"
    with pytest.raises(ValueError):
        resolve_mode("fork")
    monkeypatch.setenv(WORKERS_MODE_ENV, "greenlet")
    with pytest.raises(ValueError):
        resolve_mode(None)


def test_parallel_map_rejects_unknown_mode():
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2, 3], mode="fork")


def test_resolve_workers_none_means_one_per_cpu():
    cpus = os.cpu_count() or 1
    assert resolve_workers(None, 10 ** 6) == cpus
    assert resolve_workers(None, 1) == 1
    assert resolve_workers(3, 10) == 3
    assert resolve_workers(8, 2) == 2
    assert resolve_workers(None, 0) == 1
    with pytest.raises(ValueError):
        resolve_workers(0, 5)


def test_process_batches_reuse_one_pool(pool_constructions):
    """Consecutive batches with one worker count share one spawn pool."""
    items = list(range(8))
    pids = set()
    for _ in range(3):
        pids |= set(
            parallel_map(_worker_pid, items, max_workers=2, mode="process")
        )
    assert pool_constructions == [2]
    # No batch started a worker: all three ran on the same two processes.
    assert len(pids) <= 2
    assert os.getpid() not in pids


def test_initializer_state_is_per_call_on_a_shared_pool(pool_constructions):
    """Interleaved calls on the same workers each see their own state."""
    items = list(range(6))
    for value in (1, 2, 1):
        assert parallel_map(
            _recall, items, max_workers=2, mode="process",
            initializer=_remember, initargs=(value,),
        ) == [value] * len(items)
    assert pool_constructions == [2]
    assert _INIT_VALUE is None


def test_concurrent_calls_on_one_pool_keep_their_own_state(pool_constructions):
    """Callers in several threads interleave tasks on the same workers;
    every task still runs against its own call's initializer state."""
    items = list(range(6))
    outcomes = {}

    def caller(value):
        outcomes[value] = [
            parallel_map(
                _recall, items, max_workers=3, mode="process",
                initializer=_remember, initargs=(value,),
            )
            for _ in range(3)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=caller, args=(value,)) for value in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == {
        value: [[value] * len(items)] * 3 for value in range(4)
    }
    assert pool_constructions == [3]


def test_fn_and_initializer_errors_leave_the_pool_usable(pool_constructions):
    items = list(range(6))
    before = set(parallel_map(_worker_pid, items, max_workers=2, mode="process"))
    with pytest.raises(ValueError, match="bad 0"):
        parallel_map(_fail_on_even, items, max_workers=2, mode="process")
    with pytest.raises(ValueError, match="initializer refused"):
        parallel_map(
            _recall, items, max_workers=2, mode="process",
            initializer=_refuse, initargs=(1,),
        )
    after = set(parallel_map(_worker_pid, items, max_workers=2, mode="process"))
    assert len(before | after) <= 2
    assert pool_constructions == [2]


def test_crashed_worker_does_not_poison_later_batches(pool_constructions):
    """A dead worker fails its batch; the next batch gets a fresh pool."""
    from concurrent.futures.process import BrokenProcessPool

    items = list(range(6))
    before = set(parallel_map(_worker_pid, items, max_workers=2, mode="process"))
    with pytest.raises(BrokenProcessPool):
        parallel_map(_exit_in_worker, items, max_workers=2, mode="process")
    after = set(parallel_map(_worker_pid, items, max_workers=2, mode="process"))
    assert before.isdisjoint(after)
    assert pool_constructions == [2, 2]


def test_compile_initializers_start_batches_on_an_empty_cache(monkeypatch):
    """Warm workers outlive batches; each batch still starts cache-cold."""
    import repro.compiler.compile as compile_module
    import repro.compiler.search as search_module
    from repro.bench import build_suite
    from repro.compiler import compile_cache_stats, compile_circuit
    from repro.hardware import make_zoo_device

    monkeypatch.setattr(compile_module, "_WORKER_STATE", None)
    monkeypatch.setattr(search_module, "_SEARCH_WORKER_STATE", None)
    device = make_zoo_device("ring", 6, seed=0)
    circuit = build_suite(max_qubits=4)[0].circuit

    compile_circuit(circuit, device, optimization_level=3, seed=0)
    assert compile_cache_stats()["size"] > 0
    compile_module._init_compile_worker(device, 3, False, 4)
    assert compile_cache_stats()["size"] == 0

    compile_circuit(circuit, device, optimization_level=3, seed=0)
    assert compile_cache_stats()["size"] > 0
    search_module._init_search_worker(device, None, {})
    assert compile_cache_stats()["size"] == 0
