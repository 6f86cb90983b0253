"""Contract tests for :mod:`repro.parallel` across both execution modes.

Pins the guarantees: order preservation in thread *and* process pools,
the parent-side ``on_result`` callback contract (exceptions propagate
only after the batch drains), fn-error precedence, the small-batch
process degradation, ``mode`` as a required keyword, and the single
repo-wide ``max_workers=None`` -> one-per-CPU rule; and the shared spawn
pool: reuse across calls, per-call ``shared`` payloads, a cold compile
cache per call, and recovery from a dead worker.
"""

import os
import sys
import threading

import pytest

from repro.parallel import PROCESS_MIN_ITEMS, parallel_map, resolve_workers

#: Both pool kinds stay part of the contract: simulation and execution
#: run in threads, the GIL-bound stages in processes.
MODES = ("thread", "process")

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


def _tag(value, item):
    return (value, item)


def _refuse():
    raise ValueError("payload refused")


class _Unloadable:
    """Pickles in the parent; unpickling it in a worker raises."""

    def __reduce__(self):
        return (_refuse, ())


def _cache_size_then_compile(device, circuit, seed):
    """The compile-cache size a task finds, then warm it with a compile."""
    from repro.compiler import compile_cache_stats, compile_circuit

    size = compile_cache_stats()["size"]
    compile_circuit(circuit, device, optimization_level=3, seed=seed)
    return os.getpid(), size


def _exit_in_worker(x):
    if x == 0:
        os._exit(1)
    return os.getpid()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_order_preserved_across_modes_and_worker_counts(mode, workers):
    items = list(range(10))
    assert parallel_map(
        _square, items, max_workers=workers, mode=mode
    ) == [i * i for i in items]


@pytest.mark.parametrize("mode", MODES)
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


@pytest.mark.parametrize("mode", MODES)
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


@pytest.mark.parametrize("mode", MODES)
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
        parallel_map(fn, [1, 2, 3, 4], max_workers=1, mode="thread")
    assert calls == [1, 2]


def test_small_process_batch_degrades_to_in_process_loop():
    items = list(range(PROCESS_MIN_ITEMS - 1))
    pids = parallel_map(_worker_pid, items, max_workers=4, mode="process")
    assert pids == [os.getpid()] * len(items)


def test_process_pool_actually_leaves_the_parent():
    items = list(range(max(PROCESS_MIN_ITEMS, 4)))
    pids = parallel_map(_worker_pid, items, max_workers=2, mode="process")
    assert all(pid != os.getpid() for pid in pids)


def test_shared_ships_to_process_workers():
    items = list(range(max(PROCESS_MIN_ITEMS, 4)))
    assert parallel_map(
        _tag, items, max_workers=2, mode="process", shared=(42,)
    ) == [(42, item) for item in items]


def test_in_process_paths_pass_shared_without_pickling():
    """The loop and thread mode hand over the very objects: an
    unpicklable payload is fine there."""
    lock = threading.Lock()
    for mode, workers, items in (
        ("thread", 1, [0, 1, 2]),
        ("thread", 2, [0, 1, 2]),
        ("process", 2, [0]),
    ):
        assert parallel_map(
            _tag, items, max_workers=workers, mode=mode, shared=(lock,)
        ) == [(lock, item) for item in items]


def test_parallel_map_rejects_unknown_mode():
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2, 3], mode="fork")
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2, 3], mode=None)


def test_parallel_map_mode_is_a_required_keyword():
    """Every call site names its stage's pool kind; none inherits one."""
    with pytest.raises(TypeError):
        parallel_map(_square, [1, 2, 3])
    with pytest.raises(TypeError):
        parallel_map(_square, [1, 2, 3], 2, None, "thread")


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


def test_shared_payload_is_per_call_on_a_shared_pool(pool_constructions):
    """Interleaved calls on the same workers each see their own payload."""
    items = list(range(6))
    for value in (1, 2, 1):
        assert parallel_map(
            _tag, items, max_workers=2, mode="process", shared=(value,)
        ) == [(value, item) for item in items]
    assert pool_constructions == [2]


def test_concurrent_calls_on_one_pool_keep_their_own_state(pool_constructions):
    """Callers in several threads interleave tasks on the same workers;
    every task still runs against its own call's payload."""
    items = list(range(6))
    outcomes = {}

    def caller(value):
        outcomes[value] = [
            parallel_map(
                _tag, items, max_workers=3, mode="process", shared=(value,)
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
        value: [[(value, item) for item in items]] * 3 for value in range(4)
    }
    assert pool_constructions == [3]


def test_fn_and_payload_errors_leave_the_pool_usable(pool_constructions):
    items = list(range(6))
    before = set(parallel_map(_worker_pid, items, max_workers=2, mode="process"))
    with pytest.raises(ValueError, match="bad 0"):
        parallel_map(_fail_on_even, items, max_workers=2, mode="process")
    with pytest.raises(ValueError, match="payload refused"):
        parallel_map(
            _tag, items, max_workers=2, mode="process",
            shared=(_Unloadable(),),
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


def test_process_calls_start_cache_cold_and_local_calls_keep_the_cache():
    """Warm workers outlive calls, yet every process-mode call starts on
    an empty compile cache; an in-process compile keeps the caller's."""
    from repro.bench import build_suite
    from repro.compiler import compile_batch, compile_cache_stats
    from repro.hardware import make_zoo_device

    device = make_zoo_device("ring", 6, seed=0)
    circuit = build_suite(max_qubits=4)[0].circuit
    seeds = list(range(8))

    def sizes_by_worker():
        found = {}
        for pid, size in parallel_map(
            _cache_size_then_compile, seeds, max_workers=2, mode="process",
            shared=(device, circuit),
        ):
            found.setdefault(pid, []).append(size)
        return found

    first = sizes_by_worker()
    second = sizes_by_worker()
    # Each worker's first task of a call found the cache empty, and later
    # tasks of the same call found it warmed.
    for found in (first, second):
        assert all(min(sizes) == 0 for sizes in found.values())
    assert any(max(sizes) > 0 for sizes in first.values())
    assert set(first) & set(second), "no worker served both calls"

    compile_batch([circuit], device, optimization_level=3, max_workers=1)
    before = compile_cache_stats()
    assert before["size"] > 0
    compile_batch([circuit], device, optimization_level=3, max_workers=1)
    after = compile_cache_stats()
    assert after["size"] == before["size"]
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]
