"""Shared worker-pool infrastructure for the batched stages.

Every batched stage in the repo (compilation, feature extraction,
noiseless simulation, noisy execution, forest training, and grid search)
funnels through :func:`parallel_map`, so worker-count invariance is
enforced in one place: results are always returned in input order, a
single worker degrades to a plain loop, and per-item work is required to
be deterministic.

**One fixed mode per stage.**  A stage's kind of work decides its pool,
so every call site names its ``mode`` as a literal and ``max_workers``
is the only parallelism setting a caller chooses:

* ``"process"`` — a shared, long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` over the ``spawn``
  start method, for the GIL-bound pure-Python stages: compilation,
  feature extraction, tree fitting, cross-validation and grid search.
  ``fn``, ``shared`` and every item/result must be picklable.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`, for
  the stages whose numpy kernels release the GIL: noiseless simulation
  and noisy execution.

**Batch invariants.**  A batch's per-call invariants (device, estimator,
training matrix) travel as ``shared``: every mode calls
``fn(*shared, item)``.  The in-process loop and thread mode pass the
tuple as is, so nothing is pickled.

**The shared pool.**  Starting a spawn pool whose workers import
``repro`` costs about half a second on a 2-vCPU machine, so process mode
does not start a pool per call.  The first pooled call with a given
worker count creates a spawn pool of that size; every later call with
the same count reuses it, and :func:`_shutdown_pools` shuts every pool
down at interpreter exit.  Workers are therefore long-lived and keep
their module state from one call to the next, so each call pickles its
``shared`` tuple once, tags it with a fresh token, and ships it with
every task; a worker installs the payload before the first task of
each call it serves, i.e. whenever the token differs from the one it
last installed.  Installing a payload also empties the worker's compile
cache, so every process-mode call starts from the cold cache a fresh
worker had and worker memory does not grow across devices.  The
caller's cache is the one that stays warm: the in-process path never
clears it, and :func:`~repro.compiler.compile.compile_batch` stores
each pooled compile in it as the result comes back.  An
exception raised by ``fn`` or while installing a payload fails only its
own items.  A worker that dies (``os._exit``, OOM kill) breaks the
executor: the batch raises
:class:`~concurrent.futures.process.BrokenProcessPool`, ahead of any
``fn`` error, and the broken pool leaves the registry so the next call
builds a fresh one.

**Worker-default rule.**  ``max_workers=None`` always means one worker
per CPU (:func:`resolve_workers`); entry points that want a sequential
default say ``max_workers=1`` explicitly in their signature instead of
remapping ``None``.

**Callback/exception contract.**  ``on_result(index, result)`` fires in
the parent process/thread as each item completes (completion order, not
input order).  An exception raised *inside a callback* never corrupts
result ordering or hangs the pool: the batch drains fully, every
remaining item still completes and fires its callback, and the first
callback exception is re-raised once the pool has drained.  An exception
raised *by fn itself* takes precedence over callback exceptions, and the
one belonging to the lowest input index is the one propagated; pooled
modes drain the remaining items first (their callbacks still fire),
while the sequential path stops at the first failing item.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Below this many items a requested process pool degrades to the plain
#: in-process loop: the pool's workers are already running, but pickling
#: the ``shared`` payload and the items and shipping them to a worker and
#: back costs more than one or two items of work buy.  Three keeps the
#: paper's 3-fold cross-validation poolable.  (Results are bit-identical
#: either way; this is purely a perf guard.)
PROCESS_MIN_ITEMS = 3

#: The shared spawn pools, one per worker count (see the module docstring).
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: Per-call tokens naming each call's pickled ``shared`` payload.
_TOKENS = itertools.count(1)

#: In a pool worker: ``(token, shared)`` of the call last installed.
_INSTALLED: Optional[Tuple[int, tuple]] = None


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process's spawn pool of ``workers`` workers, created on first use."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return pool


def _drop_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool so the next call with ``workers`` builds anew."""
    with _POOLS_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_pools() -> None:
    """Shut every shared pool down, waiting for its workers to exit."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(_shutdown_pools)


def _run_task(fn: Callable[..., _R], token: int, payload: bytes, item) -> _R:
    """Run one shared-pool task, installing its call's payload first if
    this worker last installed another call's.

    Installing empties the compile cache (a worker that never imported
    it has nothing cached) and unpickles ``shared``; if that raises, the
    call stays uninstalled and its next task in this worker retries.
    """
    global _INSTALLED
    if _INSTALLED is None or _INSTALLED[0] != token:
        _INSTALLED = None
        cache = sys.modules.get("repro.compiler.cache")
        if cache is not None:
            cache.clear_compile_cache()
        _INSTALLED = (token, pickle.loads(payload))
    return fn(*_INSTALLED[1], item)


def resolve_workers(max_workers: Optional[int], num_items: int) -> int:
    """Worker count for a batch: explicit value, else one per CPU.

    This is the single worker-default rule for the whole repo: ``None``
    maps to ``os.cpu_count()`` at every batched entry point, then the
    count is capped by the number of items (never below 1).
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError("max_workers must be positive")
    return max(1, min(max_workers, num_items))


def contiguous_chunks(
    items: Sequence[_T], max_workers: Optional[int]
) -> List[List[_T]]:
    """``items`` in order, split into contiguous chunks of near-equal
    size: one per worker, for stages whose per-chunk work amortizes over
    many items.

    A pooled split has at least :data:`PROCESS_MIN_ITEMS` chunks (so the
    batch still reaches the pool) in a multiple of the worker count (so
    workers get equal shares).
    """
    if not items:
        return []
    workers = resolve_workers(max_workers, len(items))
    count = workers
    if workers > 1:
        count = min(workers * -(-PROCESS_MIN_ITEMS // workers), len(items))
    bounds = [len(items) * i // count for i in range(count + 1)]
    return [list(items[a:b]) for a, b in zip(bounds, bounds[1:])]


def parallel_map(
    fn: Callable[..., _R],
    items: Sequence[_T],
    max_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, _R], None]] = None,
    *,
    mode: str,
    shared: tuple = (),
) -> List[_R]:
    """Order-preserving ``[fn(*shared, item) for item in items]`` over a
    thread or process pool.

    Falls back to a plain in-process loop for a single worker, a single
    item, or a process-mode batch smaller than
    :data:`PROCESS_MIN_ITEMS`, so results are identical across worker
    counts — the per-item work must itself be deterministic.  ``mode``
    (``"thread"`` or ``"process"``) is the calling stage's fixed pool
    kind (see the module docstring).

    ``on_result(index, result)`` fires in the parent as each item
    completes (completion order), giving batch callers per-item liveness
    without waiting for the pool to drain.  Callbacks never affect the
    returned list, which is always in input order; see the module
    docstring for the full callback/exception contract.

    In ``"process"`` mode the batch runs on the shared spawn pool for
    its worker count; ``fn`` must be a picklable module-level callable
    and items/results must pickle.  ``shared`` holds the batch
    invariants: it is pickled once per call and installed in each worker
    before the first task of this call it serves, instead of riding
    along with every item (see the module docstring).
    """
    items = list(items)
    if mode not in ("thread", "process"):
        raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
    workers = resolve_workers(max_workers, len(items))
    pooled = workers > 1 and len(items) > 1
    if mode == "process" and len(items) < PROCESS_MIN_ITEMS:
        pooled = False
    if not pooled:
        results = []
        callback_error: Optional[BaseException] = None
        for index, item in enumerate(items):
            result = fn(*shared, item)
            results.append(result)
            if on_result is not None:
                try:
                    on_result(index, result)
                except BaseException as exc:
                    if callback_error is None:
                        callback_error = exc
        if callback_error is not None:
            raise callback_error
        return results

    if mode == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _drain(
                functools.partial(pool.submit, fn, *shared), items, on_result
            )

    pool = _shared_pool(workers)
    payload = pickle.dumps(shared)
    try:
        return _drain(
            functools.partial(
                pool.submit, _run_task, fn, next(_TOKENS), payload
            ),
            items,
            on_result,
        )
    except BrokenProcessPool:
        _drop_pool(workers, pool)
        raise


def _drain(
    submit: Callable, items: List, on_result: Optional[Callable]
) -> List:
    """Submit every item, fire callbacks as they complete, then raise or
    return per the module's callback/exception contract."""
    results = [None] * len(items)
    fn_errors: dict = {}
    callback_error = None
    broken: Optional[BrokenProcessPool] = None
    futures: dict = {}
    try:
        for index, item in enumerate(items):
            futures[submit(item)] = index
        for future in as_completed(futures):
            index = futures[future]
            try:
                results[index] = future.result()
            except BrokenProcessPool as exc:
                broken = exc
                continue
            except BaseException as exc:
                fn_errors[index] = exc
                continue
            if on_result is not None:
                try:
                    on_result(index, results[index])
                except BaseException as exc:
                    if callback_error is None:
                        callback_error = exc
    finally:
        # An interrupted batch must not leave its tasks queued on the
        # shared pool (a no-op for futures already done).
        for future in futures:
            future.cancel()
    if broken is not None:
        raise broken
    if fn_errors:
        raise fn_errors[min(fn_errors)]
    if callback_error is not None:
        raise callback_error
    return results
