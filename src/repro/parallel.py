"""Shared worker-pool infrastructure for the batched stages.

Every batched stage in the repo (compilation, feature extraction,
noiseless simulation, noisy execution, forest training, and grid search)
funnels through :func:`parallel_map`, so worker-count invariance is
enforced in one place: results are always returned in input order, a
single worker degrades to a plain loop, and per-item work is required to
be deterministic.

Two execution modes are supported:

* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Right for stages whose inner loops release the GIL (numpy-heavy
  simulation and noisy execution).
* ``"process"`` — a shared, long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` over the ``spawn``
  start method.  Right for the GIL-bound pure-Python stages
  (compilation, feature extraction, tree fitting).  ``fn``,
  ``initializer``/``initargs`` and every item/result must be picklable.

**The shared pool.**  Starting a spawn pool whose workers import
``repro`` costs about half a second on a 2-vCPU machine, so process mode
does not start a pool per call.  The first pooled call with a given worker count creates a spawn
pool of that size; every later call with the same count reuses it, and
:func:`_shutdown_pools` shuts every pool down at interpreter exit.
Workers are therefore long-lived: module state (the compile cache, an
initializer's globals) survives from one call to the next in the same
worker.  A per-call ``initializer`` cannot run at worker start-up, so
each call pickles ``(initializer, initargs)`` once, tags it with a fresh
token, and ships it with every task; a worker runs the initializer
before the first task of each call it serves, i.e. whenever the token
differs from the one it last installed.  Initializers that should start
a batch from clean state reset it themselves (the compile initializers
clear the compile cache).  An exception raised by ``fn`` or by the
initializer fails only its own items.  A worker that dies (``os._exit``,
OOM kill) breaks the executor: the batch raises
:class:`~concurrent.futures.process.BrokenProcessPool`, ahead of any
``fn`` error, and the broken pool leaves the registry so the next call
builds a fresh one.

The mode is an explicit argument everywhere; batched entry points accept
``workers_mode=None`` meaning "the :envvar:`REPRO_WORKERS_MODE`
environment override if set, else this entry point's documented default"
(see :func:`resolve_mode`).

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

Historically these helpers lived in ``repro.simulation.executor``; they
moved here so the ML layer can reuse them without importing the
simulator.  The old import path still works (the executor re-exports the
names).
"""

from __future__ import annotations

import atexit
import functools
import itertools
import multiprocessing
import os
import pickle
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

#: Environment variable overriding the default execution mode of every
#: batched entry point that is called with ``workers_mode=None``.
WORKERS_MODE_ENV = "REPRO_WORKERS_MODE"

#: The recognised execution modes.
WORKER_MODES = ("thread", "process")

#: Below this many items a requested process pool degrades to the plain
#: in-process loop: spawning interpreters costs more than the work buys.
#: Three keeps the paper's 3-fold cross-validation poolable while 1-2
#: item batches stay in-process.  (Results are bit-identical either way;
#: this is purely a perf guard.)
PROCESS_MIN_ITEMS = 3

#: The shared spawn pools, one per worker count (see the module docstring).
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: Per-call tokens naming each call's pickled initializer payload.
_TOKENS = itertools.count(1)

#: In a pool worker: the token of the call whose initializer last ran.
_INSTALLED_TOKEN: Optional[int] = None


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


def _run_task(
    fn: Callable[[_T], _R], setup: Optional[Tuple[int, bytes]], item: _T
) -> _R:
    """Run one shared-pool task, installing its call's state first if needed.

    ``setup`` is ``(token, pickled (initializer, initargs))`` or ``None``.
    The initializer runs when this worker last installed another call's
    token; if it raises, the token stays uninstalled and the call's next
    task in this worker retries it.
    """
    global _INSTALLED_TOKEN
    if setup is not None and setup[0] != _INSTALLED_TOKEN:
        token, payload = setup
        _INSTALLED_TOKEN = None
        initializer, initargs = pickle.loads(payload)
        initializer(*initargs)
        _INSTALLED_TOKEN = token
    return fn(item)


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


def resolve_mode(mode: Optional[str], default: str = "thread") -> str:
    """Execution mode for a batch.

    Precedence: an explicit ``mode`` argument, else the
    :envvar:`REPRO_WORKERS_MODE` environment override, else the calling
    entry point's ``default``.  Raises :class:`ValueError` for anything
    outside :data:`WORKER_MODES`.
    """
    if mode is None:
        mode = os.environ.get(WORKERS_MODE_ENV) or default
    if mode not in WORKER_MODES:
        raise ValueError(
            f"workers mode must be one of {WORKER_MODES}, got {mode!r}"
        )
    return mode


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    max_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, _R], None]] = None,
    mode: Optional[str] = "thread",
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> List[_R]:
    """Order-preserving map over a thread or process pool.

    Falls back to a plain in-process loop for a single worker, a single
    item, or a process-mode batch smaller than
    :data:`PROCESS_MIN_ITEMS`, so results are identical across worker
    counts and modes — the per-item work must itself be deterministic.
    In the degenerate case any ``initializer`` runs once in the parent.

    ``on_result(index, result)`` fires in the parent as each item
    completes (completion order), giving batch callers per-item liveness
    without waiting for the pool to drain.  Callbacks never affect the
    returned list, which is always in input order; see the module
    docstring for the full callback/exception contract.

    In ``"process"`` mode the batch runs on the shared spawn pool for
    its worker count; ``fn`` must be a picklable module-level callable
    and items/results must pickle.  ``initializer(*initargs)`` is
    pickled once per call and runs in each worker before the first task
    of this call it serves (use it to ship large shared state once per
    call instead of per item).  In ``"thread"`` mode it runs once per
    thread of a per-call pool.
    """
    items = list(items)
    workers = resolve_workers(max_workers, len(items))
    mode = resolve_mode(mode)
    pooled = workers > 1 and len(items) > 1
    if mode == "process" and len(items) < PROCESS_MIN_ITEMS:
        pooled = False
    if not pooled:
        if initializer is not None:
            initializer(*initargs)
        results = []
        callback_error: Optional[BaseException] = None
        for index, item in enumerate(items):
            result = fn(item)
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
        with ThreadPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        ) as pool:
            return _drain(functools.partial(pool.submit, fn), items, on_result)

    pool = _shared_pool(workers)
    setup = None
    if initializer is not None:
        setup = (next(_TOKENS), pickle.dumps((initializer, initargs)))
    try:
        return _drain(
            functools.partial(pool.submit, _run_task, fn, setup),
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
