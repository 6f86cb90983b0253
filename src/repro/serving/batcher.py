"""Dynamic request batching: coalesce concurrent requests, bit-exactly.

The serving daemon's throughput comes from the same place the offline
pipeline's does — batched compile/featurize/predict sweeps.  But a
network front end receives many concurrent *small* requests, so someone
has to rebuild the batches.  :class:`DynamicBatcher` is that someone:

* Requests enqueue into **lanes** keyed by an opaque, hashable key (the
  daemon uses ``(model, fingerprint, level, panel?)``) — only requests
  whose results are computed identically may share a batch.
* Dispatch is **work-conserving**: whenever the runner is idle, the
  lane whose head request is oldest dispatches, up to ``max_batch``
  circuits.  Requests coalesce while they queue behind the batch
  already in flight, so batches grow with load and a lone request on an
  idle daemon never waits for a partner.  Batch composition only
  affects latency, never values (see
  :meth:`~repro.predictor.service.FomService.predict_at`).
* A request whose awaiter gave up while it was queued (a per-request
  timeout) is dropped at dispatch, never computed.
* The queue is **bounded**: once ``max_queue`` circuits are waiting,
  :meth:`submit` raises :class:`BacklogFull` and the daemon answers 503
  instead of accumulating unbounded latency.
* :meth:`close` is an orderly **drain**: new submissions are rejected
  (:class:`BatcherClosed`), every already-queued request still runs and
  resolves its future exactly once, then the dispatch loop exits.

Batches execute one at a time in a worker thread
(:func:`asyncio.to_thread`), so the event loop stays responsive while
the CPU-bound pipeline runs; the runner itself may fan out further
(``max_workers`` inside :class:`~repro.predictor.service.FomService`).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
)

__all__ = ["BacklogFull", "BatcherClosed", "BatcherStats", "DynamicBatcher"]


class BacklogFull(RuntimeError):
    """The bounded queue is at capacity; the caller should shed load (503)."""


class BatcherClosed(RuntimeError):
    """The batcher is draining/closed and accepts no new work (503)."""


class _Request(NamedTuple):
    payload: Any
    weight: int
    future: "asyncio.Future[Any]"
    enqueued: float


class BatcherStats(NamedTuple):
    """A point-in-time snapshot of the batcher's counters."""

    queue_depth: int                  # circuits currently waiting
    requests_waiting: int             # requests currently waiting
    in_flight: int                    # circuits in the batch running now
    batches_total: int
    requests_total: int
    rejected_total: int               # BacklogFull + BatcherClosed rejections
    batch_size_histogram: Dict[int, int]   # batch weight -> count
    queue_wait_s_total: float         # summed enqueue->dispatch wait
    queue_wait_s_max: float
    stage_s: Dict[str, float]         # runner-reported per-stage seconds


class DynamicBatcher:
    """Work-conserving coalescing over keyed lanes.

    Args:
        runner: ``runner(key, payloads, timings) -> results`` — called in
            a worker thread with every payload of one batch (all sharing
            ``key``); must return one result per payload, in order.  It
            may record per-stage seconds into the ``timings`` dict.
        max_batch: most circuits in one batch.  A single request larger
            than ``max_batch`` still dispatches (alone).
        max_queue: bound on the total circuits waiting across lanes.
    """

    def __init__(
        self,
        runner: Callable[[Hashable, List[Any], Dict[str, float]], List[Any]],
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self._runner = runner
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._lanes: Dict[Hashable, Deque[_Request]] = {}
        self._queued_weight = 0
        self._in_flight = 0
        self._closing = False
        self._wake: Optional[asyncio.Event] = None
        self._loop_task: Optional["asyncio.Task[None]"] = None
        # Counters (all mutated on the event loop only).
        self._batches_total = 0
        self._requests_total = 0
        self._rejected_total = 0
        self._batch_size_histogram: Dict[int, int] = {}
        self._queue_wait_s_total = 0.0
        self._queue_wait_s_max = 0.0
        self._stage_s: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatch loop (idempotent)."""
        if self._loop_task is None:
            self._wake = asyncio.Event()
            self._loop_task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def close(self) -> None:
        """Drain: reject new work, run every queued batch, stop the loop.

        Every request queued before the call resolves exactly once; no
        request is dropped or run twice.
        """
        self._closing = True
        if self._loop_task is not None:
            assert self._wake is not None
            self._wake.set()
            await self._loop_task
            self._loop_task = None

    @property
    def closing(self) -> bool:
        return self._closing

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(self, key: Hashable, payload: Any, weight: int = 1) -> Any:
        """Enqueue one request and await its result.

        Raises :class:`BatcherClosed` when draining and
        :class:`BacklogFull` when ``max_queue`` circuits are already
        waiting.  If the awaiting task is cancelled (e.g. a per-request
        timeout) while the request is queued, the request is dropped at
        dispatch; once its batch runs, the batch still runs to completion
        — only the response is abandoned, never the ordering of everyone
        else's.
        """
        if weight < 1:
            raise ValueError("weight must be positive")
        if self._closing:
            self._rejected_total += 1
            raise BatcherClosed("batcher is draining; not accepting new work")
        if self._queued_weight + weight > self.max_queue:
            self._rejected_total += 1
            raise BacklogFull(
                f"queue at capacity ({self._queued_weight}/{self.max_queue} "
                f"circuits waiting)"
            )
        if self._loop_task is None:
            await self.start()
        loop = asyncio.get_running_loop()
        request = _Request(payload, weight, loop.create_future(), loop.time())
        self._lanes.setdefault(key, deque()).append(request)
        self._queued_weight += weight
        self._requests_total += 1
        assert self._wake is not None
        self._wake.set()
        return await request.future

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> BatcherStats:
        """Current counters (the daemon's ``/stats`` feed)."""
        return BatcherStats(
            queue_depth=self._queued_weight,
            requests_waiting=sum(len(lane) for lane in self._lanes.values()),
            in_flight=self._in_flight,
            batches_total=self._batches_total,
            requests_total=self._requests_total,
            rejected_total=self._rejected_total,
            batch_size_histogram=dict(self._batch_size_histogram),
            queue_wait_s_total=self._queue_wait_s_total,
            queue_wait_s_max=self._queue_wait_s_max,
            stage_s=dict(self._stage_s),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _take_batch(self, key: Hashable) -> List[_Request]:
        """Pop whole requests from a lane head up to ``max_batch`` circuits.

        Requests whose future is already done — the awaiter timed out or
        was cancelled while queued — are dropped, not run; the batch may
        therefore come back empty.
        """
        lane = self._lanes[key]
        batch: List[_Request] = []
        taken = 0
        while lane:
            request = lane[0]
            abandoned = request.future.done()
            full = batch and taken + request.weight > self.max_batch
            if full and not abandoned:
                break
            lane.popleft()
            self._queued_weight -= request.weight
            if not abandoned:
                batch.append(request)
                taken += request.weight
        if not lane:
            del self._lanes[key]
        return batch

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._wake is not None
        while True:
            if not self._lanes:
                if self._closing:
                    return
                self._wake.clear()
                # Re-check after clearing: a submit between the check and
                # the clear must not be lost.
                if not self._lanes and not self._closing:
                    await self._wake.wait()
                continue
            # The lane whose head request has waited longest.
            key = min(
                self._lanes, key=lambda lane: self._lanes[lane][0].enqueued
            )
            batch = self._take_batch(key)
            if batch:
                await self._run_batch(key, batch, dispatched_at=loop.time())

    async def _run_batch(
        self, key: Hashable, batch: List[_Request], dispatched_at: float
    ) -> None:
        weight = sum(request.weight for request in batch)
        self._in_flight = weight
        timings: Dict[str, float] = {}
        try:
            results = await asyncio.to_thread(
                self._runner, key, [request.payload for request in batch],
                timings,
            )
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(batch)} requests"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        else:
            for request, result in zip(batch, results):
                if not request.future.done():
                    request.future.set_result(result)
        finally:
            self._in_flight = 0
            self._batches_total += 1
            self._batch_size_histogram[weight] = (
                self._batch_size_histogram.get(weight, 0) + 1
            )
            for request in batch:
                wait = dispatched_at - request.enqueued
                self._queue_wait_s_total += wait
                self._queue_wait_s_max = max(self._queue_wait_s_max, wait)
            for stage, seconds in timings.items():
                self._stage_s[stage] = self._stage_s.get(stage, 0.0) + seconds
