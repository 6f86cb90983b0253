"""DynamicBatcher semantics: dispatch order, lanes, backpressure, drain.

These tests drive the batcher with synthetic runners (no FomService), so
they pin the *concurrency* contract in isolation: which requests share a
batch, which lane dispatches next, and that every future resolves
exactly once.  Coalescing is forced without timers: a runner blocked on
a :class:`threading.Event` holds one batch in flight while the requests
under test queue behind it.
"""

import asyncio
import threading

import pytest

from repro.serving.batcher import BacklogFull, BatcherClosed, DynamicBatcher

from .gating import behind_a_running_batch, gated, wait_until


def run(coroutine):
    return asyncio.run(coroutine)


def echo_runner(batches=None):
    """A runner returning (key, payload) per request, logging batches."""

    def runner(key, payloads, timings):
        if batches is not None:
            batches.append((key, list(payloads)))
        return [(key, payload) for payload in payloads]

    return runner


def gated_runner(batches, gate):
    """An echo runner that logs each batch, then blocks until ``gate``."""

    def runner(key, payloads, timings):
        batches.append(list(payloads))
        gate.wait(timeout=30)
        return list(payloads)

    return runner


async def turns_until(condition, turns=50):
    """Yield to the event loop until ``condition()`` holds.

    Counts loop turns, not seconds, so a stalled machine cannot fail it;
    a batcher that sleeps on a timer before dispatching never gets there.
    """
    for _ in range(turns):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"condition not reached within {turns} loop turns")


def run_gated(main):
    """Run ``main(gate)``; the gate opens afterwards even on failure."""
    gate = threading.Event()
    try:
        return run(main(gate))
    finally:
        gate.set()


def test_size_trigger_coalesces_exactly_max_batch():
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=4
        )
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("lane", index, 1) for index in range(6)]
        )
        results = await asyncio.gather(*tasks)
        await hold
        await batcher.close()
        return results

    results = run_gated(main)
    # Six queued circuits leave as a full batch of four, then the rest.
    assert [payloads for _, payloads in batches] == [
        ["hold"], [0, 1, 2, 3], [4, 5],
    ]
    assert results == [("lane", index) for index in range(6)]


def test_trigger_choice_does_not_change_results():
    """Small and large ``max_batch`` answer identically (only batch
    composition differs) — the daemon's latency/throughput knob must
    never be a correctness knob."""

    def answers(max_batch):
        batches = []

        async def main(gate):
            batcher = DynamicBatcher(
                gated(echo_runner(batches), gate), max_batch=max_batch
            )
            hold, tasks = await behind_a_running_batch(
                batcher, gate, [("lane", index, 1) for index in range(6)]
            )
            results = await asyncio.gather(*tasks)
            await hold
            await batcher.close()
            return results

        return run_gated(main), len(batches)

    (small, small_batches), (large, large_batches) = answers(2), answers(100)
    assert (small_batches, large_batches) == (4, 2)
    assert small == large


def test_lanes_never_share_a_batch():
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=100
        )
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("a", 1, 1), ("b", 2, 1), ("a", 3, 1)]
        )
        await asyncio.gather(hold, *tasks)
        await batcher.close()

    run_gated(main)
    assert batches == [("hold", ["hold"]), ("a", [1, 3]), ("b", [2])]


def test_oldest_lane_head_dispatches_first():
    """The next batch is the lane whose head request is oldest, even when
    a younger lane already holds a full ``max_batch``."""
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=2
        )
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("b", "old", 1), ("a", 0, 1), ("a", 1, 1)]
        )
        await asyncio.gather(hold, *tasks)
        await batcher.close()

    run_gated(main)
    assert batches == [("hold", ["hold"]), ("b", ["old"]), ("a", [0, 1])]


def test_weight_counts_circuits_not_requests():
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=4
        )
        hold, tasks = await behind_a_running_batch(
            batcher, gate,
            [("lane", "two", 2), ("lane", "one", 1), ("lane", "uno", 1),
             ("lane", "next", 1)],
        )
        await asyncio.gather(hold, *tasks)
        await batcher.close()

    run_gated(main)
    assert [payloads for _, payloads in batches] == [
        ["hold"], ["two", "one", "uno"], ["next"],
    ]


def test_oversized_request_dispatches_alone():
    batches = []

    async def main():
        batcher = DynamicBatcher(echo_runner(batches), max_batch=2)
        await batcher.start()
        result = await batcher.submit("lane", "big", weight=5)
        await batcher.close()
        return result

    assert run(main()) == ("lane", "big")
    assert [payloads for _, payloads in batches] == [["big"]]


def test_backlog_full_rejects_without_touching_queued_work():
    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(), gate), max_batch=100, max_queue=2
        )
        hold = asyncio.create_task(batcher.submit("hold", "hold"))
        await wait_until(lambda: batcher.snapshot().in_flight == 1)
        queued = [
            asyncio.create_task(batcher.submit("lane", index))
            for index in range(2)
        ]
        await wait_until(lambda: batcher.snapshot().queue_depth == 2)
        with pytest.raises(BacklogFull):
            await batcher.submit("lane", 99)
        gate.set()
        await hold
        await batcher.close()  # drains the two queued requests
        return await asyncio.gather(*queued), batcher.snapshot()

    results, stats = run_gated(main)
    assert results == [("lane", 0), ("lane", 1)]
    assert stats.rejected_total == 1
    assert stats.requests_total == 3


def test_submit_after_close_raises_closed():
    async def main():
        batcher = DynamicBatcher(echo_runner())
        await batcher.start()
        await batcher.close()
        with pytest.raises(BatcherClosed):
            await batcher.submit("lane", 1)
        return batcher.snapshot()

    assert run(main()).rejected_total == 1


def test_drain_answers_every_queued_request_exactly_once():
    """close() runs everything queued when it is called: nothing is
    dropped or duplicated, across multiple lanes."""
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=100
        )
        hold = asyncio.create_task(batcher.submit("hold", "hold"))
        await wait_until(lambda: batcher.snapshot().in_flight == 1)
        tasks = [
            asyncio.create_task(batcher.submit(index % 3, index))
            for index in range(9)
        ]
        await wait_until(lambda: batcher.snapshot().requests_waiting == 9)
        closing = asyncio.create_task(batcher.close())
        await wait_until(lambda: batcher.closing)
        gate.set()
        await closing
        await hold
        return await asyncio.gather(*tasks)

    results = run_gated(main)
    assert results == [(index % 3, index) for index in range(9)]
    served = [
        payload for key, payloads in batches if key != "hold"
        for payload in payloads
    ]
    assert sorted(served) == list(range(9))  # exactly once each


def test_runner_exception_propagates_to_every_request():
    def broken(key, payloads, timings):
        raise RuntimeError("pipeline exploded")

    async def main(gate):
        batcher = DynamicBatcher(gated(broken, gate), max_batch=2)
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("lane", 1, 1), ("lane", 2, 1)]
        )
        results = await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.gather(hold, return_exceptions=True)
        await batcher.close()
        return results

    results = run_gated(main)
    assert all(isinstance(result, RuntimeError) for result in results)


def test_wrong_result_count_is_an_error_not_a_misdelivery():
    def short(key, payloads, timings):
        return payloads[:-1]

    async def main(gate):
        batcher = DynamicBatcher(gated(short, gate), max_batch=2)
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("lane", 1, 1), ("lane", 2, 1)]
        )
        results = await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.gather(hold, return_exceptions=True)
        await batcher.close()
        return results

    results = run_gated(main)
    assert all(isinstance(result, RuntimeError) for result in results)
    assert all("2 requests" in str(result) for result in results)


def test_cancelled_awaiter_does_not_break_the_batch():
    """A per-request timeout cancels one awaiter; everyone else queued
    with it still gets their answer."""
    batches = []

    async def main(gate):
        batcher = DynamicBatcher(
            gated(echo_runner(batches), gate), max_batch=100
        )
        hold = asyncio.create_task(batcher.submit("hold", "hold"))
        await wait_until(lambda: batcher.snapshot().in_flight == 1)
        doomed = asyncio.create_task(
            asyncio.wait_for(batcher.submit("lane", "slow"), timeout=0.01)
        )
        survivor = asyncio.create_task(batcher.submit("lane", "ok"))
        await asyncio.gather(doomed, return_exceptions=True)
        gate.set()
        results = await asyncio.gather(doomed, survivor, return_exceptions=True)
        await hold
        await batcher.close()
        return results

    doomed_result, survivor_result = run_gated(main)
    assert isinstance(doomed_result, asyncio.TimeoutError)
    assert survivor_result == ("lane", "ok")
    assert batches == [("hold", ["hold"]), ("lane", ["ok"])]


def test_snapshot_counters_and_stage_timings():
    def timed(key, payloads, timings):
        timings["stage_s"] = timings.get("stage_s", 0.0) + 0.5
        return list(payloads)

    async def main(gate):
        batcher = DynamicBatcher(gated(timed, gate), max_batch=2)
        hold, tasks = await behind_a_running_batch(
            batcher, gate, [("lane", index, 1) for index in range(4)]
        )
        await asyncio.gather(hold, *tasks)
        await batcher.close()
        return batcher.snapshot()

    stats = run_gated(main)
    assert stats.batches_total == 3
    assert stats.requests_total == 5
    assert stats.batch_size_histogram == {1: 1, 2: 2}
    assert stats.queue_depth == 0
    assert stats.in_flight == 0
    assert stats.queue_wait_s_total >= 0.0
    assert stats.stage_s == {"stage_s": 1.5}


def test_constructor_and_submit_validation():
    with pytest.raises(ValueError, match="max_batch"):
        DynamicBatcher(echo_runner(), max_batch=0)
    with pytest.raises(ValueError, match="max_queue"):
        DynamicBatcher(echo_runner(), max_queue=0)

    async def main():
        batcher = DynamicBatcher(echo_runner())
        with pytest.raises(ValueError, match="weight"):
            await batcher.submit("lane", 1, weight=0)
        await batcher.close()

    run(main())


def test_idle_runner_dispatches_at_once_and_queued_requests_coalesce():
    """Work-conserving default: a lone request never waits for a partner,
    and requests that queue behind a running batch share the next one."""
    batches = []
    gate = threading.Event()

    async def main():
        loop = asyncio.get_running_loop()
        batcher = DynamicBatcher(gated_runner(batches, gate))
        await batcher.start()
        submitted = loop.time()
        first = asyncio.create_task(batcher.submit("lane", "A"))
        await turns_until(lambda: batcher.snapshot().in_flight == 1)
        reached = loop.time() - submitted
        await wait_until(lambda: batches == [["A"]])
        rest = [
            asyncio.create_task(batcher.submit("lane", payload))
            for payload in ("B", "C")
        ]
        await wait_until(lambda: batcher.snapshot().requests_waiting == 2)
        gate.set()
        await first
        after_first = batcher.snapshot()
        results = await asyncio.gather(*rest)
        await batcher.close()
        return after_first, results, reached

    try:
        after_first, results, reached = run(main())
    finally:
        gate.set()
    assert after_first.batches_total == 1
    # A's recorded wait is the few loop turns above, never a deadline.
    assert after_first.queue_wait_s_max <= reached
    assert results == ["B", "C"]
    assert batches == [["A"], ["B", "C"]]


def test_timed_out_queued_request_is_never_computed():
    """A request whose awaiter gave up while queued (the daemon's 504)
    is dropped at dispatch and its weight leaves ``queue_depth``."""
    batches = []
    gate = threading.Event()

    async def main():
        batcher = DynamicBatcher(gated_runner(batches, gate))
        await batcher.start()
        first = asyncio.create_task(batcher.submit("lane", "A"))
        await wait_until(lambda: batches == [["A"]])
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(
                batcher.submit("lane", "B", weight=2), timeout=0.01
            )
        last = asyncio.create_task(batcher.submit("lane", "C"))
        await wait_until(lambda: batcher.snapshot().requests_waiting == 2)
        gate.set()
        results = await asyncio.gather(first, last)
        await batcher.close()
        return results, batcher.snapshot()

    try:
        results, stats = run(main())
    finally:
        gate.set()
    assert results == ["A", "C"]
    assert batches == [["A"], ["C"]]
    assert stats.queue_depth == 0
    assert stats.requests_waiting == 0
    assert stats.batches_total == 2


def test_batch_of_only_abandoned_requests_is_not_run():
    batches = []
    gate = threading.Event()

    async def main():
        batcher = DynamicBatcher(gated_runner(batches, gate))
        await batcher.start()
        first = asyncio.create_task(batcher.submit("lane", "A"))
        await wait_until(lambda: batches == [["A"]])
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(batcher.submit("other", "B"), timeout=0.01)
        gate.set()
        await first
        await batcher.close()
        return batcher.snapshot()

    try:
        stats = run(main())
    finally:
        gate.set()
    assert batches == [["A"]]
    assert stats.batches_total == 1
    assert stats.queue_depth == 0
