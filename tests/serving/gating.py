"""Timer-free coalescing for serving tests.

A batch runner blocked on a :class:`threading.Event` holds one batch in
flight; requests submitted meanwhile queue behind it and leave together
when the gate opens.  Which requests share a batch then follows from the
order of events, never from how long anything took.
"""

import asyncio
import time


def gated(runner, gate):
    """Wrap ``runner`` so each batch first blocks until ``gate`` opens."""

    def wrapped(key, payloads, timings):
        gate.wait(timeout=60)
        return runner(key, payloads, timings)

    return wrapped


async def wait_until(condition, timeout=10.0):
    """Poll ``condition()`` on the running event loop."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not condition():
        assert loop.time() < give_up, "condition never became true"
        await asyncio.sleep(0.001)


def wait_for(condition, timeout=60.0):
    """Poll ``condition()`` from a thread outside the daemon's loop."""
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition never became true"
        time.sleep(0.002)


async def behind_a_running_batch(
    batcher, gate, submissions, hold=("hold", "hold", 1)
):
    """Occupy ``batcher``'s gated runner with the ``hold`` request, queue
    ``submissions`` behind it, then open ``gate``.

    ``hold`` and each submission are ``(key, payload, weight)``.  Returns
    the hold task and one task per submission.
    """
    key, payload, weight = hold
    held = asyncio.create_task(batcher.submit(key, payload, weight=weight))
    await wait_until(lambda: batcher.snapshot().in_flight == weight)
    tasks = [
        asyncio.create_task(batcher.submit(key, payload, weight=weight))
        for key, payload, weight in submissions
    ]
    await wait_until(
        lambda: batcher.snapshot().requests_waiting == len(submissions)
    )
    gate.set()
    return held, tasks
