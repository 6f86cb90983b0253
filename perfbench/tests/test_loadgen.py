"""The load generator's schedule, timing rule and goodput ladder."""

import asyncio

import pytest

import loadgen
from loadgen import Outcome, RungResult


def test_poisson_schedule_is_reproducible_from_the_seed():
    first = loadgen.poisson_schedule(20.0, 5.0, seed=7)
    assert first == loadgen.poisson_schedule(20.0, 5.0, seed=7)
    assert first != loadgen.poisson_schedule(20.0, 5.0, seed=8)
    assert len(first) == 100
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 5.0


def test_poisson_schedule_gaps_look_exponential():
    offsets = loadgen.poisson_schedule(50.0, 200.0, seed=1)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1 / 50.0, rel=0.05)
    # Exponential gaps: about 1 - e^-1 of them are shorter than the mean.
    assert sum(gap < mean for gap in gaps) / len(gaps) == pytest.approx(0.632, abs=0.03)


async def _read_request(reader):
    if not await reader.readline():
        raise ConnectionError("client closed")
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    await reader.readexactly(length)


def test_latency_counts_from_the_due_time_so_a_stall_delays_later_requests():
    async def scenario():
        answered = 0

        async def handle(reader, writer):
            nonlocal answered
            while True:
                try:
                    await _read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                answered += 1
                if answered == 1:
                    await asyncio.sleep(0.3)      # the stall
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            requests = [("/predict", b"{}")] * 3
            return await loadgen.run_rung(
                "127.0.0.1", port, requests, [0.0, 0.05, 0.10], rate=30.0,
                connections=1,
            )
        finally:
            server.close()
            await server.wait_closed()

    rung = asyncio.run(scenario())
    first, second, third = rung.latencies_ms()
    assert first >= 300.0
    # Served instantly, but due while the first was stalled: each carries
    # the rest of the stall (~250 ms and ~200 ms), not ~0 ms.
    assert second >= 240.0
    assert third >= 190.0
    assert rung.failed == 0


def _rung(latencies_ms, statuses=None, backlog=None):
    statuses = statuses or [200] * len(latencies_ms)
    outcomes = [
        Outcome(due=0.0, done=ms / 1000.0, status=status, body=b"")
        for ms, status in zip(latencies_ms, statuses)
    ]
    return RungResult(
        rate=10.0, start=0.0, outcomes=outcomes,
        late_s=[0.0] * len(outcomes),
        backlog=backlog if backlog is not None else [1] * len(outcomes),
    )


def test_rung_verdict_accepts_a_steady_rung_under_the_limit():
    assert loadgen.rung_verdict([_rung([50.0] * 120)], p90_limit_ms=100.0) == (True, "ok")


def test_rung_verdict_rejects_a_failure():
    statuses = [200] * 119 + [503]
    passed, reason = loadgen.rung_verdict(
        [_rung([50.0] * 120, statuses)], p90_limit_ms=100.0
    )
    assert not passed and "failed" in reason


def test_rung_verdict_rejects_a_growing_backlog():
    growing = list(range(60))
    passed, reason = loadgen.rung_verdict(
        [_rung([50.0] * 60), _rung([50.0] * 60, backlog=growing)], p90_limit_ms=100.0
    )
    assert (passed, reason) == (False, "backlog grows")


def test_rung_verdict_rejects_a_p90_over_the_limit_and_thin_tails():
    assert not loadgen.rung_verdict([_rung([150.0] * 120)], 100.0)[0]
    passed, reason = loadgen.rung_verdict([_rung([50.0] * 50), _rung([50.0] * 49)], 100.0)
    assert not passed and "10 samples beyond" in reason


def test_backlog_that_fluctuates_does_not_count_as_growth():
    noisy = [0, 2, 1, 5, 0, 1, 3, 0, 9, 1] * 12
    assert not loadgen.backlog_grows(noisy)
    assert loadgen.backlog_grows([n // 4 for n in range(120)])


def test_segments_pool_into_one_step():
    # 60 fast + 60 slow samples: the pooled p90 sits in the slow half.
    segments = [_rung([20.0] * 60), _rung([120.0] * 60)]
    assert not loadgen.rung_verdict(segments, 100.0)[0]
    assert loadgen.rung_verdict(segments, 150.0) == (True, "ok")
    assert loadgen.achieved_rps(segments) == pytest.approx(120 / (0.02 + 0.12))


def test_goodput_is_the_highest_passing_rung_below_the_first_failure():
    assert loadgen.goodput([(10.1, True), (20.2, True), (29.0, False)]) == 20.2
    assert loadgen.goodput([(10.1, True), (19.0, False), (30.3, True)]) == 10.1
    assert loadgen.goodput([(9.0, False)]) is None
