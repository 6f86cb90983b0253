"""Open-loop load generation against the serving daemon.

One asyncio loop drives at most ``connections`` keep-alive HTTP/1.1
connections.  Arrivals follow a seeded Poisson schedule and every
request is timed from the moment it was *due*, so a server stall shows
up in the latency of every request queued behind it (a closed loop would
hide it by sending less).  The generator's own lateness is reported
separately: it is the only part of a latency the server did not cause.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from common import nearest_rank


def poisson_schedule(rate: float, duration: float, seed: int) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process over ``duration``.

    The process is conditioned on its count, ``round(rate * duration)``:
    given the count, Poisson arrival times are independent uniforms, so
    the gaps stay exponential while every run of a rung offers exactly
    its nominal rate.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


@dataclass
class Outcome:
    due: float
    done: float
    status: Optional[int]
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class RungResult:
    rate: float
    start: float                      # monotonic time of offset 0
    outcomes: List[Outcome]
    late_s: List[float]               # generator lateness per request
    backlog: List[int]                # outstanding requests at each arrival
    end: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status != 200)

    def latencies_ms(self) -> List[float]:
        return [o.latency_ms for o in self.outcomes]


def backlog_grows(backlog: Sequence[int]) -> bool:
    """True when the outstanding-request count trends up across a rung.

    Compares the median backlog seen by the last third of arrivals with
    the first third.  A stable queue fluctuates around a level (a slow
    request briefly piles a few up); an overloaded one climbs for the
    whole rung, so its late median exceeds twice the early one plus three.
    """
    third = len(backlog) // 3
    if third < 3:
        return False
    early = statistics.median(backlog[:third])
    late = statistics.median(backlog[-third:])
    return late > 2 * early + 3


def rung_verdict(
    segments: Sequence[RungResult], p90_limit_ms: float
) -> Tuple[bool, str]:
    """Whether a rate step (one or more segments) counts towards goodput."""
    failed = sum(segment.failed for segment in segments)
    if failed:
        attempted = sum(segment.attempted for segment in segments)
        return False, f"{failed} of {attempted} requests failed"
    if any(backlog_grows(segment.backlog) for segment in segments):
        return False, "backlog grows"
    latencies = [ms for segment in segments for ms in segment.latencies_ms()]
    try:
        p90 = nearest_rank(latencies, 0.90)
    except ValueError as exc:
        return False, str(exc)
    if p90 > p90_limit_ms:
        return False, f"p90 {p90:.1f} ms > limit {p90_limit_ms:g} ms"
    return True, "ok"


def achieved_rps(segments: Sequence[RungResult]) -> float:
    """Successful responses per second over the segments' wall spans."""
    span = sum(max(o.done for o in seg.outcomes) - seg.start for seg in segments)
    return sum(seg.attempted - seg.failed for seg in segments) / span


def goodput(verdicts: Sequence[Tuple[float, bool]]) -> Optional[float]:
    """Achieved rate of the highest passing rung below the first failure.

    ``verdicts`` pairs each rung's achieved rate with its verdict, in
    ascending order of offered rate.
    """
    best = None
    for achieved, passed in verdicts:
        if not passed:
            break
        best = achieved
    return best


# ----------------------------------------------------------------------
# HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def exchange(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: bytes = b"",
) -> Tuple[int, bytes]:
    writer.write(http_request(method, path, body))
    await writer.drain()
    return await read_response(reader)


async def run_rung(
    host: str,
    port: int,
    requests: Sequence[Tuple[str, bytes]],
    offsets: Sequence[float],
    rate: float,
    connections: int,
) -> RungResult:
    """Send ``requests[i]`` (path, body) due at ``start + offsets[i]``."""
    if len(requests) != len(offsets):
        raise ValueError("one request per scheduled arrival")
    pipes = [list(await asyncio.open_connection(host, port)) for _ in range(connections)]
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(offsets)
    late: List[float] = []
    backlog: List[int] = []
    outstanding = 0
    start = time.monotonic() + 0.05

    async def generate() -> None:
        nonlocal outstanding
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.monotonic() - due))
            backlog.append(outstanding)
            outstanding += 1
            queue.put_nowait((index, due))
        for _ in pipes:
            queue.put_nowait(None)

    async def send(pipe: list) -> None:
        nonlocal outstanding
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            path, body = requests[index]
            try:
                status, payload = await exchange(*pipe, "POST", path, body)
            except (OSError, ConnectionError, asyncio.IncompleteReadError) as exc:
                status, payload = None, repr(exc).encode()
                pipe[1].close()
                pipe[:] = await asyncio.open_connection(host, port)
            outcomes[index] = Outcome(due, time.monotonic(), status, payload)
            outstanding -= 1

    try:
        await asyncio.gather(generate(), *(send(pipe) for pipe in pipes))
    finally:
        for _, writer in pipes:
            writer.close()
    return RungResult(
        rate=rate, start=start, outcomes=outcomes, late_s=late,
        backlog=backlog, end=time.monotonic(),
    )


async def get_json(host: str, port: int, path: str) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await exchange(reader, writer, "GET", path)
    finally:
        writer.close()


async def post_all(
    host: str, port: int, requests: Sequence[Tuple[str, bytes]]
) -> List[Tuple[int, bytes]]:
    """Send requests one after another on one connection (warm-up, checks)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return [
            await exchange(reader, writer, "POST", path, body)
            for path, body in requests
        ]
    finally:
        writer.close()
