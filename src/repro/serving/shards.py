"""The sharded serving backend: spawn workers, route, relay, fold reports.

One Python process serves one GIL.  To use more cores, the daemon's
front end (:class:`~repro.serving.server.ServingDaemon`) can sit over a
**shared-nothing** worker pool instead of its in-process backend:
``--shards N`` spawn-based processes, each running its *own* in-process
daemon (own :class:`~repro.serving.registry.ModelRegistry`, own
:class:`~repro.serving.batcher.DynamicBatcher`, own compile/pass caches,
own reload poll when ``reload_interval > 0``) on a loopback port.  The
front end parses and limits each request once, as it does in-process;
this backend relays the request bytes verbatim over keep-alive loopback
connections.  Because a worker *is* the in-process daemon, the response
bytes of a sharded daemon are identical to the unsharded one by
construction; the contract is pinned in ``tests/serving/test_shards.py``.

Pieces:

* The daemon's :class:`~repro.serving.registry.ModelSource` records
  (model files / artifact stores + device specs) travel to every
  worker.  Spawned workers cannot cheaply inherit a built registry
  (forests are large, and ``spawn`` pickles everything), so each worker
  builds its own from the sources — the shared-nothing property falls
  out of that.
* :func:`shard_for` — consistent lane hashing: SHA-256 of the literal
  ``(model, fingerprint, level, panel?)`` request fields, so a lane's
  compile and pass caches stay hot on one worker across requests and
  across parent restarts (process-stable, unlike ``hash()``).
* :func:`choose_shard` — the spill rule: the hashed lane owner unless
  its outstanding circuits exceed the queue limit, then round-robin to
  the next live under-limit worker (a *dead* lane owner is a 503 while
  the respawn runs — values must never silently move lanes on crash).
* :class:`ShardManager` — the backend itself.  Lifecycle: spawn + ready
  handshake over a pipe, keep-alive connection pooling, crash detection
  via the process sentinel, respawn with bounded exponential backoff
  (a worker that keeps failing to boot is retried after 1, 2, 4 … up
  to 30 s, and ``/healthz`` shows its failures and next retry), and a
  drain that reaps every
  worker before returning.  Per endpoint: ``predict`` relays (streams
  chunk-for-chunk), and ``health`` / ``stats`` / ``reload`` poll every
  worker and fold the reports — the only code that knows their shape.
* :func:`merge_shard_stats` / :func:`merge_latency_reservoirs` — the
  ``/stats`` aggregation: counters and histograms sum; percentiles are
  nearest-rank over the **union** of per-shard latency reservoirs.
  (Averaging per-shard percentiles — the naive merge — is silently
  wrong whenever shards see different load; pinned by test.)

Worker lifecycle: the parent owns a ``spawn``-context pipe to each
worker.  The worker reports ``{host, port, pid, models}`` once its
daemon is listening (or ``{error}``), then blocks a daemon thread on
``conn.recv()`` — parent death closes the pipe, which triggers the same
graceful drain as SIGTERM, so workers never outlive their parent.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import signal
import threading
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from .server import (
    CHUNK_TERMINATOR,
    STREAM_CONTENT_TYPE,
    RawResponse,
    ServerConfig,
    ServingDaemon,
    StreamResponse,
    http_head,
    json_chunk,
    nearest_rank,
)

__all__ = [
    "ShardDown",
    "ShardManager",
    "ShardReply",
    "choose_shard",
    "merge_latency_reservoirs",
    "merge_shard_stats",
    "resolve_shards",
    "shard_for",
]


def resolve_shards(shards: int) -> int:
    """``0`` = one shard per CPU; ``>= 1`` = exactly that many."""
    if shards < 0:
        raise ValueError("shards must be >= 0 (0 = one per CPU)")
    if shards == 0:
        return os.cpu_count() or 1
    return int(shards)


def shard_for(key: Tuple, count: int) -> int:
    """The lane owner for a request key, stable across processes.

    ``key`` is the literal request fields ``(model, fingerprint, level,
    panel?)`` — *not* the resolved entry (the parent holds no registry).
    SHA-256 rather than ``hash()``: Python's string hash is salted per
    process, and a lane that moves on every restart defeats the warm
    per-worker compile caches this routing exists for.
    """
    canonical = "\x1f".join(
        "\x00" if part is None else f"{type(part).__name__}:{part}"
        for part in key
    )
    digest = hashlib.sha256(canonical.encode("utf-8", "replace")).digest()
    return int.from_bytes(digest[:8], "big") % count


class ShardDown(RuntimeError):
    """The hashed lane owner is dead; answered 503 while respawn runs."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"shard {index} is down (respawn in progress); retry shortly"
        )


def choose_shard(
    primary: int,
    outstanding: List[int],
    live: List[bool],
    weight: int,
    limit: int,
) -> int:
    """The spill rule, pure and unit-testable.

    The hashed lane owner wins unless it is saturated (its outstanding
    circuits plus this request would exceed ``limit``), in which case
    the next live under-limit shard (round-robin from the owner) takes
    the overflow.  If *every* live shard is saturated the owner keeps
    the request and its own bounded queue answers 503 — the parent must
    not invent a second backpressure policy.  A dead owner raises
    :class:`ShardDown`: crashes must never silently move a lane, or
    "which worker computed this" would depend on timing.
    """
    if not live[primary]:
        raise ShardDown(primary)
    if outstanding[primary] + weight <= limit:
        return primary
    count = len(outstanding)
    for step in range(1, count):
        candidate = (primary + step) % count
        if live[candidate] and outstanding[candidate] + weight <= limit:
            return candidate
    return primary


# ----------------------------------------------------------------------
# Worker process main
# ----------------------------------------------------------------------


def _send_quietly(conn, payload: Dict[str, Any]) -> None:
    try:
        conn.send(payload)
    except (OSError, ValueError, BrokenPipeError):
        pass


def _shard_worker_main(index: int, sources, config_kwargs, conn) -> None:
    """Entry point of one spawn worker: a quiet single-process daemon.

    Module-level (spawn pickles the target by qualified name).  Reports
    ``{host, port, pid, models}`` through the pipe once listening, or
    ``{error}`` if boot fails; serves until SIGTERM/SIGINT or until the
    parent's end of the pipe closes (parent died — drain and exit, no
    orphans).

    With ``max_workers > 1`` the shard fans compile and featurize out
    over its own process pool, which a daemonic process may not start:
    the shard clears its own daemon flag (the parent's record of it stays
    daemonic, so the parent still reaps it) and shuts the pool down
    before it exits.
    """
    from ..parallel import _shutdown_pools

    multiprocessing.current_process().daemon = False
    try:
        daemon = ServingDaemon(sources, ServerConfig(**config_kwargs))
    except BaseException as exc:  # noqa: BLE001 - report, then die
        _send_quietly(conn, {"error": f"{type(exc).__name__}: {exc}"})
        raise SystemExit(1)
    try:
        asyncio.run(_worker_serve(index, daemon, conn))
    except BaseException as exc:  # noqa: BLE001
        _send_quietly(conn, {"error": f"{type(exc).__name__}: {exc}"})
        raise SystemExit(1)
    finally:
        _shutdown_pools()


async def _worker_serve(index: int, daemon, conn) -> None:
    await daemon.start()
    loop = asyncio.get_running_loop()
    stop_signal = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_signal.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass

    def watch_parent() -> None:
        # The parent never sends after the handshake; recv() returning /
        # raising means the parent's pipe end closed, i.e. it is gone.
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
        loop.call_soon_threadsafe(stop_signal.set)

    threading.Thread(
        target=watch_parent,
        name=f"repro-shard-{index}-parent-watch",
        daemon=True,
    ).start()
    conn.send({
        "host": daemon.host,
        "port": daemon.port,
        "pid": os.getpid(),
        "models": [entry.describe() for entry in daemon.registry.entries()],
    })
    await stop_signal.wait()
    # Same exactly-once drain as the single-process daemon on SIGTERM.
    await daemon.stop()


# ----------------------------------------------------------------------
# Parent-side manager
# ----------------------------------------------------------------------


class ShardReply(NamedTuple):
    """One worker response head + body.

    ``body`` is the full payload for content-length responses (the
    connection is already pooled back).  For chunked responses ``body``
    is ``None`` and ``reader``/``writer`` carry the live connection —
    the caller must relay to the terminator (:meth:`ShardManager.
    relay_stream`) or close it.
    """

    status: int
    headers: Dict[str, str]
    body: Optional[bytes]
    reader: Optional[asyncio.StreamReader]
    writer: Optional[asyncio.StreamWriter]


class _Shard:
    """One worker process plus its pooled loopback connections."""

    __slots__ = (
        "index", "process", "conn", "host", "port", "pid", "models",
        "live", "idle", "outstanding",
    )

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.models: List[Dict[str, Any]] = []
        self.live = False
        self.idle: Deque[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        self.idle = deque()
        self.outstanding = 0   # circuits relayed and not yet answered


def _format_request(method: str, path: str, body: bytes) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: shard\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    ).encode("latin-1") + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str]]:
    line = await reader.readline()
    if not line:
        raise ConnectionError("shard closed the connection")
    parts = line.decode("latin-1", "replace").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ConnectionError(f"malformed shard status line: {line[:80]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for _ in range(200):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ConnectionError("shard closed mid-headers")
        name, sep, value = raw.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    else:
        raise ConnectionError("too many shard response headers")
    return status, headers


class ShardManager:
    """The sharded backend: spawns, routes to, folds the reports of, and
    reaps the worker pool."""

    #: seconds a worker gets to build its registry and report ready
    READY_TIMEOUT = 300.0
    #: seconds before the first retry of a failed respawn; each further
    #: consecutive failure doubles the wait, up to the cap
    RESPAWN_BACKOFF = 1.0
    RESPAWN_BACKOFF_CAP = 30.0

    def __init__(self, sources: Tuple, config, count: int):
        self.sources = sources
        self.config = config
        self.count = count
        self.shards: List[Optional[_Shard]] = [None] * count
        self.crashes = 0
        self.respawns = 0
        self.spills = 0
        #: per shard: consecutive failed respawns, and the event-loop
        #: time of the next retry (``None`` when none is pending)
        self.boot_failures = [0] * count
        self.retry_at: List[Optional[float]] = [None] * count
        self._draining = False
        self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        try:
            await asyncio.gather(
                *(self._boot(index) for index in range(self.count))
            )
        except BaseException:
            await self.stop()
            raise

    async def _boot(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._launch, index)
        await self._await_ready(index)

    def _worker_config(self) -> Dict[str, Any]:
        from dataclasses import asdict

        kwargs = asdict(self.config)
        # Workers bind their own free loopback port and serve in-process;
        # with reload_interval > 0 each one polls its own registry.
        kwargs.update(host="127.0.0.1", port=0, shards=1)
        return kwargs

    def _launch(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(index, self.sources, self._worker_config(), child_conn),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.shards[index] = _Shard(index, process, parent_conn)

    @staticmethod
    def _recv_report(shard: _Shard, timeout: float) -> Dict[str, Any]:
        if not shard.conn.poll(timeout):
            return {"error": f"no ready report within {timeout}s"}
        try:
            return shard.conn.recv()
        except (EOFError, OSError):
            return {"error": "worker exited before reporting ready"}

    async def _await_ready(self, index: int) -> None:
        shard = self.shards[index]
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, self._recv_report, shard, self.READY_TIMEOUT
        )
        if "error" in report:
            raise RuntimeError(
                f"shard {index} failed to boot: {report['error']}"
            )
        shard.host = report["host"]
        shard.port = report["port"]
        shard.pid = report["pid"]
        shard.models = report["models"]
        shard.live = True
        loop.add_reader(shard.process.sentinel, self._on_exit, shard)

    def _on_exit(self, shard: _Shard) -> None:
        """Sentinel became readable: the worker process ended."""
        loop = asyncio.get_running_loop()
        # Remove the reader first or the loop spins re-firing this
        # callback on the permanently-readable sentinel.
        try:
            loop.remove_reader(shard.process.sentinel)
        except (ValueError, OSError):  # pragma: no cover - defensive
            pass
        if self.shards[shard.index] is not shard:
            return  # already superseded by a respawn
        shard.live = False
        self._discard_conns(shard)
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        shard.process.join(timeout=0)
        if self._draining:
            return
        self.crashes += 1
        print(
            f"repro-serve shard {shard.index} (pid {shard.pid}) exited "
            f"unexpectedly; respawning",
            flush=True,
        )
        loop.create_task(self._respawn(shard.index))

    async def _respawn(self, index: int) -> None:
        """Boot shard ``index`` again until it reports ready, backing off
        exponentially between failed boots."""
        loop = asyncio.get_running_loop()
        while not self._draining:
            try:
                await loop.run_in_executor(None, self._launch, index)
                await self._await_ready(index)
            except Exception as exc:  # noqa: BLE001 - keep trying
                self.boot_failures[index] += 1
                # (The exponent is bounded so that days of failures
                # cannot overflow the float.)
                doublings = min(self.boot_failures[index] - 1, 32)
                delay = min(
                    self.RESPAWN_BACKOFF * 2 ** doublings,
                    self.RESPAWN_BACKOFF_CAP,
                )
                self.retry_at[index] = loop.time() + delay
                print(
                    f"repro-serve shard {index} respawn failed: {exc}; "
                    f"retrying in {delay:g}s",
                    flush=True,
                )
                await asyncio.sleep(delay)
                continue
            self.respawns += 1
            self.boot_failures[index] = 0
            self.retry_at[index] = None
            return

    async def stop(self) -> None:
        """SIGTERM every worker, reap them all; returns only when reaped."""
        self._draining = True
        loop = asyncio.get_running_loop()
        for shard in self.shards:
            if shard is None:
                continue
            try:
                loop.remove_reader(shard.process.sentinel)
            except (ValueError, OSError):
                pass
        for shard in self.shards:
            if shard is not None and shard.process.is_alive():
                # Each worker runs the exactly-once SIGTERM drain.
                shard.process.terminate()
        for shard in self.shards:
            if shard is None:
                continue
            await loop.run_in_executor(None, shard.process.join, 30)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.kill()
                await loop.run_in_executor(None, shard.process.join, 10)
            shard.live = False
            self._discard_conns(shard)
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    async def drain(self, until_idle) -> None:
        """Let in-flight relays (including streams) finish against live
        workers, then terminate and reap every shard."""
        await until_idle()
        await self.stop()

    def banner(self) -> str:
        models = sorted({
            f"{model['name']}@{model['fingerprint']}"
            for shard in self.shards
            if shard is not None
            for model in shard.models
        })
        return f"models: {', '.join(models)}; shards: {self.count}"

    # -- routing --------------------------------------------------------

    def pick(self, key: Tuple, weight: int) -> _Shard:
        """The shard this request relays to (lane hash + spill rule)."""
        primary = shard_for(key, self.count)
        live = [s is not None and s.live for s in self.shards]
        outstanding = [
            s.outstanding if s is not None else 0 for s in self.shards
        ]
        index = choose_shard(
            primary, outstanding, live, weight, self.config.queue_limit
        )
        if index != primary:
            self.spills += 1
        shard = self.shards[index]
        if shard is None or not shard.live:  # pragma: no cover - race guard
            raise ShardDown(index)
        return shard

    def release(self, shard: _Shard, weight: int) -> None:
        shard.outstanding = max(0, shard.outstanding - weight)

    async def predict(self, parsed, body: bytes, want_foms: bool):
        """Pick a shard by lane hash; relay the request bytes verbatim."""
        key = (parsed.model, parsed.fingerprint, parsed.level, want_foms)
        weight = len(parsed.qasm)
        try:
            shard = self.pick(key, weight)
        except ShardDown as down:
            return 503, {"error": str(down)}
        shard.outstanding += weight
        path = "/foms" if want_foms else "/predict"
        try:
            reply = await self.exchange(shard, "POST", path, body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            self.release(shard, weight)
            return 503, {
                "error": f"shard {shard.index} failed mid-request: {exc}"
            }
        if reply.body is not None:
            self.release(shard, weight)
            # No parent-side latency sample: sharded /stats percentiles
            # come from the merged per-worker reservoirs.
            return RawResponse(
                reply.status,
                reply.body,
                reply.headers.get("content-type", "application/json"),
            )

        async def write(writer: asyncio.StreamWriter, close: bool):
            try:
                await self.relay_stream(shard, reply, writer, close)
            finally:
                self.release(shard, weight)

        return StreamResponse(reply.status, write)

    # -- connections ----------------------------------------------------

    def _discard_conns(self, shard: _Shard) -> None:
        while shard.idle:
            _, writer = shard.idle.popleft()
            writer.close()

    async def _borrow(
        self, shard: _Shard
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        while shard.idle:
            reader, writer = shard.idle.popleft()
            if writer.is_closing():
                continue
            return reader, writer, True
        reader, writer = await asyncio.open_connection(shard.host, shard.port)
        return reader, writer, False

    def _give_back(
        self,
        shard: _Shard,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if (
            self.shards[shard.index] is shard
            and shard.live
            and not writer.is_closing()
        ):
            shard.idle.append((reader, writer))
        else:
            writer.close()

    # -- request relay --------------------------------------------------

    async def exchange(
        self, shard: _Shard, method: str, path: str, body: bytes = b""
    ) -> ShardReply:
        """One request/response against a shard over a pooled connection.

        A send/head failure on a *pooled* connection retries once on a
        fresh one (the worker may have dropped an idle keep-alive);
        fresh-connection failures propagate — the caller answers 503.
        """
        for attempt in (0, 1):
            reader, writer, pooled = await self._borrow(shard)
            try:
                writer.write(_format_request(method, path, body))
                await writer.drain()
                status, headers = await _read_head(reader)
                break
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                writer.close()
                if not pooled or attempt:
                    raise
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return ShardReply(status, headers, None, reader, writer)
        length = int(headers.get("content-length", "0") or 0)
        try:
            data = await reader.readexactly(length) if length else b""
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            writer.close()
            raise
        if headers.get("connection", "").lower() == "close":
            writer.close()
        else:
            self._give_back(shard, reader, writer)
        return ShardReply(status, headers, data, None, None)

    async def relay_stream(
        self,
        shard: _Shard,
        reply: ShardReply,
        writer: asyncio.StreamWriter,
        close: bool,
    ) -> None:
        """Relay a chunked worker response chunk-for-chunk to the client.

        The worker's chunk framing is forwarded verbatim — same sizes,
        same bytes as the single-process daemon would have written — so
        no chunk is ever buffered whole-response in the parent.  If the
        worker dies mid-stream the client gets a well-formed error
        chunk + terminator (a stream, once started, is never silently
        restarted — that contract belongs to the client).
        """
        shard_reader, shard_writer = reply.reader, reply.writer
        writer.write(
            http_head(
                reply.status,
                close=close,
                chunked=True,
                content_type=reply.headers.get(
                    "content-type", STREAM_CONTENT_TYPE
                ),
            )
        )
        try:
            while True:
                size_line = await shard_reader.readline()
                if not size_line:
                    raise ConnectionError("shard closed mid-stream")
                size = int(size_line.strip(), 16)
                block = await shard_reader.readexactly(size + 2)
                writer.write(size_line + block)
                await writer.drain()
                if size == 0:
                    return self._give_back(shard, shard_reader, shard_writer)
        except (
            ConnectionError, asyncio.IncompleteReadError, OSError, ValueError,
        ):
            shard_writer.close()
            try:
                writer.write(
                    json_chunk(
                        {"error": f"shard {shard.index} died mid-stream"}
                    )
                    + CHUNK_TERMINATOR
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # the client is gone too

    # -- broadcast ------------------------------------------------------

    async def poll(
        self, method: str, path: str, body: bytes = b"", timeout: float = 60.0
    ) -> List[Tuple[Dict[str, Any], Optional[int], Dict[str, Any]]]:
        """The same request against every shard, concurrently.

        One ``(worker, status, payload)`` per shard: ``worker`` is a
        fresh ``{shard, alive, pid}`` dict, ``status`` the HTTP status
        (``None`` without an answer) and ``payload`` the decoded JSON
        object (``{}`` without one).  A shard that fails to answer is
        reported dead rather than failing the whole poll.
        """

        async def one(index: int):
            shard = self.shards[index]
            pid = shard.pid if shard is not None else None
            dead = ({"shard": index, "alive": False, "pid": pid}, None, {})
            if shard is None or not shard.live:
                return dead
            try:
                reply = await asyncio.wait_for(
                    self.exchange(shard, method, path, body), timeout
                )
            except (
                ConnectionError, OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ):
                return dead
            if reply.body is None:  # pragma: no cover - never chunked here
                reply.writer.close()
                return dead
            try:
                payload = json.loads(reply.body.decode() or "null")
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = None
            worker = {"shard": index, "alive": True, "pid": pid}
            return worker, reply.status, (
                payload if isinstance(payload, dict) else {}
            )

        return list(
            await asyncio.gather(*(one(i) for i in range(self.count)))
        )

    # -- folded worker reports ------------------------------------------

    async def health(self) -> Tuple[str, Dict[str, Any]]:
        """Fold every worker's ``/healthz``: per-worker liveness and
        respawn state (consecutive failed boots, seconds to the next
        retry), the first live worker's models, and summed reload
        counters.  The status is ``"degraded"`` while any worker is
        down."""
        workers: List[Dict[str, Any]] = []
        models: List[Dict[str, Any]] = []
        reload_totals = {"checks": 0, "refreshes": 0, "swaps": 0}
        now = asyncio.get_running_loop().time()
        for worker, _, payload in await self.poll("GET", "/healthz"):
            retry_at = self.retry_at[worker["shard"]]
            worker["boot_failures"] = self.boot_failures[worker["shard"]]
            worker["retry_in_s"] = (
                None if retry_at is None else round(max(0.0, retry_at - now), 3)
            )
            if worker["alive"]:
                worker["status"] = payload.get("status")
                models = models or payload.get("models", [])
                for field, value in payload.get("reload", {}).items():
                    if field in reload_totals:
                        reload_totals[field] += int(value)
            workers.append(worker)
        live = sum(worker["alive"] for worker in workers)
        return ("serving" if live == self.count else "degraded"), {
            "models": models,
            "shards": {
                "count": self.count,
                "live": live,
                "degraded": live < self.count,
                "crashes": self.crashes,
                "respawns": self.respawns,
                "workers": workers,
            },
            "reload": {
                "interval_s": self.config.reload_interval,
                **reload_totals,
            },
        }

    async def poll_stats(self):
        return await self.poll("GET", "/stats")

    def stats(self, polled) -> Dict[str, Any]:
        """Fold polled worker ``/stats`` reports (:func:`merge_shard_stats`)
        plus the first worker's model section and a per-shard summary."""
        reports = [payload for _, _, payload in polled if payload]
        merged = merge_shard_stats(reports)
        merged["queue"]["limit"] = self.config.queue_limit
        per_shard = []
        for worker, _, payload in polled:
            if payload:
                worker.update(
                    queue_depth=payload["queue"]["depth"],
                    in_flight=payload["queue"]["in_flight"],
                    requests_total=payload["batches"]["requests_total"],
                    latency_samples=payload["latency"]["samples"],
                )
            per_shard.append(worker)
        return {
            **merged,
            "models": next(
                (report["models"] for report in reports if "models" in report),
                {},
            ),
            "shards": {
                "count": self.count,
                "live": sum(worker["alive"] for worker in per_shard),
                "crashes": self.crashes,
                "respawns": self.respawns,
                "spills": self.spills,
                "per_shard": per_shard,
            },
        }

    async def reload(self) -> Tuple[int, Dict[str, Any]]:
        """Broadcast ``POST /reload`` to every live shard; fold the
        reports (500 unless every worker reloaded)."""
        swapped: List[Dict[str, Any]] = []
        serving: List[Dict[str, Any]] = []
        shard_reports: List[Dict[str, Any]] = []
        for worker, status, payload in await self.poll(
            "POST", "/reload", timeout=300.0
        ):
            index = worker["shard"]
            if status != 200:
                shard_reports.append({
                    "shard": index,
                    "ok": False,
                    "error": payload.get("error", "shard unavailable"),
                })
                continue
            shard_swaps = payload.get("swapped", [])
            shard_reports.append(
                {"shard": index, "ok": True, "swapped": len(shard_swaps)}
            )
            swapped.extend({**swap, "shard": index} for swap in shard_swaps)
            serving = serving or payload.get("serving", [])
        ok = all(report["ok"] for report in shard_reports)
        return (200 if ok else 500), {
            "swapped": swapped,
            "serving": serving,
            "shards": shard_reports,
        }


# ----------------------------------------------------------------------
# Stats merging
# ----------------------------------------------------------------------


def merge_latency_reservoirs(
    reservoirs: List[List[float]],
) -> Dict[str, Any]:
    """Percentiles over the union of per-shard latency reservoirs.

    The correct merge: pool every raw sample, sort once, take
    nearest-rank on the union.  Any scheme that combines per-shard
    *percentiles* (averaging, max, weighted means) is wrong the moment
    shards see different traffic — pinned against a flat single-sample
    computation in ``tests/serving/test_shards.py``.
    """
    union = sorted(
        float(sample) for reservoir in reservoirs for sample in reservoir
    )
    return {
        "request_p50_s": nearest_rank(union, 0.50),
        "request_p99_s": nearest_rank(union, 0.99),
        "request_max_s": union[-1] if union else None,
        "samples": len(union),
        "reservoir": union,
    }


def merge_shard_stats(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker ``/stats`` payloads into one daemon-wide view.

    Queue depths, batch and warm-answer counters, size histograms and
    stage seconds sum; queue-wait max is the max; latency percentiles
    come from :func:`merge_latency_reservoirs` on the raw reservoirs.
    """
    queue = {
        "depth": 0, "requests_waiting": 0, "in_flight": 0,
        "rejected_total": 0,
    }
    batches = {"total": 0, "requests_total": 0, "warm_total": 0}
    histogram: Dict[str, int] = {}
    stages: Dict[str, float] = {}
    reservoirs: List[List[float]] = []
    wait_total = 0.0
    wait_max = 0.0
    for report in reports:
        report_queue = report.get("queue", {})
        for field in queue:
            queue[field] += int(report_queue.get(field, 0))
        report_batches = report.get("batches", {})
        for field in batches:
            batches[field] += int(report_batches.get(field, 0))
        for size, count in report_batches.get("size_histogram", {}).items():
            histogram[size] = histogram.get(size, 0) + int(count)
        latency = report.get("latency", {})
        reservoirs.append(latency.get("reservoir", []))
        wait_total += float(latency.get("queue_wait_s_total", 0.0))
        wait_max = max(wait_max, float(latency.get("queue_wait_s_max", 0.0)))
        for stage, seconds in latency.get("stages_s", {}).items():
            stages[stage] = stages.get(stage, 0.0) + float(seconds)
    merged_latency = merge_latency_reservoirs(reservoirs)
    merged_latency["queue_wait_s_total"] = wait_total
    merged_latency["queue_wait_s_max"] = wait_max
    merged_latency["stages_s"] = stages
    batches["size_histogram"] = {
        size: histogram[size]
        for size in sorted(histogram, key=int)
    }
    return {"queue": queue, "batches": batches, "latency": merged_latency}
