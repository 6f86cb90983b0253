"""The serving daemon: one stdlib-only asyncio HTTP front end, two backends.

:class:`ServingDaemon` speaks a deliberately small slice of HTTP/1.1
over asyncio streams — no third-party web framework, per the repo's
numpy-only runtime rule.  The front end owns everything both modes
share: the listener, request framing and size limits, routing and
method checks, the draining check, request/response counters, and
:func:`parse_predict_payload`.  Each endpoint then makes one call to a
backend, chosen once in ``__init__``:

* **In-process** (``ServerConfig.shards == 1``, the default):
  :class:`_InProcess` owns a :class:`~repro.serving.registry.
  ModelRegistry` (loaded once) and a :class:`~repro.serving.batcher.
  DynamicBatcher` and computes every batch in this process.
* **Sharded** (``shards > 1``, or ``0`` = one per CPU): a
  :class:`~repro.serving.shards.ShardManager` relays every ``/predict``
  / ``/foms`` request over a keep-alive loopback socket to one of N
  spawn-based worker processes, each an in-process daemon of its own,
  and folds the workers' ``/healthz``, ``/stats`` and ``/reload``
  reports into one.  Worker responses are relayed byte-for-byte, so
  sharded responses are identical to the in-process daemon's.

Endpoints (all JSON):

* ``POST /predict`` — ``{"circuits": [qasm, ...], "model"?, "fingerprint"?,
  "optimization_level"?}`` → ``{"predictions": [...], "model":,
  "fingerprint":}``.  A request whose every circuit is warm (its whole
  compile and feature row cached, see
  :meth:`~repro.predictor.service.FomService.predict_warm`) is answered
  on the event loop.  Other requests coalesce into dynamic batches;
  responses are bit-identical to a direct
  :meth:`~repro.predictor.service.FomService.predict` call on the same
  inputs (request-local compile-seed positions).  With ``"stream": true``
  (and optional ``"chunk_size"``) the response is HTTP/1.1 chunked
  transfer: one NDJSON line per pipeline chunk riding
  :meth:`~repro.predictor.service.FomService.predict_stream`, so
  corpus-sized requests never buffer a whole response in any process.
* ``POST /foms`` — same request shape → the paper's full Table-I panel
  (four established figures of merit + the proposed estimator) under
  ``"foms"``.  Streaming is ``/predict``-only.
* ``GET /healthz`` — 200 ``{"status": "serving", ...}`` while accepting
  work, 503 ``{"status": "draining"}`` once shutdown has begun.  A shard
  pool adds a ``"shards"`` section (live/degraded, per-worker pids).
* ``GET /stats`` — queue depth, batch-size histogram, warm answers,
  per-stage latency totals, request-latency percentiles, response
  counters, and the currently-serving model fingerprints + reload
  counters.  A shard pool merges its workers' reports: counters and
  histograms sum, and percentiles are nearest-rank over the *union* of
  the per-shard latency reservoirs (averaging per-shard percentiles
  would be wrong).
* ``POST /reload`` — re-check every model source
  (:meth:`~repro.serving.registry.ModelRegistry.refresh`) and hot-swap
  changed estimators without dropping a request; a shard pool
  broadcasts to every worker.  With ``ServerConfig.reload_interval > 0``
  every registry — the daemon's own, or each worker's — also polls on
  its own: a cheap ``(size, mtime_ns)`` / store-scan guard each tick,
  the full rehash+reload only when something moved.  In-flight batches
  finish on the model they resolved; post-swap responses are
  bit-identical to a freshly restarted daemon (see docs/drift.md for
  the contract).

Operational behavior:

* **Backpressure** — a bounded queue; when full, new work is rejected
  with 503 instead of queueing unbounded latency.
* **Per-request timeout** — a request that waits longer than
  ``request_timeout`` gets 504; the batch it joined still completes for
  everyone else.
* **Failures are answered** — QASM the reader rejects, or a circuit
  wider than the served device, gets 400 before it is queued; a batch
  that raises answers 500 to every request coalesced into it.
* **Graceful shutdown** — on SIGTERM/SIGINT the daemon stops accepting
  (503), drains every in-flight and queued batch (each queued request
  is answered exactly once, streams run to their terminator), then —
  sharded — SIGTERMs every worker and reaps them all before the
  listener closes and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..circuits.qasm import from_qasm
from ..fom.metrics import PROPOSED_LABEL
from .batcher import BacklogFull, BatcherClosed, DynamicBatcher
from .registry import ModelRegistry, ModelSource, check_source

__all__ = [
    "CHUNK_TERMINATOR",
    "DaemonThread",
    "ParsedPredict",
    "ServerConfig",
    "ServingDaemon",
    "STREAM_CONTENT_TYPE",
    "http_head",
    "json_chunk",
    "nearest_rank",
    "parse_predict_payload",
]

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 100

#: Streamed responses are newline-delimited JSON riding chunked transfer.
STREAM_CONTENT_TYPE = "application/x-ndjson"

#: The zero-length chunk that ends an HTTP/1.1 chunked body.
CHUNK_TERMINATOR = b"0\r\n\r\n"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def http_head(
    status: int,
    *,
    close: bool,
    content_length: Optional[int] = None,
    chunked: bool = False,
    content_type: str = "application/json",
) -> bytes:
    """One response head, byte-identical across daemon modes.

    The shard relay builds its client-facing head through this same
    function, which is what makes a dispatcher's responses match the
    single-process daemon's down to header order.
    """
    reason = _REASONS.get(status, "Error")
    framing = (
        "Transfer-Encoding: chunked"
        if chunked
        else f"Content-Length: {content_length}"
    )
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    ).encode("latin-1")


def json_chunk(payload: Dict[str, Any]) -> bytes:
    """One NDJSON line wrapped in HTTP chunk framing (size line + CRLF)."""
    data = (json.dumps(payload) + "\n").encode()
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def nearest_rank(ordered: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sample.

    The smallest sample with cumulative frequency >= ``fraction``, i.e.
    ``ordered[ceil(f * n) - 1]``.  (A plain ``int(f * n)`` indexes one
    rank high whenever ``f * n`` is an integer — with n=2 samples, p50
    would return the *larger* one.)  This is also the merge rule for
    sharded stats: nearest-rank over the union of per-shard reservoirs,
    never an average of per-shard percentiles.
    """
    if not ordered:
        return None
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, rank - 1)]


@dataclass
class ServerConfig:
    """Network + batching knobs of one daemon."""

    host: str = "127.0.0.1"
    port: int = 8377                  # 0 = pick a free port (tests)
    max_batch: int = 64               # most circuits in one dynamic batch
    queue_limit: int = 1024           # circuits waiting before 503
    request_timeout: float = 60.0     # seconds before a request gets 504
    max_body_bytes: int = 64 * 1024 * 1024
    max_workers: int = 1              # pipeline workers per batch
    latency_window: int = 2048        # request-latency samples kept for /stats
    reload_interval: float = 0.0      # seconds between auto model-refresh
                                      # probes (0 = only explicit /reload)
    shards: int = 1                   # worker processes (1 = in-process,
                                      # 0 = one per CPU)

    def __post_init__(self):
        # A non-positive timeout would answer every batched request 504.
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.reload_interval < 0:
            raise ValueError(
                "reload_interval must be non-negative (0 = only explicit "
                f"/reload), got {self.reload_interval}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}"
            )


class ParsedPredict(NamedTuple):
    """A validated ``/predict`` / ``/foms`` body, before QASM parsing."""

    qasm: List[str]
    model: Optional[str]
    fingerprint: Optional[str]
    level: Optional[int]
    stream: bool
    chunk_size: Optional[int]


def parse_predict_payload(
    body: bytes, want_foms: bool
) -> Tuple[Optional[Tuple[int, Dict[str, Any]]], Optional[ParsedPredict]]:
    """Validate a predict body; returns ``(error_response, parsed)``.

    The front end calls it once, before either backend sees the body,
    so a shard pool's 400s are byte-identical to the in-process daemon's.
    """
    try:
        payload = json.loads(body.decode() or "null")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return (400, {"error": f"request body is not valid JSON: {exc}"}), None
    if not isinstance(payload, dict):
        return (400, {"error": "request body must be a JSON object"}), None
    qasm_list = payload.get("circuits")
    if (
        not isinstance(qasm_list, list)
        or not qasm_list
        or not all(isinstance(entry, str) for entry in qasm_list)
    ):
        return (
            400,
            {"error": "'circuits' must be a non-empty list of QASM strings"},
        ), None
    level = payload.get("optimization_level")
    if level is not None and (
        not isinstance(level, int) or not 0 <= level <= 3
    ):
        return (400, {"error": "'optimization_level' must be 0..3"}), None
    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        return (400, {"error": "'stream' must be a boolean"}), None
    if stream and want_foms:
        return (
            400,
            {"error": "streaming is supported on /predict only, not /foms"},
        ), None
    chunk_size = payload.get("chunk_size")
    if chunk_size is not None:
        if not stream:
            return (
                400,
                {"error": "'chunk_size' applies only to streaming requests"},
            ), None
        if (
            isinstance(chunk_size, bool)
            or not isinstance(chunk_size, int)
            or chunk_size < 1
        ):
            return (
                400,
                {"error": "'chunk_size' must be a positive integer"},
            ), None
    model = payload.get("model")
    fingerprint = payload.get("fingerprint")
    return None, ParsedPredict(
        qasm_list, model, fingerprint, level, stream, chunk_size
    )


class _BadRequest(Exception):
    """Malformed HTTP framing; the connection is answered 400 and closed."""


#: The 503 body for work that arrives after a drain began.
_DRAINING = {"error": "draining; not accepting new work"}


class RawResponse(NamedTuple):
    """A fully-formed body relayed verbatim (shard responses)."""

    status: int
    body: bytes
    content_type: str = "application/json"


class StreamResponse(NamedTuple):
    """A chunked response written incrementally by ``write(writer, close)``."""

    status: int
    write: Callable[[asyncio.StreamWriter, bool], Awaitable[None]]


class ServingDaemon:
    """A long-lived predict server over a model registry.

    Construct with the :class:`~repro.serving.registry.ModelSource`
    records to serve — in-process the daemon builds its registry from
    them; sharded, each worker process builds its own — then either
    ``await start()`` / ``await stop()`` from an event loop (tests), use
    :class:`DaemonThread` from synchronous code, or call
    :meth:`serve_forever` as the process main (the CLI path — installs
    SIGTERM/SIGINT handlers for graceful drain).

    The constructor picks the backend — :class:`_InProcess` or a
    :class:`~repro.serving.shards.ShardManager` — and nothing after it
    asks which one it got.  Both answer the same calls: ``start``,
    ``drain``, ``banner``, ``health``, ``poll_stats``/``stats``,
    ``reload`` and ``predict``.
    """

    def __init__(
        self,
        sources: Sequence[ModelSource],
        config: Optional[ServerConfig] = None,
    ):
        from .shards import ShardManager, resolve_shards

        self.config = config or ServerConfig()
        sources = tuple(sources)
        if not sources:
            raise ValueError("cannot serve an empty model registry")
        shard_count = resolve_shards(self.config.shards)
        self.registry: Optional[ModelRegistry] = None
        if shard_count > 1:
            for source in sources:
                check_source(source)  # fail fast, before any worker boots
            self._backend = ShardManager(sources, self.config, shard_count)
        else:
            self.registry = ModelRegistry.from_sources(sources)
            self._backend = _InProcess(self)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.StreamWriter]" = set()
        self._handler_tasks: "set[asyncio.Task]" = set()
        self._draining = False
        self._active_requests = 0
        self._idle: Optional[asyncio.Event] = None   # created on the loop
        self._started_at: Optional[float] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # Counters (event-loop-only mutation).
        self._requests: Dict[str, int] = {}
        self._responses: Dict[int, int] = {}
        # Request latencies of in-process batches and streams; a shard
        # pool reports its workers' reservoirs instead.
        self._latencies: "deque[float]" = deque(
            maxlen=self.config.latency_window
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the backend, then bind the listener."""
        if self._server is not None:
            return
        self._idle = asyncio.Event()
        self._idle.set()
        await self._backend.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = asyncio.get_running_loop().time()

    def begin_drain(self) -> None:
        """Stop accepting new work (503) while queued requests finish."""
        self._draining = True

    async def stop(self) -> None:
        """Graceful shutdown: drain, close listener + connections.

        Every request queued before the call is answered exactly once
        (streams run to their terminator); requests arriving after it
        get 503.  Sharded: workers are SIGTERMed only after in-flight
        relays finish, and the call returns only after every worker
        process is reaped.
        """
        self.begin_drain()
        await self._backend.drain(self._until_idle)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        # Reap handler tasks (idle keep-alive readers wake on the close
        # above) so loop teardown never cancels a live task mid-read.
        pending = [
            task for task in self._handler_tasks if not task.done()
        ]
        if pending:
            done, still_pending = await asyncio.wait(pending, timeout=5)
            for task in still_pending:  # pragma: no cover - defensive
                task.cancel()
            if still_pending:  # pragma: no cover - defensive
                await asyncio.wait(still_pending, timeout=5)

    async def _until_idle(self) -> None:
        """Wait until no handler is mid-request (responses written)."""
        if self._idle is not None:
            await self._idle.wait()

    async def serve_forever(self) -> None:
        """Run as the process main: start, announce, drain on SIGTERM/SIGINT."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop_signal = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_signal.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        print(
            f"repro-serve listening on http://{self.host}:{self.port} "
            f"(pid {os.getpid()}; {self._backend.banner()})",
            flush=True,
        )
        await stop_signal.wait()
        print("repro-serve draining (SIGTERM/SIGINT received)", flush=True)
        await self.stop()
        print("repro-serve drained; exiting", flush=True)

    # ------------------------------------------------------------------
    # The batch runner (worker thread; in-process mode only)
    # ------------------------------------------------------------------

    def _run_batch(
        self,
        key: Tuple[str, str, int, bool],
        payloads: List[List],
        timings: Dict[str, float],
    ) -> List[Dict[str, Any]]:
        """Run one coalesced batch through the FomService pipeline.

        ``key`` pins (model name, fingerprint, optimization level,
        panel?), so every payload in the batch is computed identically.
        Positions restart at 0 for each payload: that is what makes the
        merged batch bit-identical to serving each request alone.
        """
        name, fingerprint, level, want_foms = key
        entry = self.registry.resolve(name, fingerprint)
        circuits: List = []
        positions: List[int] = []
        for payload in payloads:
            circuits.extend(payload)
            positions.extend(range(len(payload)))
        predictions, foms = entry.service.predict_at(
            circuits,
            positions=positions,
            optimization_level=level,
            max_workers=self.config.max_workers,
            want_foms=want_foms,
            timings=timings,
        )
        results: List[Dict[str, Any]] = []
        offset = 0
        for payload in payloads:
            count = len(payload)
            result: Dict[str, Any] = {
                "predictions": predictions[offset:offset + count].tolist(),
            }
            if want_foms:
                result["foms"] = {
                    label: values[offset:offset + count].tolist()
                    for label, values in foms.items()
                }
            results.append(result)
            offset += count
        return results

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write(
                        writer, 400, json.dumps({"error": str(exc)}).encode(),
                        close=True,
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                self._active_requests += 1
                self._idle.clear()
                try:
                    result = await self._route(method, target, body)
                    if isinstance(result, StreamResponse):
                        self._count_response(result.status)
                        await result.write(writer, not keep_alive)
                    elif isinstance(result, RawResponse):
                        await self._write(
                            writer, result.status, result.body,
                            close=not keep_alive,
                            content_type=result.content_type,
                        )
                    else:
                        status, payload = result
                        await self._write(
                            writer, status, json.dumps(payload).encode(),
                            close=not keep_alive,
                        )
                finally:
                    self._active_requests -= 1
                    if self._active_requests == 0:
                        self._idle.set()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:  # pragma: no cover - teardown path
            pass  # loop teardown; the connection is closed below
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One HTTP/1.1 request, or ``None`` on a clean EOF between requests."""
        try:
            line = await reader.readline()
        except ValueError:
            raise _BadRequest("request line too long") from None
        if not line:
            return None
        line = line.strip().decode("latin-1", "replace")
        if len(line) > _MAX_REQUEST_LINE:
            raise _BadRequest("request line too long")
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {line[:80]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1", "replace").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header: {raw[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _BadRequest("bad content-length") from None
            if length < 0 or length > self.config.max_body_bytes:
                raise _BadRequest(
                    f"body too large ({length} > "
                    f"{self.config.max_body_bytes} bytes)"
                )
            body = await reader.readexactly(length)
        elif headers.get("transfer-encoding"):
            raise _BadRequest("chunked transfer encoding is not supported")
        return method, target, headers, body

    def _count_response(self, status: int) -> None:
        self._responses[status] = self._responses.get(status, 0) + 1

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        close: bool,
        content_type: str = "application/json",
    ) -> None:
        self._count_response(status)
        head = http_head(
            status,
            close=close,
            content_length=len(body),
            content_type=content_type,
        )
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes):
        path = target.split("?", 1)[0]
        self._requests[path] = self._requests.get(path, 0) + 1
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return await self._healthz()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self._stats(await self._backend.poll_stats())
        if path == "/reload":
            if method != "POST":
                return 405, {"error": "reload is POST-only"}
            return await self._reload()
        if path in ("/predict", "/foms"):
            if method != "POST":
                return 405, {"error": f"{path} is POST-only"}
            return await self._predict(body, want_foms=path == "/foms")
        return 404, {
            "error": f"unknown path {path!r}; "
            "endpoints: /predict /foms /healthz /stats /reload"
        }

    async def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        status, sections = await self._backend.health()
        code = 200
        if self._draining:
            status, code = "draining", 503
        return code, {
            "status": status,
            **sections,
            "batch": {
                "max_batch": self.config.max_batch,
                "queue_limit": self.config.queue_limit,
                "request_timeout_s": self.config.request_timeout,
            },
        }

    def _stats(self, polled=None) -> Dict[str, Any]:
        """The ``/stats`` body: this front end's counters, then the
        backend's sections folded from ``polled`` (what its
        ``poll_stats`` fetched; the in-process backend fetches nothing,
        so a bare call works there)."""
        loop = asyncio.get_running_loop()
        return {
            "uptime_s": (
                loop.time() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "draining": self._draining,
            "requests": dict(self._requests),
            "responses": {
                str(status): count
                for status, count in sorted(self._responses.items())
            },
            **self._backend.stats(polled),
        }

    async def _reload(self) -> Tuple[int, Dict[str, Any]]:
        if self._draining:
            return 503, _DRAINING
        return await self._backend.reload()

    async def _predict(self, body: bytes, want_foms: bool):
        if self._draining:
            return 503, _DRAINING
        error, parsed = parse_predict_payload(body, want_foms)
        if error is not None:
            return error
        return await self._backend.predict(parsed, body, want_foms)


class _InProcess:
    """The backend that computes in this process.

    It owns the daemon's registry and a :class:`DynamicBatcher` over
    :meth:`ServingDaemon._run_batch`, answers warm ``/predict`` requests
    on the event loop, streams ``predict_stream`` chunks itself, and
    polls the registry for stale model sources when
    ``reload_interval > 0``.  Every shard worker runs this backend.
    """

    def __init__(self, daemon: ServingDaemon):
        self.daemon = daemon
        self.config = daemon.config
        self.registry: ModelRegistry = daemon.registry
        self.batcher = DynamicBatcher(
            daemon._run_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.queue_limit,
        )
        self.reload_checks = 0
        self.warm_answers = 0
        self._reload_lock: Optional[asyncio.Lock] = None
        self._reload_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        await self.batcher.start()
        self._reload_lock = asyncio.Lock()
        if self.config.reload_interval > 0:
            self._reload_task = asyncio.get_running_loop().create_task(
                self._reload_loop()
            )

    async def drain(self, until_idle) -> None:
        """Stop polling, run every queued batch, then let in-flight
        handlers write their (already computed) responses — a drained
        request that never reaches the wire is still dropped."""
        if self._reload_task is not None:
            self._reload_task.cancel()
            await asyncio.gather(self._reload_task, return_exceptions=True)
        await self.batcher.close()
        await until_idle()

    def banner(self) -> str:
        return "models: " + ", ".join(
            f"{entry.name}@{entry.fingerprint}"
            for entry in self.registry.entries()
        )

    # -- hot model reload -----------------------------------------------

    async def _reload_loop(self) -> None:
        """Background poll: a cheap staleness probe each tick; the full
        rehash + reload runs only when a model source actually moved."""
        while True:
            await asyncio.sleep(self.config.reload_interval)
            if self.daemon._draining:
                continue
            self.reload_checks += 1
            try:
                if await asyncio.to_thread(self.registry.maybe_stale):
                    await self._refresh_models()
            except Exception as exc:  # noqa: BLE001 - keep serving on failure
                print(f"repro-serve model refresh failed: {exc}", flush=True)

    async def _refresh_models(self, force: bool = False):
        """Serialized registry refresh off the event loop (hash + model
        load happen in a worker thread; the install is atomic)."""
        assert self._reload_lock is not None
        async with self._reload_lock:
            return await asyncio.to_thread(self.registry.refresh, force)

    async def reload(self) -> Tuple[int, Dict[str, Any]]:
        self.reload_checks += 1
        try:
            swapped = await self._refresh_models(force=True)
        except Exception as exc:  # noqa: BLE001 - bad file must not kill serving
            return 500, {"error": f"model refresh failed: {exc}"}
        return 200, {
            "swapped": [
                {
                    "model": successor.name,
                    "fingerprint": successor.fingerprint,
                    "version": successor.version,
                    "previous_fingerprint": (
                        superseded.fingerprint
                        if superseded is not None
                        else None
                    ),
                }
                for superseded, successor in swapped
            ],
            "serving": [
                entry.describe()
                for entry in self.registry.serving_entries()
            ],
        }

    # -- reports --------------------------------------------------------

    async def health(self) -> Tuple[str, Dict[str, Any]]:
        return "serving", {
            "models": [entry.describe() for entry in self.registry.entries()],
            "reload": {
                "interval_s": self.config.reload_interval,
                "checks": self.reload_checks,
                "refreshes": self.registry.refreshes,
                "swaps": self.registry.swaps,
            },
        }

    async def poll_stats(self) -> None:
        return None

    def stats(self, polled=None) -> Dict[str, Any]:
        batch = self.batcher.snapshot()
        latencies = self.daemon._latencies
        ordered = sorted(latencies)
        return {
            "queue": {
                "depth": batch.queue_depth,
                "requests_waiting": batch.requests_waiting,
                "in_flight": batch.in_flight,
                "limit": self.config.queue_limit,
                "rejected_total": batch.rejected_total,
            },
            "batches": {
                "total": batch.batches_total,
                "requests_total": batch.requests_total,
                "warm_total": self.warm_answers,
                "size_histogram": {
                    str(size): count
                    for size, count in sorted(
                        batch.batch_size_histogram.items()
                    )
                },
            },
            "latency": {
                "request_p50_s": nearest_rank(ordered, 0.50),
                "request_p99_s": nearest_rank(ordered, 0.99),
                "request_max_s": ordered[-1] if ordered else None,
                "samples": len(ordered),
                # The raw (bounded) reservoir: what a sharded parent
                # merges before recomputing percentiles on the union.
                "reservoir": list(latencies),
                "queue_wait_s_total": batch.queue_wait_s_total,
                "queue_wait_s_max": batch.queue_wait_s_max,
                "stages_s": batch.stage_s,
            },
            "models": {
                "serving": [
                    f"{entry.name}@{entry.fingerprint}"
                    for entry in self.registry.serving_entries()
                ],
                "registered": len(self.registry),
                "reload_checks": self.reload_checks,
                "refreshes": self.registry.refreshes,
                "swaps": self.registry.swaps,
            },
        }

    # -- predict --------------------------------------------------------

    async def predict(
        self, parsed: ParsedPredict, body: bytes, want_foms: bool
    ):
        """Resolve the model, parse QASM, then answer a warm request
        here and batch (or stream) any other."""
        try:
            entry = self.registry.resolve(parsed.model, parsed.fingerprint)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        try:
            circuits = [from_qasm(qasm) for qasm in parsed.qasm]
        except Exception as exc:  # noqa: BLE001 - any parse failure is a 400
            return 400, {"error": f"bad QASM: {exc}"}
        device = entry.service.device
        for index, circuit in enumerate(circuits):
            if circuit.num_qubits > device.num_qubits:
                return 400, {
                    "error": f"circuit {index} needs {circuit.num_qubits} "
                    f"qubits; device {device.name} has {device.num_qubits}"
                }
        level = (
            entry.service.optimization_level
            if parsed.level is None
            else parsed.level
        )
        if parsed.stream:
            async def write(writer: asyncio.StreamWriter, close: bool):
                await self._write_stream(
                    writer, close, entry, circuits, level, parsed.chunk_size
                )
            return StreamResponse(200, write)
        key = (entry.name, entry.fingerprint, level, want_foms)
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            result = self._answer_warm(entry, circuits, level, want_foms)
            if result is None:
                result = await asyncio.wait_for(
                    self.batcher.submit(key, circuits, weight=len(circuits)),
                    timeout=self.config.request_timeout,
                )
        except BacklogFull as exc:
            return 503, {"error": str(exc)}
        except BatcherClosed:
            return 503, _DRAINING
        except asyncio.TimeoutError:
            return 504, {
                "error": f"request timed out after "
                f"{self.config.request_timeout}s in the batch queue"
            }
        except Exception as exc:  # noqa: BLE001 - the batch itself failed
            # Every request coalesced into the failed batch lands here,
            # and so does a warm answer that raised.
            traceback.print_exception(exc)
            return 500, {"error": f"batch failed: {exc}"}
        self.daemon._latencies.append(loop.time() - started)
        response: Dict[str, Any] = {
            "model": entry.name,
            "fingerprint": entry.fingerprint,
            "optimization_level": level,
            "count": len(circuits),
        }
        if want_foms:
            response["foms"] = {
                **result["foms"],
                PROPOSED_LABEL: result["predictions"],
            }
        else:
            response["predictions"] = result["predictions"]
        return 200, response

    def _answer_warm(
        self, entry, circuits: List, level, want_foms: bool
    ) -> Optional[Dict[str, Any]]:
        """The result of a warm ``/predict``, computed here on the loop,
        or ``None`` for a request that queues.

        The work is a few cache lookups per circuit and one forest
        predict over at most ``max_batch`` rows: less than waking the
        batcher's worker thread.
        """
        if want_foms or len(circuits) > self.config.max_batch:
            return None
        predictions = entry.service.predict_warm(circuits, level)
        if predictions is None:
            return None
        self.warm_answers += 1
        return {"predictions": predictions.tolist()}

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        close: bool,
        entry,
        circuits: List,
        level,
        chunk_size: Optional[int],
    ) -> None:
        """Stream predictions as chunked NDJSON riding ``predict_stream``.

        Bypasses the batcher: a corpus-sized request *is* its own batch,
        and global positions in ``predict_stream`` keep the bytes
        identical to a non-streamed call regardless of chunk size.
        The front end counts it as an active request, so a drain waits
        for the terminator — a stream in flight when SIGTERM lands still
        completes.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        writer.write(
            http_head(
                200, close=close, chunked=True,
                content_type=STREAM_CONTENT_TYPE,
            )
        )
        writer.write(
            json_chunk({
                "model": entry.name,
                "fingerprint": entry.fingerprint,
                "optimization_level": level,
                "count": len(circuits),
                "stream": True,
            })
        )
        await writer.drain()
        iterator = entry.service.predict_stream(
            circuits,
            optimization_level=level,
            max_workers=self.config.max_workers,
            chunk_size=chunk_size,
        )
        try:
            while True:
                part = await asyncio.to_thread(next, iterator, None)
                if part is None:
                    break
                writer.write(json_chunk({"predictions": part.tolist()}))
                await writer.drain()
        except (ConnectionError, OSError):
            raise  # client went away; nothing left to answer
        except Exception as exc:  # noqa: BLE001 - pipeline failure mid-stream
            writer.write(
                json_chunk({"error": f"stream failed: {exc}"})
                + CHUNK_TERMINATOR
            )
            await writer.drain()
            return
        self.daemon._latencies.append(loop.time() - started)
        writer.write(
            json_chunk({"done": True, "count": len(circuits)})
            + CHUNK_TERMINATOR
        )
        await writer.drain()


class DaemonThread:
    """Run a :class:`ServingDaemon` on a background event loop.

    For synchronous callers — tests, benchmarks, the smoke example:

    >>> with DaemonThread(daemon) as (host, port):
    ...     client = ServingClient(host, port)

    ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, daemon: ServingDaemon):
        self.daemon = daemon
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> Tuple[str, int]:
        self._thread.start()
        self.call(self.daemon.start())
        assert self.daemon.host is not None and self.daemon.port is not None
        return self.daemon.host, self.daemon.port

    def call(self, coroutine, timeout: float = 120.0):
        """Run a coroutine on the daemon's loop; return its result."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=timeout)

    def stop(self) -> None:
        if self._thread.is_alive():
            self.call(self.daemon.stop())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
