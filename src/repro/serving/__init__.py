"""The long-lived serving stack: registry, dynamic batcher, daemon, client.

:class:`~repro.predictor.service.FomService` batches one caller's
iterable; production traffic is many concurrent small requests.  This
package puts a network front end on that machinery:

* :mod:`repro.serving.registry` — :class:`ModelRegistry`, the daemon's
  set of (device, estimator) pairs, loaded **once** from the
  :class:`ModelSource` records it is given (model files or an
  :class:`~repro.evaluation.artifacts.ArtifactStore`) and addressed by
  name and/or fingerprint.
* :mod:`repro.serving.batcher` — :class:`DynamicBatcher`, which
  coalesces concurrent requests into work-conserving batches of at most
  ``max_batch`` circuits, with a bounded queue (backpressure) and an
  orderly drain.
* :mod:`repro.serving.server` — :class:`ServingDaemon`, a stdlib-only
  asyncio HTTP daemon exposing ``/predict``, ``/foms``, ``/healthz``,
  ``/stats`` and ``/reload``, with per-request timeouts, chunked
  streaming responses, and graceful SIGTERM shutdown.  A ``/predict``
  whose circuits are all warm in the compile cache is answered on the
  event loop, without the batcher.  It is one front
  end (framing, limits, routing, counters, payload parsing) over one of
  two backends, picked at construction: the in-process registry +
  batcher, or a shard pool.
* :mod:`repro.serving.shards` — the shard-pool backend used when
  ``shards > 1``: :class:`~repro.serving.shards.ShardManager`, the
  spawn-worker pool — one registry (built from the daemon's sources) +
  batcher + GIL per worker, consistent-hash routing, byte-for-byte
  relay, merged stats, broadcast reload, crash respawn.
* :mod:`repro.serving.client` — :class:`ServingClient`, the matching
  stdlib HTTP client (also the ``python -m repro client`` backend),
  including incremental chunked-stream decoding
  (:meth:`~repro.serving.client.ServingClient.predict_stream`).

Coalescing is *bit-exact*: a request's circuits keep the compile seeds
of their positions within that request (via
:meth:`~repro.predictor.service.FomService.predict_at`), so a response
is identical whether the request shared a dynamic batch with a thousand
others or was served alone — and, by relay, whether the daemon runs
in-process or sharded across worker processes.
"""

from .batcher import BacklogFull, BatcherClosed, DynamicBatcher
from .client import (
    PredictionStream,
    ServingClient,
    ServingError,
    StreamInterrupted,
)
from .registry import ModelEntry, ModelRegistry, ModelSource
from .server import ServerConfig, ServingDaemon
from .shards import resolve_shards, shard_for

__all__ = [
    "BacklogFull",
    "BatcherClosed",
    "DynamicBatcher",
    "ModelEntry",
    "ModelRegistry",
    "ModelSource",
    "PredictionStream",
    "ServerConfig",
    "ServingClient",
    "ServingDaemon",
    "ServingError",
    "StreamInterrupted",
    "resolve_shards",
    "shard_for",
]
