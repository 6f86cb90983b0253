"""Spans around calls into the program's layers, recorded from outside it.

The program has no instrumentation of its own yet, so the traced run
installs wrappers over the module attributes the program calls through
(``repro.predictor.dataset.compile_batch``, ``Pass.run`` on every pass
class, ``repro.serving.server.from_qasm``, ...).  Each wrapper records a
span — name, start, end, parent span, request id — in memory; the
process writes its spans out once, when it ends, and :func:`ledger`
reduces them to per-layer self time, share and counts.

A span's layer is the first component of its name (``compiler``,
``simulation``, ...): the program's module that the wrapped call enters.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Set in the environment of a traced study so its pool workers (which
#: re-import the study script) install the same wrappers and dump into
#: this directory.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Spans whose self time is waiting, not work: listed per name in the
#: ledger but left out of the per-layer busy time and shares.
WAIT_SPANS = frozenset({"serving.batcher.submit"})

_parent = contextvars.ContextVar("perfbench_span", default=None)
_request = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """Spans, instant events and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: List[Tuple] = []     # (id, parent, name, start, end, request)
        self.events: List[Tuple[str, float]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, parent = next(self._ids), _parent.get()
                token = _parent.set(span)
                start = time.monotonic()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        (span, parent, name, start, time.monotonic(),
                         _request.get())
                    )
                    _parent.reset(token)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, parent = next(self._ids), _parent.get()
            token = _parent.set(span)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append(
                    (span, parent, name, start, time.monotonic(),
                     _request.get())
                )
                _parent.reset(token)
        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (module or class) by a traced wrapper."""
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original))

    def event(self, name: str) -> None:
        self.events.append((name, time.monotonic()))

    # -- output ---------------------------------------------------------

    def dump(self, directory: Path, extra: Optional[Dict] = None) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(),
            "spans": self.spans,
            "events": self.events,
            "counters": dict(self.counters),
            **(extra or {}),
        }))
        return path


def set_request(request_id) -> contextvars.Token:
    return _request.set(request_id)


# ----------------------------------------------------------------------
# Wrapper sets
# ----------------------------------------------------------------------


def _pass_classes() -> Iterable[type]:
    import repro.compiler.passes as passes_pkg  # noqa: F401 - registers passes
    from repro.compiler.passes.base import Pass

    pending = list(Pass.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__:
            yield cls


def install_common(recorder: Recorder) -> None:
    """Compiler passes, compile cache, forest, artifact store, pools."""
    import repro.parallel as parallel
    from repro.compiler.cache import CompileCache
    from repro.evaluation.artifacts import ArtifactStore
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.tree import DecisionTreeRegressor

    for cls in _pass_classes():
        recorder.patch(cls, "run", f"compiler.pass.{cls.__name__}")

    cache_get = CompileCache.get

    def counted_get(self, key):
        entry = cache_get(self, key)
        recorder.event("compiler.cache_hit" if entry is not None
                       else "compiler.cache_miss")
        return entry
    CompileCache.get = counted_get

    recorder.patch(RandomForestRegressor, "fit", "ml.forest.fit")
    recorder.patch(DecisionTreeRegressor, "fit", "ml.tree.fit")
    recorder.patch(RandomForestRegressor, "predict", "ml.forest.predict")

    recorder.patch(ArtifactStore, "get", "evaluation.artifacts.get")
    store_put = ArtifactStore.put

    def measured_put(self, *args, **kwargs):
        path = store_put(self, *args, **kwargs)
        recorder.counters["evaluation.artifacts.bytes_written"] += (
            Path(path).stat().st_size
        )
        return path
    ArtifactStore.put = recorder.wrap("evaluation.artifacts.put", measured_put)

    process_pool = parallel.ProcessPoolExecutor

    class CountedProcessPool(process_pool):
        def __init__(self, *args, **kwargs):
            recorder.event("parallel.pool")
            super().__init__(*args, **kwargs)
    parallel.ProcessPoolExecutor = CountedProcessPool


def install_study(recorder: Recorder) -> None:
    """The Table-I pipeline: dataset stages, labels, training."""
    import repro.evaluation.study as study
    import repro.predictor.dataset as dataset
    import repro.predictor.estimator as estimator
    from repro.simulation.executor import QPUExecutor

    install_common(recorder)
    recorder.patch(dataset, "compile_batch", "compiler.compile_batch")
    recorder.patch(dataset, "ideal_distributions", "simulation.ideal")
    recorder.patch(QPUExecutor, "run_batch", "simulation.execute")
    recorder.patch(dataset, "hellinger_distance", "simulation.hellinger")
    recorder.patch(dataset, "feature_vector", "fom.features")
    for metric in ("gate_count", "circuit_depth", "expected_fidelity", "esp"):
        recorder.patch(dataset, metric, "fom.metrics")
    recorder.patch(study, "train_and_evaluate", "ml.train")
    recorder.patch(estimator, "grid_search", "ml.grid_search")


def install_serving(recorder: Recorder) -> None:
    """The daemon: parse, queue, batch, compile, featurize, predict."""
    import repro.predictor.service as service
    import repro.serving.server as server
    from repro.serving.batcher import DynamicBatcher

    install_common(recorder)
    recorder.patch(server, "parse_predict_payload",
                   "serving.parse_predict_payload")
    recorder.patch(server, "from_qasm", "circuits.qasm.from_qasm")
    recorder.patch(DynamicBatcher, "submit", "serving.batcher.submit")
    recorder.patch(server.ServingDaemon, "_run_batch", "serving.batch")
    recorder.patch(service.FomService, "predict_at", "predictor.predict_at")
    recorder.patch(service, "compile_batch", "compiler.compile_batch")
    recorder.patch(service, "feature_matrix", "fom.features")
    recorder.patch(service, "expected_fidelity_batch", "fom.metrics")
    recorder.patch(service, "esp", "fom.metrics")

    traced_predict = recorder.wrap("serving.request", server.ServingDaemon._predict)
    ids = itertools.count(1)

    async def tagged_predict(self, body, want_foms):
        # The request id is set outside the span, so the request's own
        # span carries it along with every span under it.
        token = set_request(next(ids))
        try:
            return await traced_predict(self, body, want_foms)
        finally:
            _request.reset(token)
    server.ServingDaemon._predict = tagged_predict


def process_extra(role: str) -> Dict:
    """Per-process state recorded with the spans when a process ends.

    ``role`` is ``"main"`` for the process that runs the workload and
    ``"worker"`` for pool workers it spawned.
    """
    from repro.compiler.cache import compile_cache_stats

    return {"role": role, "compile_cache": compile_cache_stats()}


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------


def load_dumps(directory: Path) -> List[Dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


def self_times(
    spans: Sequence[Tuple],
    adopted: Optional[Dict[int, List[Tuple[float, float]]]] = None,
) -> Dict[int, float]:
    """Self time of each span of one process: duration minus child cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping children (threads, or pool workers'
    spans passed in as ``adopted`` intervals) are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span_id, intervals in (adopted or {}).items():
        children[span_id].extend(intervals)
    for span_id, parent, _name, start, end, _request in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _parent_id, _name, start, end, _request in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def adopt_worker_spans(main: Dict, workers: Sequence[Dict]) -> Dict[int, List]:
    """Hang pool workers' root spans under the main-process call that waited.

    A worker's top-level span (no parent in its own process) belongs to
    the innermost main-process span enclosing it in time — the batched
    call that dispatched the pool.  Returned as main span id -> intervals.
    """
    hosts = [
        tuple(span) for span in main["spans"] if span[4] - span[3] >= 0.01
    ]
    adopted: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for dump in workers:
        for _id, parent, _name, start, end, _request in dump["spans"]:
            if parent is not None:
                continue
            enclosing = [h for h in hosts if h[3] <= start and end <= h[4]]
            if enclosing:
                host = max(enclosing, key=lambda h: h[3])
                adopted[host[0]].append((start, end))
    return adopted


def _nested_in_kind(name: str, parent: Optional[int], by_id: Dict) -> bool:
    kind = name.rsplit(".", 1)[0]
    while parent is not None and parent in by_id:
        _id, parent, parent_name = by_id[parent][:3]
        if parent_name.rsplit(".", 1)[0] == kind:
            return True
    return False


def ledger(
    dumps: Sequence[Dict],
    windows: Optional[Sequence[Tuple[float, float]]] = None,
) -> Dict:
    """Per-layer and per-name self time, share and counts.

    Per name, ``outer_s`` is the time of its calls that are not nested in
    another call of the same kind (the name without its last part): a pass
    called by ``OptimizationLoop.run`` counts in the loop's ``outer_s``,
    not in its own.

    With ``windows`` (monotonic start, end pairs), only spans that start
    inside one of them and events inside one of them count — a serving
    rate step, measured in several segments.
    """

    def inside(stamp: float) -> bool:
        return windows is None or any(lo <= stamp < hi for lo, hi in windows)

    names: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
    )
    events: Counter = Counter()
    mains = [dump for dump in dumps if dump.get("role") == "main"]
    workers = [dump for dump in dumps if dump.get("role") != "main"]
    adopted = adopt_worker_spans(mains[0], workers) if len(mains) == 1 else {}
    for dump in dumps:
        spans = [tuple(span) for span in dump["spans"]]
        own = self_times(spans, adopted if dump.get("role") == "main" else None)
        by_id = {span[0]: span for span in spans}
        for span_id, parent, name, start, end, _request in spans:
            if not inside(start):
                continue
            entry = names[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own[span_id]
            if not _nested_in_kind(name, parent, by_id):
                entry["outer_s"] += end - start
        for name, stamp in dump["events"]:
            if inside(stamp):
                events[name] += 1
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0}
    )
    for name, entry in names.items():
        if name in WAIT_SPANS:
            continue
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    total = sum(layer["self_s"] for layer in layers.values()) or 1.0
    for layer in layers.values():
        layer["share"] = layer["self_s"] / total
    return {
        "layers": dict(sorted(layers.items())),
        "names": dict(sorted(names.items())),
        "events": dict(sorted(events.items())),
    }
