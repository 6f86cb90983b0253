"""Pass-level compilation cache.

Many compiler passes are pure functions of ``(circuit, pass configuration,
declared property reads)``: decomposition, the optimization loop, native
synthesis, layout selection, and routing (for a fixed seed).  The
:class:`CompileCache` memoizes their results so that repeated compilations
— level-3 trials re-running the shared pre-layout "body", warm dataset
rebuilds, seed sweeps over identical circuits — skip the pass entirely.

Keys combine three ingredients (assembled by
:class:`~repro.compiler.passes.base.PassManager`):

* the pass's :meth:`~repro.compiler.passes.base.Pass.cache_key` — its
  class plus every option that affects its output (seeds, tolerances, the
  coupling-map fingerprint),
* a content fingerprint of the input circuit (qubit/clbit counts, global
  phase, and a hash over the immutable instruction tuple), from
  :func:`~repro.circuits.circuit.circuit_cache_fingerprint`, which the
  simulator's plan and profile memos key on too,
* the frozen values of the property-set keys the pass declares it reads
  (e.g. routing reads ``initial_layout``).

A pass result, a whole compile and each candidate of a level-3 trial
set are stored alike, as a :class:`CachedPassResult`: an immutable
snapshot of the output instructions plus the metadata and property
*deltas* its pass or compile produced, so a hit rebuilds a fresh,
independently mutable circuit.  Besides pass results, four kinds of
entry live here, under tagged keys, so the knobs, the counters and the
LRU below govern them too:

* ``"compile"`` — a whole compile's output (see
  :func:`~repro.compiler.compile._compile_key`), which makes a warm
  compile one lookup;
* ``"trials"`` — a level-3 compile's candidates, a tuple of snapshots,
  keyed like the whole compile minus its calibration term, so a device
  that shares the coupling map (Q20-A and Q20-B) only re-picks the
  winner on its own reported calibration;
* ``"pass-keys"`` — the hash of a pipeline's pass keys, a function of
  the coupling map and the compile options alone, looked up through the
  uncounted :meth:`CompileCache.memo`;
* ``"features"`` — the serving path's read-only feature rows (see
  :class:`~repro.predictor.service.FomService`).

:func:`~repro.compiler.compile.compile_batch` stores whole compiles and
trial sets in the caller's cache, including those a pool worker ran.  The
cache is a bounded LRU shared process-wide; all operations take a lock,
so concurrent :func:`~repro.compiler.compile.compile_batch` workers
share work safely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..circuits.circuit import QuantumCircuit, circuit_cache_fingerprint

#: Default number of cached entries.  One level-3 compilation stores
#: roughly two dozen entries, so the default comfortably covers a full
#: benchmark-suite sweep (~335 circuits) without evictions.
DEFAULT_MAXSIZE = 32768


@dataclass
class CachedPassResult:
    """Immutable snapshot of one pass run, of one whole compile, or of
    one candidate of a level-3 trial set.

    ``instructions`` is a tuple (instructions themselves are frozen), so a
    stored entry can never be corrupted by callers mutating the circuit a
    hit handed back.  ``metadata_delta`` / ``properties_delta`` hold only
    the keys the pass added or changed, letting a hit compose them onto
    inputs that differ in (output-irrelevant) metadata.  ``fingerprint``
    is the output circuit's cache fingerprint, taken when the entry is
    made, so the next pass's key needs no re-hash of a rebuilt circuit.
    """

    num_qubits: int
    num_clbits: int
    global_phase: float
    instructions: Tuple
    fingerprint: Tuple
    metadata_delta: Dict[str, Any] = field(default_factory=dict)
    properties_delta: Dict[str, Any] = field(default_factory=dict)

    def __reduce__(self):
        # Ship the instructions as one circuit, which pickles as flat
        # arrays rather than one object per instruction.  ``fingerprint``
        # holds ``hash()`` values, salted per interpreter, so the loading
        # one recomputes it.
        circuit = QuantumCircuit(
            self.num_qubits, self.num_clbits, global_phase=self.global_phase,
            instructions=list(self.instructions),
        )
        return (_load_entry, (circuit, self.metadata_delta, self.properties_delta))


def _load_entry(
    circuit: QuantumCircuit,
    metadata_delta: Dict[str, Any],
    properties_delta: Dict[str, Any],
) -> CachedPassResult:
    """Pickle target for :meth:`CachedPassResult.__reduce__`."""
    return CachedPassResult(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        global_phase=circuit.global_phase,
        instructions=tuple(circuit.instructions),
        fingerprint=circuit_cache_fingerprint(circuit),
        metadata_delta=metadata_delta,
        properties_delta=properties_delta,
    )


class CompileCache:
    """Bounded, thread-safe LRU cache of compile results with hit counters."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, enabled: bool = True):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.enabled = enabled
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        if not self.enabled:
            return None
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Hashable, entry: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def memo(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, computing and storing
        ``compute()`` on a miss.

        For values derived from a compile's settings rather than from its
        circuit (a pipeline's pass-key hash), so these lookups count as
        neither hits nor misses: the counters keep measuring compile and
        pass results.
        """
        if not self.enabled:
            return compute()
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> Dict[str, int]:
        """Snapshot of ``{hits, misses, size, maxsize}``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


#: The process-wide cache used by :func:`repro.compiler.compile.compile_circuit`.
_GLOBAL_CACHE = CompileCache()


def get_compile_cache() -> CompileCache:
    """The shared pass-result cache (configure via the helpers below)."""
    return _GLOBAL_CACHE


def active_compile_cache() -> Optional[CompileCache]:
    """The shared cache, or ``None`` when caching is disabled."""
    return _GLOBAL_CACHE if _GLOBAL_CACHE.enabled else None


def configure_compile_cache(
    maxsize: Optional[int] = None, enabled: Optional[bool] = None
) -> CompileCache:
    """Adjust the shared cache knobs; returns the cache for chaining.

    ``configure_compile_cache(enabled=False)`` turns pass memoization off
    globally (every compilation runs cold); ``maxsize`` bounds the number
    of retained pass results.
    """
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        _GLOBAL_CACHE.maxsize = maxsize
        with _GLOBAL_CACHE._lock:
            while len(_GLOBAL_CACHE._data) > maxsize:
                _GLOBAL_CACHE._data.popitem(last=False)
    if enabled is not None:
        _GLOBAL_CACHE.enabled = enabled
    return _GLOBAL_CACHE


def clear_compile_cache() -> None:
    """Drop every cached pass result and reset the hit/miss counters."""
    _GLOBAL_CACHE.clear()


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the shared compile cache."""
    return _GLOBAL_CACHE.stats()
