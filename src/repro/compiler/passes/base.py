"""Compiler pass infrastructure.

A :class:`Pass` transforms a circuit and may record results (layouts,
schedules, statistics) into a shared :class:`PropertySet`.  A
:class:`PassManager` runs a sequence of passes, mirroring the architecture
of production transpilers so that pass orderings can be studied (the paper's
Section II-A: "passes can be performed in any order and might be repeated").

Passes that are pure functions of ``(circuit, configuration, declared
property reads)`` advertise a :meth:`Pass.cache_key`; a
:class:`PassManager` constructed with a
:class:`~repro.compiler.cache.CompileCache` memoizes their results, so
repeated compilations (level-3 trials, warm dataset rebuilds) skip the
pass bodies entirely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ...circuits.circuit import QuantumCircuit
from ..cache import CachedPassResult, CompileCache, circuit_cache_fingerprint


class PropertySet(dict):
    """Shared key-value store passed along the pipeline.

    Well-known keys:
        ``initial_layout``: dict program qubit -> physical qubit.
        ``final_layout``: dict program qubit -> physical qubit after routing.
        ``schedule``: :class:`repro.compiler.passes.scheduling.Schedule`.
    """

    def require(self, key: str) -> Any:
        if key not in self:
            raise KeyError(f"property '{key}' has not been produced by any pass")
        return self[key]


class Pass(ABC):
    """Base class for all compiler passes."""

    #: Property-set keys whose values feed into this pass's output (beyond
    #: the circuit itself).  Only these keys are visible to a cached run,
    #: and their frozen values become part of the cache key.
    reads: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    @abstractmethod
    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        """Transform ``circuit``; may read/write ``properties``."""

    def cache_key(self) -> Optional[Hashable]:
        """Configuration signature for pass-result memoization.

        Return a hashable tuple covering *every* option that affects the
        pass output (seeds, tolerances, coupling fingerprints, ...), or
        ``None`` (the default) when the pass must not be cached.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.name


def _freeze_property(value: Any) -> Hashable:
    """Hashable snapshot of a property value (layout dicts become tuples)."""
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def _copy_property(value: Any) -> Any:
    """Defensive copy of a property value handed out of the cache."""
    if isinstance(value, dict):
        return dict(value)
    return value


def snapshot_result(
    source: QuantumCircuit,
    result: QuantumCircuit,
    properties_delta: Dict[str, Any],
) -> CachedPassResult:
    """Cache entry for ``result``, produced from ``source``: its
    instructions, ``properties_delta`` and the metadata it added to or
    changed in ``source``'s, all copied so later edits cannot reach it."""
    return CachedPassResult(
        num_qubits=result.num_qubits,
        num_clbits=result.num_clbits,
        global_phase=result.global_phase,
        instructions=tuple(result.instructions),
        fingerprint=circuit_cache_fingerprint(result),
        metadata_delta={
            key: _copy_property(value)
            for key, value in result.metadata.items()
            if key not in source.metadata or source.metadata[key] != value
        },
        properties_delta={
            key: _copy_property(value)
            for key, value in properties_delta.items()
        },
    )


def restore_result(
    entry: CachedPassResult, source: QuantumCircuit, properties: PropertySet
) -> QuantumCircuit:
    """A fresh, independently mutable circuit from ``entry``: ``source``'s
    name and metadata plus the entry's deltas.  The entry's property
    delta is copied into ``properties``."""
    metadata = dict(source.metadata)
    metadata.update(
        (key, _copy_property(value))
        for key, value in entry.metadata_delta.items()
    )
    for key, value in entry.properties_delta.items():
        properties[key] = _copy_property(value)
    return QuantumCircuit(
        num_qubits=entry.num_qubits,
        num_clbits=entry.num_clbits,
        name=source.name,
        global_phase=entry.global_phase,
        instructions=list(entry.instructions),
        metadata=metadata,
    )


class PassManager:
    """Runs passes in order, optionally memoizing and collecting statistics.

    Args:
        passes: the pipeline.
        cache: a :class:`CompileCache`; when given, passes with a
            non-``None`` :meth:`Pass.cache_key` are memoized.
        collect_history: record per-pass size/depth statistics in
            :attr:`history`.  Depth is O(circuit), so the hot compile path
            disables this.
    """

    def __init__(
        self,
        passes: List[Pass] | None = None,
        cache: Optional[CompileCache] = None,
        collect_history: bool = True,
    ):
        self.passes: List[Pass] = list(passes or [])
        self.cache = cache
        self.collect_history = collect_history
        self.history: List[Dict[str, Any]] = []

    def append(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(
        self,
        circuit: QuantumCircuit,
        properties: PropertySet | None = None,
    ) -> QuantumCircuit:
        """Run every pass in order and return the final circuit."""
        properties = properties if properties is not None else PropertySet()
        self.properties = properties
        self.history = []
        current = circuit
        # Cache fingerprint of ``current`` when a cached pass produced it.
        fingerprint = None
        for pass_ in self.passes:
            if self.collect_history:
                before_size = current.size()
                before_depth = current.depth()
            current, fingerprint = self._run_pass(
                pass_, current, properties, fingerprint
            )
            if self.collect_history:
                self.history.append(
                    {
                        "pass": pass_.name,
                        "size_before": before_size,
                        "size_after": current.size(),
                        "depth_before": before_depth,
                        "depth_after": current.depth(),
                    }
                )
        return current

    # ------------------------------------------------------------------
    # Memoized execution
    # ------------------------------------------------------------------

    def _run_pass(
        self,
        pass_: Pass,
        circuit: QuantumCircuit,
        properties: PropertySet,
        fingerprint: Optional[Tuple],
    ) -> Tuple[QuantumCircuit, Optional[Tuple]]:
        """Run one pass; returns the output and, when a cache entry
        describes it, the output's fingerprint (``None`` otherwise)."""
        cache = self.cache
        config_key = pass_.cache_key() if cache is not None else None
        if cache is None or config_key is None:
            return pass_.run(circuit, properties), None

        read_state = tuple(
            (key, _freeze_property(properties.get(key))) for key in pass_.reads
        )
        if fingerprint is None:
            fingerprint = circuit_cache_fingerprint(circuit)
        key = (config_key, fingerprint, read_state)
        entry = cache.get(key)
        if entry is None:
            entry, result = self._execute_and_snapshot(pass_, circuit, properties)
            cache.put(key, entry)
            for prop_key, value in entry.properties_delta.items():
                properties[prop_key] = _copy_property(value)
            return result, entry.fingerprint
        # Hit: rebuild a fresh circuit from the immutable snapshot, carrying
        # the *input's* name/metadata plus the deltas the pass produced.
        return restore_result(entry, circuit, properties), entry.fingerprint

    @staticmethod
    def _execute_and_snapshot(
        pass_: Pass, circuit: QuantumCircuit, properties: PropertySet
    ) -> Tuple[CachedPassResult, QuantumCircuit]:
        """Run ``pass_`` against an overlay limited to its declared reads.

        The overlay guarantees cache-key completeness by construction: the
        pass can only observe properties listed in :attr:`Pass.reads`, and
        everything it wrote is captured as the delta stored with the entry.
        """
        overlay = PropertySet(
            {key: properties[key] for key in pass_.reads if key in properties}
        )
        result = pass_.run(circuit, overlay)
        properties_delta = {
            key: value
            for key, value in overlay.items()
            if key not in pass_.reads or properties.get(key) is not value
        }
        return snapshot_result(circuit, result, properties_delta), result
