"""The daemon's model registry: (device, estimator) pairs, loaded once.

A serving process must not pay model-deserialization or device-building
costs per request.  :class:`ModelRegistry` front-loads all of it: each
:class:`ModelEntry` owns a fully-booted
:class:`~repro.predictor.service.FomService` (estimator + resolved
device), addressed by a human-readable ``name`` and a content
``fingerprint``.

Two loaders cover the repo's two artifact shapes:

* :meth:`ModelRegistry.add_model_file` — a ``save_model`` ``.npz`` path.
  The fingerprint is the SHA-256 of the file bytes (first 12 hex chars),
  so two registries booted from the same file agree on the address.
* :meth:`ModelRegistry.add_store` — every estimator artifact in an
  :class:`~repro.evaluation.artifacts.ArtifactStore` (optionally
  filtered by name/fingerprint), reusing the store's own fingerprints.

:class:`ModelSource` is the picklable record of one such load, and
:meth:`ModelRegistry.from_sources` replays a sequence of them through
the two loaders — how the daemon, and each shard worker, builds its
registry.

Lookup (:meth:`resolve`) mirrors ``FomService.from_store``: ``None``
filters match everything, and ambiguity is an error rather than a guess
— a daemon silently serving the wrong model helps nobody.

Entries are *versioned* (PR 9).  A fingerprint used to be computed once
at registration, so an ``.npz`` overwritten by a retrain kept serving
the old model under the old address forever.  :meth:`refresh` closes the
loop: a cheap ``(size, mtime_ns)`` guard, then a rehash, then — on a
content change — the model is reloaded from its remembered source and
registered as a *new version* of the same name.  Superseded entries are
retained, so in-flight batches pinned to the old fingerprint still
resolve and finish on the old model; unpinned lookups prefer the highest
version.  The swap is an atomic dict rebind, safe against concurrent
readers on the daemon's event loop.  A store checkpoint that fails to
load is skipped until its file changes, so a corrupt newcomer does not
make every staleness probe answer "stale".
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..predictor.service import FomService

__all__ = ["ModelEntry", "ModelRegistry", "ModelSource", "check_source"]


def _file_fingerprint(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:12]


def _file_stat(path: Path) -> "Tuple[int, int]":
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns)


class ModelSource(NamedTuple):
    """Where models come from: the one picklable record of what a
    registry serves.

    A ``"file"`` source is a ``save_model`` ``.npz`` file, registered as
    ``name`` (``None`` = the file stem).  A ``"store"`` source is every
    estimator artifact in an :class:`~repro.evaluation.artifacts.
    ArtifactStore` root matching ``name``/``fingerprint`` (``None``
    matches all), so :meth:`ModelRegistry.refresh` can rescan it for
    newer checkpoints.  ``device`` is a zoo spec string or any picklable
    ``Device``, resolved when a model loads; ``service_kwargs`` are
    forwarded to :class:`FomService`.  ``stat`` is the
    ``(size, mtime_ns)`` of a model file when the registry computed its
    fingerprint: the cheap staleness guard that gates the rehash.
    """

    kind: str  # "file" | "store"
    path: "str | Path"  # model file, or the store root
    device: object
    service_kwargs: dict
    name: Optional[str] = None
    fingerprint: Optional[str] = None
    stat: Optional[Tuple[int, int]] = None


def check_source(source: ModelSource) -> list:
    """Raise :class:`ValueError` unless ``source`` has a model to load.

    Returns the store artifacts a store source matches (``[]`` for a
    file).  A sharded daemon calls it in the parent so a bad source
    fails before any worker boots.
    """
    if source.kind == "file":
        if not Path(source.path).is_file():
            raise ValueError(f"no model file at {source.path}")
        return []
    from ..evaluation.artifacts import ArtifactStore

    store = ArtifactStore.coerce(source.path)
    refs = store.find(
        "estimator", name=source.name, fingerprint=source.fingerprint
    )
    if not refs:
        raise ValueError(
            f"no estimator artifact matching name={source.name!r} "
            f"fingerprint={source.fingerprint!r} in {store.root}"
        )
    return refs


class ModelEntry(NamedTuple):
    """One registered model: its address plus the booted service."""

    name: str
    fingerprint: str
    service: FomService
    version: int = 1
    source: Optional[ModelSource] = None

    @property
    def key(self) -> "tuple[str, str]":
        return (self.name, self.fingerprint)

    def describe(self) -> Dict[str, str]:
        """The JSON-facing summary (``/healthz``, ``repro client``)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "version": str(self.version),
            "device": self.service.device.name,
            "optimization_level": str(self.service.optimization_level),
        }


def _ident(source: ModelSource) -> tuple:
    """What a source loads: sources are told apart by it, not by the
    name they register, so two files under one name are both watched."""
    return (source.kind, str(source.path), source.name, source.fingerprint)


def _latest(entries: Iterable[ModelEntry]) -> List[ModelEntry]:
    """Per name, the highest-version entries (ties included), in
    first-seen name order."""
    by_name: Dict[str, List[ModelEntry]] = {}
    for entry in entries:
        by_name.setdefault(entry.name, []).append(entry)
    latest: List[ModelEntry] = []
    for group in by_name.values():
        top = max(entry.version for entry in group)
        latest.extend(entry for entry in group if entry.version == top)
    return latest


class ModelRegistry:
    """An ordered set of :class:`ModelEntry`, unique per (name, fingerprint)."""

    def __init__(self):
        self._entries: "Dict[tuple[str, str], ModelEntry]" = {}
        # What refresh watches, per source: the source (its ``stat`` the
        # one its file was last hashed at) and the key of the entry that
        # content is served under (``None`` for a store).  Kept apart
        # from the entries because two files can hold one model.
        self._watched: "Dict[tuple, tuple[ModelSource, Optional[tuple[str, str]]]]" = {}
        # Store checkpoints that failed to load, as (name, fingerprint,
        # mtime_ns): skipped by refresh until their file changes.
        self._rejected: "set[tuple[str, str, int]]" = set()
        #: completed :meth:`refresh` passes and entries swapped in by them.
        self.refreshes = 0
        self.swaps = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[ModelEntry]:
        return list(self._entries.values())

    def serving_entries(self) -> List[ModelEntry]:
        """The entries unpinned requests can land on: per name, the
        highest-version entries (ties included)."""
        return _latest(self._entries.values())

    def _add(self, entry: ModelEntry) -> ModelEntry:
        if entry.key in self._entries:
            raise ValueError(
                f"model {entry.key} is already registered"
            )
        self._entries[entry.key] = entry
        return entry

    def _next_version(
        self, name: str, changes: "Dict[tuple[str, str], ModelEntry]"
    ) -> int:
        """One past the highest version of ``name``, counting the
        refresh's pending ``changes``."""
        versions = [
            entry.version
            for entry in [*self._entries.values(), *changes.values()]
            if entry.name == name
        ]
        return max(versions, default=0) + 1

    @classmethod
    def from_sources(cls, sources: Iterable[ModelSource]) -> "ModelRegistry":
        """A registry loaded from ``sources``, in order, through
        :meth:`add_model_file` and :meth:`add_store`."""
        registry = cls()
        for source in sources:
            if source.kind == "file":
                registry.add_model_file(
                    source.path, source.device, name=source.name,
                    **source.service_kwargs,
                )
            else:
                registry.add_store(
                    source.path, source.device, name=source.name,
                    fingerprint=source.fingerprint, **source.service_kwargs,
                )
        return registry

    # ------------------------------------------------------------------
    # Loaders
    # ------------------------------------------------------------------

    def add_model_file(
        self,
        path: "str | Path",
        device,
        *,
        name: Optional[str] = None,
        **service_kwargs,
    ) -> ModelEntry:
        """Register a ``save_model`` ``.npz`` file (fingerprint = file hash).

        ``service_kwargs`` (``optimization_level``, ``seed``,
        ``num_trials``, ...) are forwarded to :class:`FomService`.
        """
        path = Path(path)
        source = ModelSource(
            "file", path, device, dict(service_kwargs), name=name
        )
        check_source(source)
        source = source._replace(stat=_file_stat(path))
        service = FomService.load(path, device, **service_kwargs)
        entry = self._add(
            ModelEntry(
                name or path.stem,
                _file_fingerprint(path),
                service,
                source=source,
            )
        )
        self._watched[_ident(source)] = (source, entry.key)
        return entry

    def add_store(
        self,
        store,
        device,
        *,
        name: Optional[str] = None,
        fingerprint: Optional[str] = None,
        **service_kwargs,
    ) -> List[ModelEntry]:
        """Register every matching estimator artifact in a store.

        ``store`` is an :class:`~repro.evaluation.artifacts.ArtifactStore`
        or a cache-directory path; ``name``/``fingerprint`` narrow which
        artifacts load (``None`` = all).  Registering zero models is an
        error — a daemon with an empty registry cannot serve anything.
        """
        from ..evaluation.artifacts import ArtifactStore

        store = ArtifactStore.coerce(store)
        source = ModelSource(
            "store",
            store.root,
            device,
            dict(service_kwargs),
            name=name,
            fingerprint=fingerprint,
        )
        loaded = []
        for ref in check_source(source):
            estimator = store.get("estimator", ref.name, ref.fingerprint)
            if estimator is None:
                raise ValueError(
                    f"estimator artifact {(ref.name, ref.fingerprint)} in "
                    f"{store.root} is corrupted or of the wrong kind"
                )
            loaded.append(
                self._add(
                    ModelEntry(
                        ref.name,
                        ref.fingerprint,
                        FomService(estimator, device, **service_kwargs),
                        source=source,
                    )
                )
            )
        self._watched[_ident(source)] = (source, None)
        return loaded

    # ------------------------------------------------------------------
    # Refresh (hot reload)
    # ------------------------------------------------------------------

    def maybe_stale(self) -> bool:
        """Cheap staleness probe, no hashing or loading.

        File sources compare ``(size, mtime_ns)`` against the stat
        recorded when their file was last hashed; store sources scan the
        store directory for unseen checkpoints.  A ``True`` answer means
        :meth:`refresh` has real work to check.
        """
        for source, _ in self._watched.values():
            if source.kind == "file":
                try:
                    if _file_stat(source.path) != source.stat:
                        return True
                except OSError:
                    continue
            elif self._newcomers(source):
                return True
        return False

    def _newcomers(self, source: ModelSource):
        """``(ref, mtime_ns)`` of the store's unregistered checkpoints,
        less those already rejected in their current state."""
        from ..evaluation.artifacts import ArtifactStore

        store = ArtifactStore.coerce(source.path)
        found = []
        for ref in store.find(
            "estimator", name=source.name, fingerprint=source.fingerprint
        ):
            if (ref.name, ref.fingerprint) in self._entries:
                continue
            try:
                mtime = ref.path.stat().st_mtime_ns
            except OSError:
                continue  # removed since the scan
            if (ref.name, ref.fingerprint, mtime) not in self._rejected:
                found.append((ref, mtime))
        # Chronological: versions of newly-arrived checkpoints follow
        # file modification order, deterministically tie-broken.
        return sorted(
            found,
            key=lambda item: (item[1], item[0].name, item[0].fingerprint),
        )

    def refresh(
        self, force: bool = False
    ) -> "List[tuple[Optional[ModelEntry], ModelEntry]]":
        """Re-check every refreshable source and hot-swap changed models.

        Returns ``(superseded, successor)`` pairs (``superseded`` is
        ``None`` for a brand-new store checkpoint under a new name).  Old
        entries stay registered so fingerprint-pinned requests — and
        batches already queued under the old key — still resolve; the
        installed mapping is replaced in one atomic rebind.  ``force``
        skips the ``(size, mtime_ns)`` guard and always rehashes.
        """
        changes: "Dict[tuple[str, str], ModelEntry]" = {}
        swapped: "List[tuple[Optional[ModelEntry], ModelEntry]]" = []
        watched = dict(self._watched)

        for ident, (source, key) in self._watched.items():
            if source.kind == "file":
                try:
                    stat = _file_stat(source.path)
                except OSError:
                    continue  # file gone: keep serving what we loaded
                if not force and stat == source.stat:
                    continue
                name, served = key
                fingerprint = _file_fingerprint(source.path)
                fresh_source = source._replace(stat=stat)
                watched[ident] = (fresh_source, (name, fingerprint))
                if fingerprint == served:
                    continue  # touched but unchanged: just the new stat
                version = self._next_version(name, changes)
                existing = self._entries.get((name, fingerprint))
                if existing is not None:
                    # The file now holds content already registered under
                    # this name (a revert, or a copy of a sibling file):
                    # promote that entry instead of re-loading.
                    successor = existing._replace(version=version)
                else:
                    successor = ModelEntry(
                        name,
                        fingerprint,
                        FomService.load(
                            source.path, source.device, **source.service_kwargs
                        ),
                        version=version,
                        source=fresh_source,
                    )
                changes[successor.key] = successor
                swapped.append((self._entries[key], successor))
            else:
                from ..evaluation.artifacts import ArtifactStore

                store = ArtifactStore.coerce(source.path)
                for ref, mtime in self._newcomers(source):
                    key = (ref.name, ref.fingerprint)
                    if key in changes:
                        continue
                    estimator = store.get("estimator", ref.name, ref.fingerprint)
                    if estimator is None:
                        # Corrupt newcomer: keep serving, and skip it
                        # until its file changes.
                        self._rejected.add((*key, mtime))
                        continue
                    successor = ModelEntry(
                        ref.name,
                        ref.fingerprint,
                        FomService(
                            estimator, source.device, **source.service_kwargs
                        ),
                        version=self._next_version(ref.name, changes),
                        source=source,
                    )
                    changes[key] = successor
                    previous = _latest(
                        e for e in self._entries.values()
                        if e.name == ref.name
                    )
                    swapped.append(
                        (previous[0] if previous else None, successor)
                    )

        self._watched = watched
        if changes:
            entries = dict(self._entries)
            entries.update(changes)
            self._entries = entries  # atomic install
        self.refreshes += 1
        self.swaps += len(swapped)
        return swapped

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def resolve(
        self,
        name: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> ModelEntry:
        """The unique entry matching the filters.

        ``None`` filters match everything, so a single-model registry
        resolves with no arguments.  Among same-name matches only the
        highest version survives (superseded entries stay addressable by
        explicit fingerprint); no match or more than one surviving match
        is a :class:`ValueError` (the daemon answers 400).
        """
        entries = self._entries  # snapshot: refresh() rebinds atomically
        matches = [
            entry
            for entry in entries.values()
            if (name is None or entry.name == name)
            and (fingerprint is None or entry.fingerprint == fingerprint)
        ]
        if not matches:
            raise ValueError(
                f"no registered model matching name={name!r} "
                f"fingerprint={fingerprint!r}; serving "
                f"{sorted(entry.key for entry in entries.values())}"
            )
        survivors = _latest(matches)
        if len(survivors) > 1:
            raise ValueError(
                "ambiguous model reference: "
                f"{sorted(entry.key for entry in survivors)} all match "
                f"name={name!r} fingerprint={fingerprint!r}"
            )
        return survivors[0]
