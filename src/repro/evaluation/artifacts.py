"""The unified artifact store: one cache layout for every pipeline stage.

Before the serving-stack refactor the repo had grown three ad-hoc cache
schemes — per-device dataset checkpoints and estimator-report checkpoints
(PR 3's ``run_study(cache_dir=...)``) and the cross-device study's
``transfer-estimator_*.npz`` model checkpoint (PR 4).  Each hand-rolled
the same moves: derive a fingerprint of the inputs, build a file name,
try to load, treat *any* problem as a miss, rebuild, save.

:class:`ArtifactStore` centralizes those moves behind a content-addressed
``get``/``put`` pair.  Entries are addressed by ``(kind, name,
fingerprint)``: ``kind`` selects the file-name pattern and envelope codec
(see :data:`ARTIFACT_KINDS` and :mod:`repro.evaluation.persistence`),
``name`` is a human-readable label (typically the device name), and
``fingerprint`` is the caller's content hash of every input that
influenced the artifact (see
:meth:`repro.evaluation.study.StudyConfig.dataset_fingerprint` and
friends).  The on-disk layout is **identical** to the pre-refactor cache
files — ``dataset_<name>_<fp>.json``, ``report_<name>_<fp>.json``,
``transfer-estimator_<name>_<fp>.npz`` in one flat directory — so cache
directories written before this refactor keep hitting, byte for byte.

Failure policy (unchanged from the schemes it replaces): a missing,
truncated, corrupted, foreign-format, wrong-version, or stale-fingerprint
entry makes :meth:`ArtifactStore.get` return ``None`` — the caller
rebuilds and overwrites.  A cache must never kill a long study.  Every
write replaces its entry atomically, so a reader never sees half of one.
``run_study``, ``run_cross_device_study``, ``build_device_datasets``, and
:class:`~repro.predictor.service.FomService` model loading all sit on
this store.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .persistence import DATASET, DRIFT, ESTIMATOR, LEADERBOARD, REPORT, Codec, PersistenceError


class ArtifactKind(NamedTuple):
    """File-name pattern and envelope codec of one artifact kind."""

    pattern: str  # file name: pattern.format(name=, fingerprint=)
    codec: Codec


#: The artifact kinds the pipelines persist, keyed by kind id.  File-name
#: patterns are frozen: they are the pre-refactor cache names.
ARTIFACT_KINDS: Dict[str, ArtifactKind] = {
    "dataset": ArtifactKind("dataset_{name}_{fingerprint}.json", DATASET),
    "report": ArtifactKind("report_{name}_{fingerprint}.json", REPORT),
    # Model checkpoints carry their fingerprint in the file name only, so
    # the file stays loadable by plain ``load_model``.
    "estimator": ArtifactKind("transfer-estimator_{name}_{fingerprint}.npz", ESTIMATOR),
    # Compilation-search winners per (device-family, width-bucket); the
    # committed copies live under benchmarks/leaderboards/ (see
    # repro.compiler.search and docs/search.md).
    "leaderboard": ArtifactKind("leaderboard_{name}_{fingerprint}.json", LEADERBOARD),
    # Completed drift-study results (repro.evaluation.drift): the final
    # stage cache that makes a warm rerun a pure read.
    "drift": ArtifactKind("drift_{name}_{fingerprint}.json", DRIFT),
}


class ArtifactRef(NamedTuple):
    """Address of one stored artifact: the ``get``/``put`` key plus its path."""

    kind: str
    name: str
    fingerprint: str
    path: Path


class ArtifactStore:
    """Content-addressed, fingerprint-keyed artifact cache in a directory.

    >>> store = ArtifactStore("cache-dir")
    >>> store.put("dataset", dataset, "Q20-A", fingerprint)
    >>> store.get("dataset", "Q20-A", fingerprint)   # -> dataset or None
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    @classmethod
    def coerce(
        cls, store: "ArtifactStore | str | Path | None"
    ) -> "Optional[ArtifactStore]":
        """Accept a store, a directory path, or ``None`` (no caching)."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    def path(self, kind: str, name: str, fingerprint: str) -> Path:
        """The entry's file path (exists or not)."""
        return self.root / self._kind(kind).pattern.format(
            name=name, fingerprint=fingerprint
        )

    def get(self, kind: str, name: str, fingerprint: str):
        """The stored artifact, or ``None`` on any kind of miss.

        Missing, unreadable, corrupted, truncated, foreign-format,
        wrong-version, and stale-fingerprint entries all count as misses:
        the caller rebuilds (and normally :meth:`put`s the fresh value
        over the bad entry).
        """
        codec = self._kind(kind).codec
        try:
            return codec.load(self.path(kind, name, fingerprint), fingerprint)
        except PersistenceError:
            return None

    def put(self, kind: str, artifact, name: str, fingerprint: str) -> Path:
        """Write (or overwrite) an entry; returns its path."""
        codec = self._kind(kind).codec
        return codec.save(artifact, self.path(kind, name, fingerprint), fingerprint)

    def fetch(
        self,
        kind: str,
        name: str,
        fingerprint: str,
        build: Callable[[], object],
        on_hit: Optional[Callable[[], None]] = None,
    ):
        """``get`` with rebuild-on-miss: the artifact, built at most once.

        On a hit, ``on_hit`` fires (progress reporting) and the cached
        value is returned; on a miss, ``build()`` runs and its result is
        stored before being returned.
        """
        artifact = self.get(kind, name, fingerprint)
        if artifact is not None:
            if on_hit is not None:
                on_hit()
            return artifact
        artifact = build()
        self.put(kind, artifact, name, fingerprint)
        return artifact

    def entries(self, kind: Optional[str] = None) -> Iterator[Tuple[str, Path]]:
        """Yield ``(kind, path)`` for every entry currently in the store."""
        for ref in self.refs(kind):
            yield ref.kind, ref.path

    def refs(self, kind: Optional[str] = None) -> Iterator[ArtifactRef]:
        """Yield an :class:`ArtifactRef` for every entry in the store.

        The ``(name, fingerprint)`` address is parsed back out of the
        frozen file-name patterns (the fingerprint is the last ``_``-token
        of the stem; names may themselves contain underscores).
        """
        if not self.root.is_dir():
            return
        kinds = [kind] if kind is not None else list(ARTIFACT_KINDS)
        for kind_id in kinds:
            recipe = self._kind(kind_id)
            prefix, _, suffix = recipe.pattern.partition("{name}")
            tail = suffix.replace("{fingerprint}", "*")
            extension = tail[tail.rindex("*") + 1:]
            for path in sorted(self.root.glob(f"{prefix}*{tail}")):
                stem = path.name[len(prefix):len(path.name) - len(extension)]
                name, _, fingerprint = stem.rpartition("_")
                if not name or not fingerprint:
                    continue  # foreign file that happens to match the glob
                yield ArtifactRef(kind_id, name, fingerprint, path)

    def find(
        self,
        kind: str,
        *,
        name: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> "List[ArtifactRef]":
        """Entries of ``kind`` matching the given name and/or fingerprint.

        This is the registry-lookup primitive the serving daemon boots
        from: ``find("estimator", fingerprint=...)`` addresses one exact
        trained model regardless of its human-readable name.  Filters
        that are ``None`` match everything.
        """
        return [
            ref
            for ref in self.refs(kind)
            if (name is None or ref.name == name)
            and (fingerprint is None or ref.fingerprint == fingerprint)
        ]

    @staticmethod
    def _kind(kind: str) -> ArtifactKind:
        try:
            return ARTIFACT_KINDS[kind]
        except KeyError:
            raise ValueError(
                f"unknown artifact kind {kind!r}; "
                f"expected one of {sorted(ARTIFACT_KINDS)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArtifactStore({str(self.root)!r})"


__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactKind",
    "ArtifactRef",
    "ArtifactStore",
]
