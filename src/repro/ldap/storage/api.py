"""The storage-engine API: one typed choke point for every DIT write.

The paper's deployment rides on OpenLDAP's *persistent* indexed
backends (§10.2): a GIIS restart must not lose every registration and
cached entry until soft-state refresh repopulates them.  Serving is
always from RAM; an engine decides only whether a write also reaches
disk.  There are two: memory (volatile) and WAL (durable).

* :class:`ChangeOp` — a typed, serializable description of one write.
  The six DIT mutators (``add``/``replace``/``modify``/``delete``/
  ``clear``/``load``) all normalize into three mechanical kinds:
  ``PUT`` (post-image upsert), ``DELETE`` (single DN), and ``CLEAR``.
  Post-image logging makes every op idempotent, which is what lets
  crash recovery replay a write-ahead log over its own snapshot
  without sequence numbers.
* :class:`StorageEngine` — the four-method protocol both engines
  implement: ``apply``, ``replay``, ``snapshot``, ``close``.  Engines
  own the in-memory tree state (``entries`` + ``children``); the DIT
  keeps semantic checks (entryAlreadyExists, noSuchObject, non-leaf
  delete) and secondary-index maintenance in its thin wrappers, so
  engines stay mechanical and replay can never fail a check that
  already passed before the crash.
* :func:`make_storage` — the validated factory behind the
  ``grid-info-server`` ``"storage"`` config object and the
  ``--storage``/``--data-dir`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Set

from ..dn import DN
from ..entry import Entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs.metrics import MetricsRegistry

__all__ = [
    "StorageError",
    "ChangeKind",
    "ChangeOp",
    "StorageEngine",
    "StorageSpec",
    "make_storage",
    "entry_to_record",
    "entry_from_record",
    "BACKENDS",
    "FSYNC_POLICIES",
]

BACKENDS = ("memory", "wal")
FSYNC_POLICIES = ("always", "batch", "never")


class StorageError(Exception):
    """Raised on invalid storage configuration or a corrupt store."""


class ChangeKind:
    """The three mechanical write kinds every mutator normalizes into."""

    PUT = "put"
    DELETE = "delete"
    CLEAR = "clear"

    ALL = (PUT, DELETE, CLEAR)


def entry_to_record(entry: Entry) -> Dict[str, object]:
    """A JSON-able description of one entry (attr case preserved)."""
    return {"dn": str(entry.dn), "attrs": {a: list(v) for a, v in entry.items()}}


def entry_from_record(data: Dict[str, object]) -> Entry:
    return Entry(str(data["dn"]), {str(a): v for a, v in data["attrs"].items()})


@dataclass(frozen=True)
class ChangeOp:
    """One write, normalized to a mechanical post-image operation.

    ``PUT`` carries the full entry as it must exist afterwards (the
    *post-image*): ``add``, ``replace``, and ``modify`` all reduce to
    it, which keeps replay deterministic — no mutator callables or
    pre-images to re-run.  ``exclusive``/``force`` record the original
    intent for engines that care (and for audit tooling reading a WAL),
    but replay ignores them: an op only reaches a log after its checks
    passed.
    """

    kind: str
    dn: Optional[DN] = None
    entry: Optional[Entry] = None
    exclusive: bool = False  # PUT: came from an LDAP add (no overwrite)
    force: bool = False  # DELETE: came from a cascading subtree delete

    @classmethod
    def put(cls, entry: Entry, exclusive: bool = False) -> "ChangeOp":
        return cls(ChangeKind.PUT, dn=entry.dn, entry=entry, exclusive=exclusive)

    @classmethod
    def delete(cls, dn: DN | str, force: bool = False) -> "ChangeOp":
        return cls(ChangeKind.DELETE, dn=DN.of(dn), force=force)

    @classmethod
    def clear(cls) -> "ChangeOp":
        return cls(ChangeKind.CLEAR)

    def to_record(self) -> Dict[str, object]:
        """The JSON-able WAL payload for this op."""
        if self.kind == ChangeKind.PUT:
            return {"op": self.kind, **entry_to_record(self.entry)}
        if self.kind == ChangeKind.DELETE:
            return {"op": self.kind, "dn": str(self.dn)}
        return {"op": self.kind}

    @classmethod
    def from_record(cls, data: Dict[str, object]) -> "ChangeOp":
        kind = data.get("op")
        if kind == ChangeKind.PUT:
            entry = entry_from_record(data)
            return cls(kind, dn=entry.dn, entry=entry)
        if kind == ChangeKind.DELETE:
            return cls(kind, dn=DN.parse(str(data["dn"])))
        if kind == ChangeKind.CLEAR:
            return cls(kind)
        raise StorageError(f"unknown change kind {kind!r} in storage record")


class StorageEngine:
    """Protocol for pluggable DIT storage backends.

    An engine owns the canonical in-memory tree state — ``entries``
    (DN → Entry) and ``children`` (DN → child DN set, spanning glue
    nodes) — and implements exactly four methods.  Owners (the DIT, a
    GIIS persisting registrations) alias these dicts for reads and
    serialize every call under their own lock; the WAL engine takes an
    internal lock as well so a bare engine shared without a DIT stays
    consistent.

    * ``apply(op)`` — mutate the in-memory state and, on the WAL
      engine, persist the op.  Mechanical: semantic LDAP checks happen
      in the caller before the op is built.  Returns the stored entry
      for ``PUT``, else None.
    * ``replay()`` — recover persisted state into the in-memory maps
      (snapshot load, then WAL replay).  Idempotent:
      second and later calls return 0.  Returns the number of replayed
      log ops.
    * ``snapshot()`` — force a durable checkpoint and compact the log.
      Returns the number of entries written.
    * ``close()`` — flush and release file handles; the engine must not
      be used afterwards.
    """

    backend_name = "abstract"

    entries: Dict[DN, Entry]
    children: Dict[DN, Set[DN]]

    def apply(self, op: ChangeOp) -> Optional[Entry]:
        raise NotImplementedError

    def replay(self) -> int:
        raise NotImplementedError

    def snapshot(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class StorageSpec:
    """A validated storage configuration (the ``"storage"`` object).

    ``path`` is the data *directory*; each consumer in one process gets
    its own namespace under it (``giis-registrations/``, ``gris-view/``)
    so a server hosting both a GIIS and a GRIS view shares one
    ``--data-dir``.
    """

    backend: str = "memory"
    path: str = ""
    fsync: str = "batch"
    snapshot_every: int = 10000

    def validate(self, require_path: bool = True) -> "StorageSpec":
        """Check the spec; ``require_path=False`` defers the path check.

        Config parsing validates with ``require_path=False`` because the
        data directory may arrive later from ``--data-dir``; the factory
        re-validates fully once both sources have been merged.
        """
        if self.backend not in BACKENDS:
            raise StorageError(
                f"unknown storage backend {self.backend!r} "
                f"(choose from {', '.join(BACKENDS)})"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {self.fsync!r} "
                f"(choose from {', '.join(FSYNC_POLICIES)})"
            )
        if require_path and self.backend != "memory" and not self.path:
            raise StorageError(
                f"storage backend {self.backend!r} requires a data "
                "directory ('path' in the storage object, or --data-dir)"
            )
        if self.snapshot_every < 0:
            raise StorageError("snapshot_every must be >= 0 (0 = manual only)")
        return self


def make_storage(
    spec: StorageSpec | str,
    path: Optional[str] = None,
    *,
    subdir: str = "",
    metrics: Optional["MetricsRegistry"] = None,
    tracer=None,
    name: str = "",
) -> StorageEngine:
    """Build a storage engine from a spec (the ``--storage`` factory).

    Accepts either a :class:`StorageSpec` or a bare backend name plus
    ``path``.  ``subdir`` namespaces one consumer inside a shared data
    directory.  Raises :class:`StorageError` with an actionable message
    on bad configuration, mirroring the transport factory's behavior.
    """
    if isinstance(spec, str):
        spec = StorageSpec(backend=spec, path=path or "")
    elif path:
        spec = replace(spec, path=path)
    spec.validate()
    if spec.backend == "memory":
        from .memory import MemoryEngine

        return MemoryEngine()
    import pathlib

    root = pathlib.Path(spec.path)
    if subdir:
        root = root / subdir
    from .wal import WalEngine

    return WalEngine(
        root,
        fsync=spec.fsync,
        snapshot_every=spec.snapshot_every,
        metrics=metrics,
        tracer=tracer,
        name=name or subdir,
    )


def parse_storage_spec(data: Dict[str, object]) -> StorageSpec:
    """Parse a JSON ``"storage"`` object into a validated spec."""
    if not isinstance(data, dict):
        raise StorageError("'storage' must be an object")
    known = {"backend", "path", "fsync", "snapshot_every"}
    extra = {k: v for k, v in data.items() if k not in known}
    if extra:
        raise StorageError(
            f"unknown storage option(s): {', '.join(sorted(extra))} "
            f"(expected {', '.join(sorted(known))})"
        )
    try:
        spec = StorageSpec(
            backend=str(data.get("backend", "memory")),
            path=str(data.get("path", "")),
            fsync=str(data.get("fsync", "batch")),
            snapshot_every=int(data.get("snapshot_every", 10000)),
        )
    except (TypeError, ValueError) as exc:
        raise StorageError(f"bad storage object: {exc}") from exc
    return spec.validate(require_path=False)
