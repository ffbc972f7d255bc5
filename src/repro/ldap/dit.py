"""Directory Information Tree: the hierarchical entry store.

LDAP organizes entries in a tree keyed by DN (Figure 3).  The DIT
supports the three RFC 4511 search scopes — ``BASE`` (the named entry
only), ``ONELEVEL`` (immediate children), ``SUBTREE`` (entry and all
descendants) — plus size limits, attribute selection, and optional
schema validation on write.

The store is a small storage engine: alongside the tree it maintains an
:class:`~repro.ldap.index.AttributeIndex` (equality + presence postings,
``objectclass`` always indexed, more attributes via ``index_attrs``)
kept incrementally consistent on every write.  Searches consult the
:mod:`~repro.ldap.plan` planner first and fall back to the full subtree
walk when the filter is not index-answerable; candidates are always
re-verified with ``filt.matches`` so planned and scanned results are
byte-identical.

Every mutator (``add``/``replace``/``modify``/``delete``/``clear``/
``load``) is a thin wrapper that performs the LDAP semantic checks,
normalizes the write into one typed
:class:`~repro.ldap.storage.ChangeOp`, and funnels it through a single
choke point (:meth:`DIT._apply`) onto a pluggable
:class:`~repro.ldap.storage.StorageEngine`.  The default engine is
memory; the WAL engine also logs every op so the tree — registrations,
cached entries, and all — survives a crash and replays on restart
(paper §10.2 rode on OpenLDAP's persistent indexed backends for exactly
this).  Indexes are
rebuilt from the replayed entries at construction time.

This store backs the GRIS/GIIS servers when they hold materialized data;
providers that generate entries lazily plug in at the backend layer
instead (paper §4.1: "there is no requirement that an information
provider explicitly store information about its entity(s)").
"""

from __future__ import annotations

import enum
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from typing import TYPE_CHECKING

from .attributes import normalize_attr_name
from .dn import DN
from .entry import Entry, WireCache
from .filter import Filter, compile_filter
from .index import AttributeIndex
from .plan import candidates_for
from .schema import Schema
from .storage import ChangeKind, ChangeOp, MemoryEngine, StorageEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "Scope",
    "DitError",
    "NoSuchEntry",
    "EntryExists",
    "SizeLimitExceeded",
    "DIT",
    "in_scope",
]

OBJECTCLASS = "objectclass"

# Candidate-set-size buckets: how much of the entry space the planner
# had to verify (powers of four up to 64k entries).
_CANDIDATE_BUCKETS = (0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class Scope(enum.IntEnum):
    """RFC 4511 search scopes (wire values)."""

    BASE = 0
    ONELEVEL = 1
    SUBTREE = 2


class DitError(Exception):
    """Base class for DIT operation failures."""


class NoSuchEntry(DitError):
    """The named entry does not exist (LDAP noSuchObject)."""

    def __init__(self, dn: DN):
        super().__init__(f"no such entry: {dn}")
        self.dn = dn


class EntryExists(DitError):
    """An add collided with an existing entry (entryAlreadyExists)."""

    def __init__(self, dn: DN):
        super().__init__(f"entry already exists: {dn}")
        self.dn = dn


class NotAllowedOnNonLeaf(DitError):
    def __init__(self, dn: DN):
        super().__init__(f"entry has children: {dn}")
        self.dn = dn


class SizeLimitExceeded(DitError):
    """A search produced more entries than its size limit allows.

    Per LDAP sizeLimitExceeded semantics the first ``limit`` entries (in
    canonical result order) are still delivered: they ride on
    ``partial`` for the backend to return alongside the error code.
    """

    def __init__(self, limit: int, partial: Optional[List[Entry]] = None):
        super().__init__(f"size limit {limit} exceeded")
        self.limit = limit
        self.partial: List[Entry] = partial if partial is not None else []


def in_scope(dn: DN, base: DN, scope: Scope) -> bool:
    """Whether *dn* falls inside the (base, scope) search cone."""
    if scope == Scope.BASE:
        return dn == base
    if scope == Scope.ONELEVEL:
        return not dn.is_root() and dn.parent() == base
    return dn.is_within(base)


class DIT:
    """A thread-safe hierarchical entry store with secondary indexes.

    Entries may be added under any DN; missing intermediate ("glue")
    nodes are tolerated, as OpenLDAP-backed GRIS instances materialize
    subtrees piecemeal from providers.

    ``index_attrs`` selects extra equality/presence-indexed attributes
    (``objectclass`` is always indexed).  Pass a shared
    :class:`MetricsRegistry` to expose planner counters and per-index
    size gauges under ``cn=monitor``; ``name`` labels them when one
    process hosts several DITs.

    ``storage`` selects the persistence engine (default: volatile
    in-memory).  A durable engine is replayed at construction — the DIT
    comes up holding whatever survived the last crash, with its indexes
    rebuilt over the recovered entries — and every subsequent write is
    persisted through the same :meth:`_apply` choke point the in-memory
    state goes through.
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        index_attrs: Iterable[str] = (),
        metrics: Optional["MetricsRegistry"] = None,
        name: str = "",
        storage: Optional[StorageEngine] = None,
    ):
        self._schema = schema
        self._lock = threading.RLock()
        self.storage: StorageEngine = storage if storage is not None else MemoryEngine()
        self.replayed_ops = self.storage.replay()
        # Reads alias the engine's maps; engines mutate them in place
        # (CLEAR included) so these references stay valid for the
        # DIT's lifetime.
        self._entries: Dict[DN, Entry] = self.storage.entries
        self._children: Dict[DN, Set[DN]] = self.storage.children
        # Replay bypasses _apply, so recovered entries need their
        # encode-cache cells attached here or they would never cache.
        for recovered in self._entries.values():
            recovered._wire = WireCache()
        self._name = name
        if metrics is None:
            # Imported lazily: repro.obs pulls in the monitor backend,
            # which imports this module (a cycle at import time only).
            from ..obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._labels = {"dit": name} if name else None
        self._planned = self.metrics.counter("ldap.search.planned", self._labels)
        self._scanned = self.metrics.counter("ldap.search.scanned", self._labels)
        self._candidate_sizes = self.metrics.histogram(
            "ldap.search.candidates", self._labels, buckets=_CANDIDATE_BUCKETS
        )
        self._index = AttributeIndex(())
        self._gauged_attrs: Set[str] = set()
        self.set_index_attrs(index_attrs)

    # -- index management ------------------------------------------------------

    @property
    def index_attrs(self) -> frozenset:
        """The currently indexed attribute names (always has objectclass)."""
        return self._index.attrs()

    def set_index_attrs(self, attrs: Iterable[str]) -> None:
        """Reconfigure the indexed attribute set and rebuild postings."""
        wanted = {OBJECTCLASS}
        wanted.update(normalize_attr_name(a) for a in attrs or ())
        with self._lock:
            self._index = AttributeIndex(wanted)
            for dn, entry in self._entries.items():
                self._index.add(dn, entry.get)
            for attr in sorted(wanted - self._gauged_attrs):
                labels = dict(self._labels or {})
                labels["attr"] = attr
                self.metrics.gauge_fn(
                    "ldap.index.size",
                    lambda a=attr: float(self._index.size(a)),
                    labels,
                )
            for attr in sorted(self._gauged_attrs - wanted):
                labels = dict(self._labels or {})
                labels["attr"] = attr
                self.metrics.unregister("ldap.index.size", labels)
            self._gauged_attrs = set(wanted)

    def index_sizes(self) -> Dict[str, int]:
        with self._lock:
            return self._index.sizes()

    # -- write ops -----------------------------------------------------------
    #
    # Each mutator performs its LDAP semantic checks, then normalizes
    # the write into a ChangeOp and hands it to _apply — the single
    # point where in-memory state, secondary indexes, and (for durable
    # engines) the on-disk log all move together.

    def _apply(self, op: ChangeOp) -> Optional[Entry]:
        """The mutation choke point: engine state + index, under the lock."""
        if op.kind == ChangeKind.PUT:
            if op.dn in self._entries:
                self._index.discard(op.dn)
            stored = self.storage.apply(op)
            # Every post-image gets a fresh (empty) encode-cache cell:
            # copies served to clients share it, and replacing the cell
            # on the next PUT is what invalidates the cached encoding.
            stored._wire = WireCache()
            self._index.add(op.dn, stored.get)
            return stored
        if op.kind == ChangeKind.DELETE:
            self.storage.apply(op)
            self._index.discard(op.dn)
            return None
        # CLEAR: the index is emptied in place so the per-attribute
        # ldap.index.size gauges (closures over this index) read zero
        # immediately, not stale pre-clear sizes.
        self.storage.apply(op)
        self._index.clear()
        return None

    def add(self, entry: Entry, replace: bool = False) -> None:
        if self._schema is not None:
            self._schema.validate(entry)
        with self._lock:
            if not replace and entry.dn in self._entries:
                raise EntryExists(entry.dn)
            self._apply(ChangeOp.put(entry.copy(), exclusive=not replace))

    def replace(self, entry: Entry) -> None:
        self.add(entry, replace=True)

    def delete(self, dn: DN | str, force: bool = False) -> None:
        dn = DN.of(dn)
        with self._lock:
            if dn not in self._entries:
                raise NoSuchEntry(dn)
            kids = self._children.get(dn)
            if kids and not force:
                raise NotAllowedOnNonLeaf(dn)
            if force:
                for kid in list(kids or ()):
                    if kid in self._entries:
                        self.delete(kid, force=True)
                    else:  # glue node: delete the subtree beneath it
                        for sub in list(self._children.get(kid, ())):
                            self.delete(sub, force=True)
            self._apply(ChangeOp.delete(dn, force=force))

    def modify(self, dn: DN | str, mutator: Callable[[Entry], None]) -> Entry:
        """Apply *mutator* to a copy of the entry and store it back.

        The mutator runs once, here; what reaches the storage engine is
        the resulting post-image, so durable replay never re-runs
        caller code.
        """
        dn = DN.of(dn)
        with self._lock:
            current = self._entries.get(dn)
            if current is None:
                raise NoSuchEntry(dn)
            updated = current.copy()
            mutator(updated)
            updated.dn = dn  # DN is immutable under modify
            if self._schema is not None:
                self._schema.validate(updated)
            self._apply(ChangeOp.put(updated))
            return updated.copy()

    def clear(self) -> None:
        with self._lock:
            self._apply(ChangeOp.clear())

    # -- read ops -------------------------------------------------------------

    def get(self, dn: DN | str) -> Entry:
        dn = DN.of(dn)
        with self._lock:
            entry = self._entries.get(dn)
            if entry is None:
                raise NoSuchEntry(dn)
            return entry.copy()

    def exists(self, dn: DN | str) -> bool:
        with self._lock:
            return DN.of(dn) in self._entries

    def children(self, dn: DN | str) -> List[DN]:
        with self._lock:
            return sorted(
                self._children.get(DN.of(dn), ()), key=lambda d: d.sort_key
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def dns(self) -> List[DN]:
        with self._lock:
            return list(self._entries)

    def candidates(self, filt: Optional[Filter]) -> Optional[Set[DN]]:
        """Planner probe for external engines (the GRIS materialized view).

        Returns a *copy* of the candidate DN set for *filt*, or None when
        the filter is not index-answerable.  Counts toward the
        planned/scanned statistics like a search would.
        """
        with self._lock:
            candidates = candidates_for(filt, self._index)
            if candidates is None:
                self._scanned.inc()
                return None
            self._planned.inc()
            self._candidate_sizes.observe(float(len(candidates)))
            return set(candidates)

    def search(
        self,
        base: DN | str,
        scope: Scope = Scope.SUBTREE,
        filt: Optional[Filter] = None,
        attrs: Optional[Sequence[str]] = None,
        size_limit: int = 0,
    ) -> List[Entry]:
        """Scoped, filtered search returning projected entry copies.

        A missing base yields an empty result for ONELEVEL/SUBTREE (the
        GIIS merges results from many providers, some of which may not
        hold the subtree) and raises for BASE, matching LDAP semantics.

        When the filter is index-answerable the planner verifies only the
        candidate DNs; otherwise the subtree is walked.  Either way every
        result passed ``filt.matches``, and results are sorted into
        canonical order before the size limit applies, so the two paths
        are byte-identical — including the partial set carried on
        :class:`SizeLimitExceeded`.
        """
        base = DN.of(base)
        matched: List[Entry] = []
        # Compile once per search: candidate verification is the hot
        # loop, and the compiled matcher hoists all constant-side
        # normalization out of it.
        match = compile_filter(filt) if filt is not None else None
        with self._lock:
            candidates = (
                candidates_for(filt, self._index)
                if scope != Scope.BASE
                else None
            )
            if scope == Scope.BASE:
                if base not in self._entries:
                    raise NoSuchEntry(base)
                entry = self._entries[base]
                if match is None or match(entry):
                    matched.append(entry)
            elif candidates is not None:
                self._planned.inc()
                self._candidate_sizes.observe(float(len(candidates)))
                for dn in candidates:
                    entry = self._entries.get(dn)
                    if entry is None:
                        continue
                    if not in_scope(dn, base, scope):
                        continue
                    if match is not None and not match(entry):
                        continue
                    matched.append(entry)
            else:
                self._scanned.inc()
                for dn in self._candidates(base, scope):
                    entry = self._entries.get(dn)
                    if entry is None:
                        continue
                    if match is not None and not match(entry):
                        continue
                    matched.append(entry)
            matched.sort(key=lambda e: e.dn.sort_key)
            if size_limit and len(matched) > size_limit:
                raise SizeLimitExceeded(
                    size_limit,
                    partial=[e.project(attrs) for e in matched[:size_limit]],
                )
            return [e.project(attrs) for e in matched]

    def _candidates(self, base: DN, scope: Scope) -> Iterator[DN]:
        if scope == Scope.BASE:
            if base not in self._entries:
                raise NoSuchEntry(base)
            yield base
            return
        if scope == Scope.ONELEVEL:
            yield from self._children.get(base, ())
            return
        # SUBTREE: iterative depth-first walk (LIFO stack).  The base
        # entry itself may be a glue node with no stored entry; descend
        # regardless — callers re-sort results, so visit order is free.
        stack = [base]
        if base in self._entries:
            yield base
        while stack:
            cur = stack.pop()
            for kid in self._children.get(cur, ()):
                yield kid
                stack.append(kid)

    # -- bulk -----------------------------------------------------------------

    def load(self, entries: Sequence[Entry], replace: bool = True) -> int:
        """Add many entries (parents before children not required)."""
        count = 0
        for e in sorted(entries, key=lambda e: len(e.dn)):
            self.add(e, replace=replace)
            count += 1
        return count

    def dump(self) -> List[Entry]:
        with self._lock:
            return [
                self._entries[dn].copy()
                for dn in sorted(self._entries, key=lambda d: d.sort_key)
            ]
