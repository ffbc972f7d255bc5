"""The in-memory engine: the tree state every search is served from.

Owns the entry map and the parent→children adjacency (including glue
nodes) under a :class:`~repro.ldap.dit.DIT`.  Apply is mechanical —
upsert, remove-if-present, clear — and mutates the maps *in place* so
owners that alias ``entries``/``children`` for reads stay valid across
a ``CLEAR``.  Holds no lock of its own: the owner (DIT or GIIS)
serializes calls, exactly as :class:`AttributeIndex` documents.  The
WAL engine is this one plus a log.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..dn import DN
from ..entry import Entry
from .api import ChangeKind, ChangeOp, StorageEngine

__all__ = ["MemoryEngine"]


class MemoryEngine(StorageEngine):
    """Volatile tree state; ``replay``/``snapshot`` are no-ops."""

    backend_name = "memory"

    def __init__(self):
        self.entries: Dict[DN, Entry] = {}
        self.children: Dict[DN, Set[DN]] = {}

    # -- the choke point -------------------------------------------------------

    def apply(self, op: ChangeOp) -> Optional[Entry]:
        return self._apply_memory(op)

    def _apply_memory(self, op: ChangeOp) -> Optional[Entry]:
        """Mutate the in-memory maps only (shared with WAL replay)."""
        if op.kind == ChangeKind.PUT:
            self.entries[op.dn] = op.entry
            self._link(op.dn)
            return op.entry
        if op.kind == ChangeKind.DELETE:
            if self.entries.pop(op.dn, None) is not None:
                self._unlink(op.dn)
            return None
        if op.kind == ChangeKind.CLEAR:
            self.entries.clear()
            self.children.clear()
            return None
        raise ValueError(f"unknown change kind {op.kind!r}")

    # -- tree adjacency --------------------------------------------------------

    def _link(self, dn: DN) -> None:
        # Register the whole ancestor chain so subtree traversal crosses
        # glue nodes (ancestors with no stored entry of their own).
        cur = dn
        for parent in dn.ancestors():
            kids = self.children.setdefault(parent, set())
            if cur in kids:
                break
            kids.add(cur)
            cur = parent

    def _unlink(self, dn: DN) -> None:
        # Prune upward: drop parent->child links for chains that hold
        # neither an entry nor any descendants.
        cur = dn
        while not cur.is_root():
            if cur in self.entries or self.children.get(cur):
                break
            parent = cur.parent()
            kids = self.children.get(parent)
            if kids:
                kids.discard(cur)
                if not kids:
                    del self.children[parent]
            cur = parent

    # -- durability (none) -----------------------------------------------------

    def replay(self) -> int:
        return 0

    def snapshot(self) -> int:
        return 0

    def close(self) -> None:
        pass
