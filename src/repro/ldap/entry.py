"""Directory entries: the unit of the LDAP data model.

An entry is a DN plus a set of typed attributes (Figure 3 of the paper).
Every entry carries one or more ``objectclass`` values that type it; the
remaining attributes are value bindings according to those types.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from .attributes import AttributeValues, normalize_attr_name
from .dn import DN

__all__ = ["Entry", "WireCache"]

# Attribute conventionally holding the entry's object classes.
OBJECTCLASS = "objectclass"


class WireCache:
    """A shared cell caching one entry's encoded SearchResultEntry body.

    The DIT attaches a *fresh* cell to every stored post-image (the
    :class:`~repro.ldap.storage.ChangeOp` choke point), the GRIS to
    every entry of a provider snapshot's served form, and entry copies
    share their source's cell — so every search result taken from the
    same unchanged stored entry resolves to the same cell, and the
    server encodes that entry once instead of once per client.
    Invalidation is by replacement: a new post-image (or the next
    provider refresh) gets a new empty cell, and local mutation of a
    copy drops the copy's reference, so a stale body can never be
    observed through a live entry.
    """

    __slots__ = ("body",)

    def __init__(self) -> None:
        self.body: Optional[bytes] = None


class Entry:
    """A mutable LDAP entry: DN + attribute map.

    Attribute names are case-insensitive; each attribute holds a
    duplicate-free ordered multi-set of string values.  Construction
    accepts plain strings, lists of strings, or numbers (stringified)::

        Entry("hn=hostX", objectclass="computer", system="mips irix")
    """

    __slots__ = ("dn", "_attrs", "_wire")

    def __init__(
        self,
        dn: DN | str,
        attrs: Optional[Mapping[str, object]] = None,
        **kwattrs: object,
    ):
        self.dn = DN.of(dn)
        self._attrs: Dict[str, AttributeValues] = {}
        # Encode-cache cell, attached by the DIT when this object is a
        # stored post-image (by the GRIS when it is part of a served
        # provider snapshot) and propagated to full copies; None means
        # "not served from a cacheable store" and is always safe.
        self._wire: Optional[WireCache] = None
        merged: Dict[str, object] = dict(attrs or {})
        merged.update(kwattrs)
        for name, values in merged.items():
            self.put(name, values)

    # -- mutation ----------------------------------------------------------
    #
    # Every mutator drops this entry's wire-cache reference (not the
    # shared cell: other unmutated copies may still serve from it).

    def put(self, attr: str, values: object) -> None:
        """Replace *attr* with *values* (str, number, or iterable)."""
        self._wire = None
        key = normalize_attr_name(attr)
        av = AttributeValues(attr)
        for v in _as_values(values):
            av.add(v)
        if av:
            self._attrs[key] = av
        else:
            self._attrs.pop(key, None)

    def add_value(self, attr: str, value: object) -> bool:
        self._wire = None
        key = normalize_attr_name(attr)
        if key not in self._attrs:
            self._attrs[key] = AttributeValues(attr)
        return self._attrs[key].add(str(value))

    def remove_value(self, attr: str, value: object) -> bool:
        self._wire = None
        key = normalize_attr_name(attr)
        av = self._attrs.get(key)
        if av is None:
            return False
        removed = av.remove(str(value))
        if not av:
            del self._attrs[key]
        return removed

    def remove_attr(self, attr: str) -> bool:
        self._wire = None
        return self._attrs.pop(normalize_attr_name(attr), None) is not None

    # -- access ------------------------------------------------------------

    def get(self, attr: str) -> List[str]:
        av = self._attrs.get(normalize_attr_name(attr))
        return av.values() if av else []

    def first(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        av = self._attrs.get(normalize_attr_name(attr))
        return av.first if av else default

    def has(self, attr: str) -> bool:
        return normalize_attr_name(attr) in self._attrs

    def has_value(self, attr: str, value: str) -> bool:
        av = self._attrs.get(normalize_attr_name(attr))
        return av.contains(value) if av else False

    def attribute_names(self) -> List[str]:
        return [av.attr for av in self._attrs.values()]

    def items(self) -> Iterator[tuple[str, List[str]]]:
        for av in self._attrs.values():
            yield av.attr, av.values()

    @property
    def object_classes(self) -> List[str]:
        return self.get(OBJECTCLASS)

    def is_a(self, object_class: str) -> bool:
        return self.has_value(OBJECTCLASS, object_class)

    # -- derived views -----------------------------------------------------

    def project(self, attrs: Optional[Sequence[str]]) -> "Entry":
        """Copy with only the requested attributes (None/'*' = all).

        Implements the GRIP/LDAP attribute-selection feature the paper
        highlights: "a subset of attributes ... can be retrieved —
        reducing the amount of information that must be transmitted".
        """
        if attrs is None or any(a == "*" for a in attrs):
            return self.copy()
        wanted = {normalize_attr_name(a) for a in attrs}
        out = Entry(self.dn)
        for key, av in self._attrs.items():
            if key in wanted:
                out._attrs[key] = av.copy()
        return out

    def copy(self) -> "Entry":
        out = Entry(self.dn)
        out._attrs = {k: av.copy() for k, av in self._attrs.items()}
        # A full copy is wire-equivalent to its source: share the cell.
        out._wire = self._wire
        return out

    def with_dn(self, dn: DN | str) -> "Entry":
        out = self.copy()
        out.dn = DN.of(dn)
        out._wire = None  # renamed: the cached body carries the old DN
        return out

    def stamp(self, now: Optional[float] = None, ttl: Optional[float] = None) -> "Entry":
        """Attach the currency metadata §2.1 of the paper requires.

        Adds ``mds-timestamp`` (seconds since the epoch at production
        time) and optionally ``mds-validto`` so consumers can judge
        staleness.
        """
        t = time.time() if now is None else now
        self.put("mds-timestamp", repr(float(t)))
        if ttl is not None:
            self.put("mds-validto", repr(float(t) + float(ttl)))
        return self

    def timestamp(self) -> Optional[float]:
        v = self.first("mds-timestamp")
        return float(v) if v is not None else None

    def valid_to(self) -> Optional[float]:
        v = self.first("mds-validto")
        return float(v) if v is not None else None

    def is_stale(self, now: float) -> bool:
        vt = self.valid_to()
        return vt is not None and now > vt

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        if self.dn != other.dn:
            return False
        if set(self._attrs) != set(other._attrs):
            return False
        return all(self._attrs[k] == other._attrs[k] for k in self._attrs)

    def same_attrs(self, other: "Entry", ignoring: Iterable[str] = ()) -> bool:
        """Attribute-map equality, skipping the normalized names in
        *ignoring*; the DN is not compared and nothing is copied."""
        mine = self._attrs.keys() - ignoring
        return mine == other._attrs.keys() - ignoring and all(
            self._attrs[k] == other._attrs[k] for k in mine
        )

    def __repr__(self) -> str:
        return f"Entry({str(self.dn)!r}, {dict(self.items())!r})"


def _as_values(values: object) -> Iterable[str]:
    if values is None:
        return []
    if isinstance(values, str):
        return [values]
    if isinstance(values, (int, float)):
        return [str(values)]
    if isinstance(values, (list, tuple, set, frozenset)):
        return [str(v) for v in values]
    if isinstance(values, AttributeValues):
        return values.values()
    raise TypeError(f"cannot build attribute values from {type(values).__name__}")
