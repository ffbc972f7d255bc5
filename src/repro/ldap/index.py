"""Secondary-index engine: equality and presence postings.

The paper builds GIIS directories from "pluggable indices" (§6.3) and
the MDS2 performance study (Zhang & Schopf) found query servicing — not
registration — to be the scaling bottleneck.  This module is the one
index implementation shared by every layer that searches:

* the :class:`~repro.ldap.dit.DIT` keys it by entry DN and consults it
  through the :mod:`~repro.ldap.plan` query planner;
* each served GRIS provider snapshot carries one keyed by served DN,
  built once per refresh and consulted through the same planner;
* GIIS registrant selection and the GIIS name index key it by service
  URL (children whose namespaces overlap a base; names to URLs).

For each configured attribute the index maintains *equality postings*
(normalized value → key set) and a *presence set* (keys holding any
value).  Values are normalized with the attribute's own matching rule
(:func:`~repro.ldap.attributes.rule_for`), exactly as
``AttributeValues.contains`` normalizes both sides of an equality
filter, so an equality posting list is the *exact* match set for that
assertion — no false positives and, crucially for planner correctness,
no false negatives.

The index holds no lock of its own: every owner (DIT, GIIS backend)
serializes reads and writes under its store lock, or, like a GRIS
snapshot, never writes after building.  The sets :meth:`equality` /
:meth:`presence` return are live views: use them under that lock, or copy.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .attributes import MatchingRule, normalize_attr_name, rule_for

__all__ = ["AttributeIndex"]

_EMPTY: FrozenSet = frozenset()


class AttributeIndex:
    """Equality + presence postings over an attribute subset.

    Keys are opaque hashables (entry DNs for the DIT, service URLs for
    GIIS registrant selection).  ``get_values`` callables map an
    attribute name to the stored values for one key — e.g. a bound
    ``Entry.get`` — so the index never retains entry objects.
    """

    __slots__ = ("_attrs", "_rules", "_eq", "_presence", "_by_key")

    def __init__(
        self,
        attrs: Iterable[str] = (),
        rules: Optional[Dict[str, MatchingRule]] = None,
    ):
        self._attrs: Set[str] = {normalize_attr_name(a) for a in attrs}
        self._rules: Dict[str, MatchingRule] = {
            normalize_attr_name(a): r for a, r in (rules or {}).items()
        }
        # attr -> normalized value -> set of keys
        self._eq: Dict[str, Dict[str, Set[Hashable]]] = {a: {} for a in self._attrs}
        # attr -> set of keys holding any value for attr
        self._presence: Dict[str, Set[Hashable]] = {a: set() for a in self._attrs}
        # Reverse map: key -> [(attr, normalized value), ...] so discard
        # needs no access to the (possibly already mutated) old values.
        self._by_key: Dict[Hashable, List[Tuple[str, str]]] = {}

    def _rule(self, attr: str) -> MatchingRule:
        return self._rules.get(attr) or rule_for(attr)

    # -- maintenance ---------------------------------------------------------

    def add(
        self, key: Hashable, get_values: Callable[[str], Sequence[str]]
    ) -> None:
        """Index *key*; call :meth:`discard` first when re-indexing."""
        pairs: List[Tuple[str, str]] = []
        for attr in self._attrs:
            values = get_values(attr)
            if not values:
                continue
            self._presence[attr].add(key)
            rule = self._rule(attr)
            postings = self._eq[attr]
            for value in values:
                norm = rule.normalize(value)
                postings.setdefault(norm, set()).add(key)
                pairs.append((attr, norm))
        self._by_key[key] = pairs

    def replace(
        self, key: Hashable, get_values: Callable[[str], Sequence[str]]
    ) -> None:
        self.discard(key)
        self.add(key, get_values)

    def discard(self, key: Hashable) -> bool:
        """Drop *key* from every posting list; False if it was unknown."""
        pairs = self._by_key.pop(key, None)
        if pairs is None:
            return False
        attrs_seen: Set[str] = set()
        for attr, norm in pairs:
            postings = self._eq.get(attr)
            if postings is None:  # attr was dropped by a reconfigure
                continue
            bucket = postings.get(norm)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del postings[norm]
            attrs_seen.add(attr)
        for attr in attrs_seen:
            presence = self._presence.get(attr)
            if presence is not None:
                presence.discard(key)
        return True

    def clear(self) -> None:
        for postings in self._eq.values():
            postings.clear()
        for presence in self._presence.values():
            presence.clear()
        self._by_key.clear()

    # -- lookups -------------------------------------------------------------

    def covers(self, attr: str) -> bool:
        return normalize_attr_name(attr) in self._attrs

    def equality(self, attr: str, value: str) -> Optional[Set[Hashable]]:
        """Keys whose *attr* contains *value*; None when not indexed.

        The returned set is a live view — treat it as read-only and only
        under the owner's lock.
        """
        attr = normalize_attr_name(attr)
        postings = self._eq.get(attr)
        if postings is None:
            return None
        return postings.get(self._rule(attr).normalize(value), _EMPTY)

    def presence(self, attr: str) -> Optional[Set[Hashable]]:
        """Keys holding any value for *attr*; None when not indexed."""
        return self._presence.get(normalize_attr_name(attr))

    # -- introspection -------------------------------------------------------

    def attrs(self) -> FrozenSet[str]:
        return frozenset(self._attrs)

    def size(self, attr: str) -> int:
        """Number of keys indexed under *attr* (presence cardinality)."""
        presence = self._presence.get(normalize_attr_name(attr))
        return len(presence) if presence is not None else 0

    def sizes(self) -> Dict[str, int]:
        return {attr: len(keys) for attr, keys in self._presence.items()}

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key
