"""Filter-aware query planning over an :class:`AttributeIndex`.

The planner walks a parsed RFC 4515 :class:`~repro.ldap.filter.Filter`
tree and extracts the *indexable* part of the assertion:

* ``Equality`` → the attribute's equality posting list;
* ``Presence`` → the attribute's presence set;
* ``And`` → the intersection of every plannable conjunct (any single
  indexed conjunct suffices — the others are re-verified);
* ``Or`` → the union of the disjuncts, but only when *all* of them are
  plannable (one unplannable disjunct could match keys outside every
  index, so a partial union would drop results).

Everything else — ``Substring``, ordering (``>=``/``<=``), ``Not``,
``Approx`` — returns ``None``: *no candidate set*, fall back to the full
scan.  ``Not`` in particular cannot use its operand's postings (its
matches are the complement), but a ``Not`` nested under an ``And`` is
harmless: the AND plans from its other conjuncts.

Correctness contract: a non-``None`` candidate set is always a
**superset** of the keys matching the filter (restricted to the indexed
attribute semantics), never missing a match.  Callers re-verify every
candidate with ``filt.matches``, so planned and scanned searches return
byte-identical results; the index only prunes the candidate space.

Candidate sets may be live index views — consume them under the index
owner's lock, or copy.  The planner asks only ``equality`` and
``presence``, so anything answering those (a GRIS snapshot that builds
its postings per attribute on first use) can stand for the index.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set

from .filter import And, Equality, Filter, Or, Presence
from .index import AttributeIndex

__all__ = ["candidates_for", "is_plannable"]


def candidates_for(
    filt: Optional[Filter], index: AttributeIndex
) -> Optional[Set[Hashable]]:
    """Candidate key set for *filt*, or None to fall back to a scan."""
    if filt is None:
        return None
    if isinstance(filt, Equality):
        return index.equality(filt.attr, filt.value)
    if isinstance(filt, Presence):
        return index.presence(filt.attr)
    if isinstance(filt, And):
        plans = []
        for clause in filt.clauses:
            candidates = candidates_for(clause, index)
            if candidates is not None:
                plans.append(candidates)
        if not plans:
            return None
        # Intersect smallest-first so the working set shrinks fastest.
        plans.sort(key=len)
        out = plans[0]
        for candidates in plans[1:]:
            out = out & candidates
            if not out:
                break
        return out
    if isinstance(filt, Or):
        plans = []
        for clause in filt.clauses:
            candidates = candidates_for(clause, index)
            if candidates is None:
                return None  # one unindexed branch poisons the union
            plans.append(candidates)
        out: Set[Hashable] = set()
        for candidates in plans:
            out |= candidates
        return out
    # Substring / ordering / Not / Approx: not index-answerable.
    return None


def is_plannable(filt: Optional[Filter], index: AttributeIndex) -> bool:
    """Whether the planner would produce a candidate set for *filt*."""
    if filt is None:
        return False
    if isinstance(filt, (Equality, Presence)):
        return index.covers(filt.attr)
    if isinstance(filt, And):
        return any(is_plannable(c, index) for c in filt.clauses)
    if isinstance(filt, Or):
        return bool(filt.clauses) and all(
            is_plannable(c, index) for c in filt.clauses
        )
    return False
