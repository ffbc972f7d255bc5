"""Distinguished names (RFC 4514 subset).

The LDAP data model names every entry with a *distinguished name* — a
sequence of relative distinguished names (RDNs) ordered leaf-first, e.g.
``perf=load5, hn=hostX, o=O1``.  MDS-2 uses DNs both to name resources
within a provider and, combined with the provider's own address, to form
globally unique names (paper §4.1).

This module implements parsing with RFC 4514 escaping (``\\,`` ``\\=`` and
``\\xx`` hex pairs), normalization (case-insensitive attribute types and
values, whitespace trimming), and the hierarchy operations the DIT needs
(parent, ancestry tests, relative naming).  Multi-valued RDNs
(``a=1+b=2``) are supported since LDAP allows them, though MDS-2 data
never needs more than one AVA per RDN.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import total_ordering
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "DNError",
    "RDN",
    "DN",
    "configure_intern_cache",
    "intern_cache_stats",
]


class DNError(ValueError):
    """Raised on malformed DN strings."""


_ESCAPED_CHARS = set(',+"\\<>;=#')


def _escape_value(value: str) -> str:
    out: List[str] = []
    for i, ch in enumerate(value):
        if ch in _ESCAPED_CHARS:
            out.append("\\" + ch)
        elif ch in (" ",) and (i == 0 or i == len(value) - 1):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append("\\%02x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def _split_unescaped(text: str, seps: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(piece, separator)`` splitting on unescaped separator chars.

    The final piece is yielded with an empty separator.
    """
    buf: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise DNError("dangling escape at end of DN")
            buf.append(text[i : i + 2])
            i += 2
            continue
        if ch in seps:
            yield "".join(buf), ch
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    yield "".join(buf), ""


def _unescape(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(value):
            raise DNError("dangling escape")
        nxt = value[i + 1]
        if nxt in _ESCAPED_CHARS or nxt == " ":
            out.append(nxt)
            i += 2
            continue
        if i + 2 <= len(value) and _is_hex(value[i + 1 : i + 3]):
            out.append(chr(int(value[i + 1 : i + 3], 16)))
            i += 3
            continue
        raise DNError(f"invalid escape \\{nxt!r}")
    return "".join(out)


def _is_hex(s: str) -> bool:
    return len(s) == 2 and all(c in "0123456789abcdefABCDEF" for c in s)


def _parse_rdn_fast(text: str) -> "RDN":
    """Parse one RDN known to contain no ``\\`` escapes.

    ``str.split``/``str.partition`` replace the char-by-char escape
    state machine; behavior (including errors) matches the slow path
    for every escape-free input.
    """
    avas: List[Tuple[str, str]] = []
    for comp in text.split("+"):
        attr, eq, value = comp.partition("=")
        if not eq or "=" in value:
            raise DNError(f"RDN component {comp!r} must be attr=value")
        attr = attr.strip()
        if not attr:
            raise DNError(f"missing attribute type in {comp!r}")
        avas.append((attr, value.strip()))
    return RDN(tuple(avas))


# --------------------------------------------------------------------------
# DN.parse intern cache
# --------------------------------------------------------------------------
#
# GRIS/GIIS re-parse the same handful of DN strings — search bases, entry
# DNs in write requests, suffixes in registrations — once per request.
# Parsed DNs are immutable and memoize their normalization and hash, so a
# bounded LRU keyed on the *raw* string can hand every request the same
# shared object: a hit skips parsing, normalization, and hashing at once.

_INTERN_LOCK = threading.Lock()
_INTERN_CAPACITY = 4096
_INTERN: "OrderedDict[str, DN]" = OrderedDict()
_INTERN_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def configure_intern_cache(capacity: int) -> None:
    """Resize the :meth:`DN.parse` intern cache (0 disables it)."""
    global _INTERN_CAPACITY
    with _INTERN_LOCK:
        _INTERN_CAPACITY = max(0, int(capacity))
        while len(_INTERN) > _INTERN_CAPACITY:
            _INTERN.popitem(last=False)


def intern_cache_stats() -> Dict[str, int]:
    """Point-in-time cache counters: size, capacity, hits, misses, evictions."""
    with _INTERN_LOCK:
        return {
            "size": len(_INTERN),
            "capacity": _INTERN_CAPACITY,
            **_INTERN_STATS,
        }


@total_ordering
@dataclass(frozen=True)
class RDN:
    """A relative distinguished name: one or more attribute-value pairs."""

    avas: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.avas:
            raise DNError("empty RDN")
        for attr, _ in self.avas:
            if not attr or not attr.replace("-", "").replace(".", "").isalnum():
                raise DNError(f"invalid attribute type {attr!r}")

    @classmethod
    def single(cls, attr: str, value: str) -> "RDN":
        return cls(((attr, value),))

    @classmethod
    def parse(cls, text: str) -> "RDN":
        if "\\" not in text:
            return _parse_rdn_fast(text)
        avas: List[Tuple[str, str]] = []
        for piece, _sep in _split_unescaped(text, "+"):
            parts = list(_split_unescaped(piece, "="))
            if len(parts) != 2:
                raise DNError(f"RDN component {piece!r} must be attr=value")
            attr = parts[0][0].strip()
            value = _unescape(parts[1][0].strip())
            if not attr:
                raise DNError(f"missing attribute type in {piece!r}")
            avas.append((attr, value))
        return cls(tuple(avas))

    @property
    def attr(self) -> str:
        """Attribute type of the first (usually only) AVA."""
        return self.avas[0][0]

    @property
    def value(self) -> str:
        """Value of the first (usually only) AVA."""
        return self.avas[0][1]

    def normalized(self) -> Tuple[Tuple[str, str], ...]:
        # Memoized: RDNs are frozen, and normalization backs __eq__ and
        # __hash__, both hot in every DIT dictionary operation.
        cached = self.__dict__.get("_normalized")
        if cached is None:
            cached = tuple(
                sorted((a.lower(), " ".join(v.lower().split())) for a, v in self.avas)
            )
            object.__setattr__(self, "_normalized", cached)
        return cached

    def __str__(self) -> str:
        return "+".join(f"{a}={_escape_value(v)}" for a, v in self.avas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDN):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __lt__(self, other: "RDN") -> bool:
        return self.normalized() < other.normalized()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.normalized())
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True)
class DN:
    """An LDAP distinguished name, leaf RDN first.

    ``DN.parse("perf=load5, hn=hostX")`` names the ``perf=load5`` entry
    directly under ``hn=hostX``.  The empty DN (``DN.root()``) is the DIT
    root suffix.
    """

    rdns: Tuple[RDN, ...] = ()

    @classmethod
    def root(cls) -> "DN":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "DN":
        if cls is DN and _INTERN_CAPACITY:
            with _INTERN_LOCK:
                dn = _INTERN.get(text)
                if dn is not None:
                    _INTERN.move_to_end(text)
                    _INTERN_STATS["hits"] += 1
                    return dn
                _INTERN_STATS["misses"] += 1
        dn = cls._parse(text)
        if cls is DN and _INTERN_CAPACITY:
            # Warm the memos outside the lock so every future hit shares
            # the normalization and hash, not just the parse.
            dn.normalized()
            hash(dn)
            with _INTERN_LOCK:
                _INTERN[text] = dn
                _INTERN.move_to_end(text)
                if len(_INTERN) > _INTERN_CAPACITY:
                    _INTERN.popitem(last=False)
                    _INTERN_STATS["evictions"] += 1
        return dn

    @classmethod
    def _parse(cls, text: str) -> "DN":
        text = text.strip()
        if not text:
            return cls.root()
        rdns = []
        if "\\" not in text:
            for piece in text.replace(";", ",").split(","):
                piece = piece.strip()
                if not piece:
                    raise DNError(f"empty RDN in {text!r}")
                rdns.append(_parse_rdn_fast(piece))
            return cls(tuple(rdns))
        for piece, _sep in _split_unescaped(text, ",;"):
            piece = piece.strip()
            if not piece:
                raise DNError(f"empty RDN in {text!r}")
            rdns.append(RDN.parse(piece))
        return cls(tuple(rdns))

    @classmethod
    def of(cls, value: "DN | str") -> "DN":
        return value if isinstance(value, DN) else cls.parse(value)

    def is_root(self) -> bool:
        return not self.rdns

    @property
    def rdn(self) -> RDN:
        if not self.rdns:
            raise DNError("root DN has no RDN")
        return self.rdns[0]

    def parent(self) -> "DN":
        if not self.rdns:
            raise DNError("root DN has no parent")
        return DN(self.rdns[1:])

    def child(self, rdn: RDN | str) -> "DN":
        if isinstance(rdn, str):
            rdn = RDN.parse(rdn)
        return DN((rdn,) + self.rdns)

    def is_descendant_of(self, ancestor: "DN") -> bool:
        """True if *self* is strictly below *ancestor*."""
        n = len(self.rdns) - len(ancestor.rdns)
        return n > 0 and self.normalized()[n:] == ancestor.normalized()

    def is_within(self, ancestor: "DN") -> bool:
        """True if *self* equals *ancestor* or is below it."""
        return self == ancestor or self.is_descendant_of(ancestor)

    def depth_below(self, ancestor: "DN") -> int:
        """Number of RDN levels between *self* and *ancestor* (0 if equal)."""
        if not self.is_within(ancestor):
            raise DNError(f"{self} is not within {ancestor}")
        return len(self.rdns) - len(ancestor.rdns)

    def relative_to(self, suffix: "DN") -> Tuple[RDN, ...]:
        """RDNs of *self* below *suffix*, leaf first."""
        if not self.is_within(suffix):
            raise DNError(f"{self} is not within {suffix}")
        return self.rdns[: len(self.rdns) - len(suffix.rdns)]

    def ancestors(self) -> Iterator["DN"]:
        """Yield parent, grandparent, ..., root."""
        dn = self
        while not dn.is_root():
            dn = dn.parent()
            yield dn

    def normalized(self) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
        cached = self.__dict__.get("_normalized")
        if cached is None:
            cached = tuple(r.normalized() for r in self.rdns)
            object.__setattr__(self, "_normalized", cached)
        return cached

    @property
    def sort_key(self) -> Tuple[int, str]:
        """Canonical result-ordering key: ``(depth, lowercased string)``.

        Memoized on the (frozen) instance — every search re-sorts its
        result set, and rebuilding the lowercased string per comparison
        was measurable O(N log N) string work on the query hot path.
        """
        cached = self.__dict__.get("_sort_key")
        if cached is None:
            cached = (len(self.rdns), str(self).lower())
            object.__setattr__(self, "_sort_key", cached)
        return cached

    def __str__(self) -> str:
        return ", ".join(str(r) for r in self.rdns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.normalized())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __len__(self) -> int:
        return len(self.rdns)


def common_suffix(dns: Sequence[DN] | Iterable[DN]) -> DN:
    """Longest DN that every DN in *dns* is within (the shared suffix)."""
    dns = list(dns)
    if not dns:
        return DN.root()
    # Compare suffix-first (reversed RDN order).
    rev = [list(reversed(d.rdns)) for d in dns]
    out: List[RDN] = []
    for level in zip(*rev):
        if all(r == level[0] for r in level[1:]):
            out.append(level[0])
        else:
            break
    return DN(tuple(reversed(out)))
