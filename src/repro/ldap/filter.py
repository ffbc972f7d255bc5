"""LDAP search filters (RFC 4515 string form, RFC 4511 semantics).

GRIP adopts LDAP's query language; "a filter can be used in all cases to
specify a set of criteria to be matched" (paper §4.1).  This module
implements the full string grammar::

    (&(objectclass=computer)(system=*linux*)(!(load5>=2.0))(cpucount>=4))

with AND / OR / NOT, equality, presence (``attr=*``), substring
(initial/any/final components), ordering (``>=``, ``<=``) and approximate
(``~=``) matches, plus RFC 4515 ``\\xx`` escapes.  Evaluation follows
LDAP's three-valued logic collapsed to boolean: comparing against an
absent attribute is simply false (undefined).

The AST round-trips: ``parse(str(ast)) == ast``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .attributes import normalize_attr_name, rule_for
from .entry import Entry

__all__ = [
    "FilterError",
    "Filter",
    "And",
    "Or",
    "Not",
    "Equality",
    "Presence",
    "Substring",
    "GreaterOrEqual",
    "LessOrEqual",
    "Approx",
    "MAX_FILTER_DEPTH",
    "parse",
    "present",
    "eq",
    "compile_filter",
]

# A compiled filter: entry -> bool, with all constant-side work
# (attribute-name normalization, matching-rule lookup, constant
# normalization/numeric parse) hoisted out of the per-entry call.
Matcher = Callable[[Entry], bool]


class FilterError(ValueError):
    """Raised on malformed filter strings."""


# Nesting bound, in filter nodes from the root to the deepest leaf:
# ``(a=b)`` is 1 deep, ``(!(a=b))`` 2.  Matching, printing and encoding
# all recurse, so a deeper filter is malformed — in a string here and
# on the wire in :func:`repro.ldap.protocol.decode_filter`.
MAX_FILTER_DEPTH = 64


# Characters that must be escaped inside filter values (RFC 4515 §3).
_MUST_ESCAPE = {"(": "\\28", ")": "\\29", "*": "\\2a", "\\": "\\5c", "\x00": "\\00"}


def escape_value(value: str) -> str:
    return "".join(_MUST_ESCAPE.get(ch, ch) for ch in value)


class Filter:
    """Base class for filter AST nodes."""

    def matches(self, entry: Entry) -> bool:
        raise NotImplementedError

    def compile(self) -> Matcher:
        """Compile this node into a matcher closure.

        ``f.compile()(e) == f.matches(e)`` for every entry; the compiled
        form normalizes the filter's constants exactly once instead of
        once per candidate, and tests equality against the entry's
        pre-normalized value memos.  Compile once per request, then
        apply per entry (see :func:`compile_filter`).
        """
        return self.matches  # safe fallback for exotic subclasses

    def attributes(self) -> set[str]:
        """All attribute types this filter references (for index planning)."""
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


@dataclass(frozen=True, repr=False)
class And(Filter):
    clauses: Tuple[Filter, ...]

    def matches(self, entry: Entry) -> bool:
        return all(c.matches(entry) for c in self.clauses)

    def compile(self) -> Matcher:
        kids = tuple(c.compile() for c in self.clauses)

        def match(entry: Entry) -> bool:
            for k in kids:
                if not k(entry):
                    return False
            return True

        return match

    def attributes(self) -> set[str]:
        out: set[str] = set()
        for c in self.clauses:
            out |= c.attributes()
        return out

    def __str__(self) -> str:
        return "(&" + "".join(str(c) for c in self.clauses) + ")"


@dataclass(frozen=True, repr=False)
class Or(Filter):
    clauses: Tuple[Filter, ...]

    def matches(self, entry: Entry) -> bool:
        return any(c.matches(entry) for c in self.clauses)

    def compile(self) -> Matcher:
        kids = tuple(c.compile() for c in self.clauses)

        def match(entry: Entry) -> bool:
            for k in kids:
                if k(entry):
                    return True
            return False

        return match

    def attributes(self) -> set[str]:
        out: set[str] = set()
        for c in self.clauses:
            out |= c.attributes()
        return out

    def __str__(self) -> str:
        return "(|" + "".join(str(c) for c in self.clauses) + ")"


@dataclass(frozen=True, repr=False)
class Not(Filter):
    clause: Filter

    def matches(self, entry: Entry) -> bool:
        return not self.clause.matches(entry)

    def compile(self) -> Matcher:
        kid = self.clause.compile()
        return lambda entry: not kid(entry)

    def attributes(self) -> set[str]:
        return self.clause.attributes()

    def __str__(self) -> str:
        return f"(!{self.clause})"


@dataclass(frozen=True, repr=False)
class Equality(Filter):
    attr: str
    value: str

    def matches(self, entry: Entry) -> bool:
        return entry.has_value(self.attr, self.value)

    def compile(self) -> Matcher:
        key = normalize_attr_name(self.attr)
        want = rule_for(self.attr).normalize(self.value)

        def match(entry: Entry) -> bool:
            av = entry._attrs.get(key)
            return av is not None and want in av.normalized

        return match

    def attributes(self) -> set[str]:
        return {normalize_attr_name(self.attr)}

    def __str__(self) -> str:
        return f"({self.attr}={escape_value(self.value)})"


@dataclass(frozen=True, repr=False)
class Presence(Filter):
    attr: str

    def matches(self, entry: Entry) -> bool:
        return entry.has(self.attr)

    def compile(self) -> Matcher:
        key = normalize_attr_name(self.attr)
        return lambda entry: key in entry._attrs

    def attributes(self) -> set[str]:
        return {normalize_attr_name(self.attr)}

    def __str__(self) -> str:
        return f"({self.attr}=*)"


@dataclass(frozen=True, repr=False)
class Substring(Filter):
    """``attr=initial*any1*any2*final`` — empty initial/final allowed."""

    attr: str
    initial: Optional[str]
    any: Tuple[str, ...]
    final: Optional[str]

    def matches(self, entry: Entry) -> bool:
        rule = rule_for(self.attr)
        initial, anys, final = self._patterns(rule)
        for raw in entry.get(self.attr):
            if _substring_match(rule.substring_haystack(raw), initial, anys, final):
                return True
        return False

    def _patterns(self, rule) -> Tuple[Optional[str], Tuple[str, ...], Optional[str]]:
        """The components normalized into haystack form."""
        return (
            rule.substring_haystack(self.initial) if self.initial is not None else None,
            tuple(rule.substring_haystack(p) for p in self.any),
            rule.substring_haystack(self.final) if self.final is not None else None,
        )

    def compile(self) -> Matcher:
        key = normalize_attr_name(self.attr)
        rule = rule_for(self.attr)
        initial, anys, final = self._patterns(rule)
        haystack = rule.substring_haystack

        def match(entry: Entry) -> bool:
            av = entry._attrs.get(key)
            if av is None:
                return False
            for raw in av.raw:
                if _substring_match(haystack(raw), initial, anys, final):
                    return True
            return False

        return match

    def attributes(self) -> set[str]:
        return {normalize_attr_name(self.attr)}

    def __str__(self) -> str:
        parts = [escape_value(self.initial) if self.initial is not None else ""]
        parts.extend(escape_value(a) for a in self.any)
        parts.append(escape_value(self.final) if self.final is not None else "")
        return f"({self.attr}={'*'.join(parts)})"


def _substring_match(
    hay: str,
    initial: Optional[str],
    anys: Tuple[str, ...],
    final: Optional[str],
) -> bool:
    """Match one normalized haystack against normalized components."""
    pos = 0
    if initial is not None:
        if not hay.startswith(initial):
            return False
        pos = len(initial)
    for pat in anys:
        idx = hay.find(pat, pos)
        if idx < 0:
            return False
        pos = idx + len(pat)
    if final is not None:
        if len(hay) - pos < len(final) or not hay.endswith(final):
            return False
    return True


class _Ordering(Filter):
    op = "?"

    def __init__(self, attr: str, value: str):
        self.attr = attr
        self.value = value

    def _cmp_ok(self, c: int) -> bool:
        raise NotImplementedError

    def matches(self, entry: Entry) -> bool:
        rule = rule_for(self.attr)
        return any(
            self._cmp_ok(rule.compare(v, self.value)) for v in entry.get(self.attr)
        )

    def compile(self) -> Matcher:
        key = normalize_attr_name(self.attr)
        cmp = rule_for(self.attr).comparer(self.value)
        ok = self._cmp_ok

        def match(entry: Entry) -> bool:
            av = entry._attrs.get(key)
            if av is None:
                return False
            for v in av.raw:
                if ok(cmp(v)):
                    return True
            return False

        return match

    def attributes(self) -> set[str]:
        return {normalize_attr_name(self.attr)}

    def __str__(self) -> str:
        return f"({self.attr}{self.op}{escape_value(self.value)})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.attr == other.attr  # type: ignore[attr-defined]
            and self.value == other.value  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.attr, self.value))


class GreaterOrEqual(_Ordering):
    """``attr>=value`` under the attribute's ordering rule."""

    op = ">="

    def _cmp_ok(self, c: int) -> bool:
        return c >= 0


class LessOrEqual(_Ordering):
    """``attr<=value`` under the attribute's ordering rule."""

    op = "<="

    def _cmp_ok(self, c: int) -> bool:
        return c <= 0


@dataclass(frozen=True, repr=False)
class Approx(Filter):
    """``~=``: equal after aggressive normalization (alnum only)."""

    attr: str
    value: str

    @staticmethod
    def _squash(value: str) -> str:
        return "".join(ch for ch in value.lower() if ch.isalnum())

    def matches(self, entry: Entry) -> bool:
        want = self._squash(self.value)
        return any(self._squash(v) == want for v in entry.get(self.attr))

    def compile(self) -> Matcher:
        key = normalize_attr_name(self.attr)
        want = self._squash(self.value)
        squash = self._squash

        def match(entry: Entry) -> bool:
            av = entry._attrs.get(key)
            if av is None:
                return False
            for v in av.raw:
                if squash(v) == want:
                    return True
            return False

        return match

    def attributes(self) -> set[str]:
        return {normalize_attr_name(self.attr)}

    def __str__(self) -> str:
        return f"({self.attr}~={escape_value(self.value)})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> FilterError:
        return FilterError(f"{msg} at offset {self.pos} in {self.text!r}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.take() != ch:
            self.pos -= 1
            raise self.error(f"expected {ch!r}")

    def parse_filter(self, depth: int = 1) -> Filter:
        if depth > MAX_FILTER_DEPTH:
            raise self.error(f"filter nested deeper than {MAX_FILTER_DEPTH} levels")
        self.expect("(")
        ch = self.peek()
        if ch == "&":
            self.take()
            node: Filter = And(tuple(self.parse_filter_list(depth + 1)))
        elif ch == "|":
            self.take()
            node = Or(tuple(self.parse_filter_list(depth + 1)))
        elif ch == "!":
            self.take()
            node = Not(self.parse_filter(depth + 1))
        else:
            node = self.parse_item()
        self.expect(")")
        return node

    def parse_filter_list(self, depth: int) -> List[Filter]:
        clauses: List[Filter] = []
        while self.peek() == "(":
            clauses.append(self.parse_filter(depth))
        if not clauses:
            raise self.error("empty filter list")
        return clauses

    def parse_item(self) -> Filter:
        attr = self.parse_attr()
        ch = self.take()
        if ch == ">":
            self.expect("=")
            return GreaterOrEqual(attr, self.parse_value())
        if ch == "<":
            self.expect("=")
            return LessOrEqual(attr, self.parse_value())
        if ch == "~":
            self.expect("=")
            return Approx(attr, self.parse_value())
        if ch != "=":
            self.pos -= 1
            raise self.error("expected one of = >= <= ~=")
        return self.parse_equality_or_substring(attr)

    def parse_attr(self) -> str:
        start = self.pos
        while self.peek() and (self.peek().isalnum() or self.peek() in "-._;"):
            self.take()
        attr = self.text[start : self.pos]
        if not attr:
            raise self.error("missing attribute description")
        return attr

    def parse_value(self, stop: str = ")") -> str:
        out: List[str] = []
        while True:
            ch = self.peek()
            if ch == "" or ch in stop:
                return "".join(out)
            if ch == "(":
                raise self.error("unescaped '(' in value")
            if ch == "\\":
                self.take()
                hexpair = self.text[self.pos : self.pos + 2]
                if len(hexpair) != 2 or not all(
                    c in "0123456789abcdefABCDEF" for c in hexpair
                ):
                    raise self.error("invalid escape; expected \\XX hex pair")
                out.append(chr(int(hexpair, 16)))
                self.pos += 2
                continue
            out.append(self.take())

    def parse_equality_or_substring(self, attr: str) -> Filter:
        # Collect star-separated chunks up to ')'.
        chunks: List[str] = [self.parse_value(stop=")*")]
        stars = 0
        while self.peek() == "*":
            self.take()
            stars += 1
            chunks.append(self.parse_value(stop=")*"))
        if stars == 0:
            return Equality(attr, chunks[0])
        if stars == 1 and chunks == ["", ""]:
            return Presence(attr)
        initial = chunks[0] if chunks[0] else None
        final = chunks[-1] if chunks[-1] else None
        middle = tuple(c for c in chunks[1:-1] if c != "")
        if len(middle) != len(chunks) - 2:
            raise self.error("empty substring component (consecutive '*')")
        return Substring(attr, initial, middle, final)


def compile_filter(f: Optional[Filter]) -> Matcher:
    """Compile *f* into a per-entry matcher (None matches everything).

    The hot-path form of filter evaluation: the search path compiles the
    request filter once, then applies the matcher per candidate — no
    re-normalization of filter constants, no matching-rule lookups, and
    equality runs directly against each attribute's pre-normalized
    value memo set.  Semantically identical to ``f.matches``.
    """
    if f is None:
        return lambda entry: True
    return f.compile()


def parse(text: str) -> Filter:
    """Parse an RFC 4515 filter string into an AST."""
    p = _Parser(text.strip())
    node = p.parse_filter()
    if p.pos != len(p.text):
        raise p.error("trailing characters after filter")
    return node


def present(attr: str) -> Filter:
    return Presence(attr)


def eq(attr: str, value: str) -> Filter:
    return Equality(attr, value)
