"""Condor-style matchmaking as a query-evaluation mechanism (§5.3, [23]).

"Or, we can construct directories that employ the Condor matchmaking
algorithm as a query evaluation mechanism."  This module implements a
ClassAd-like language from scratch:

* ads are attribute maps plus ``requirements`` and ``rank`` expressions;
* expressions support arithmetic, comparison, boolean logic,
  ``my.attr`` / ``target.attr`` references, and three-valued logic with
  ``undefined`` (a reference to a missing attribute), matching Condor's
  semantics that an undefined requirement does not match;
* :func:`match` is symmetric — both ads' requirements must hold — and
  candidates are ranked by the requesting ad's ``rank`` expression;
* :class:`MatchmakerDirectory` builds machine ads from pulled GRIS
  entries, so the matchmaker rides the same GRRP/GRIP machinery as any
  other specialized directory.

The paper also notes (§8) that the Matchmaker "does not enforce a type
system, relying instead on informal procedures for achieving reasonably
consistent descriptions" — ads here are schema-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..ldap.attributes import numeric_value
from ..ldap.entry import Entry
from .indexes import PullIndex

__all__ = ["AdError", "Undefined", "UNDEFINED", "ClassAd", "evaluate", "match", "MatchmakerDirectory"]


class AdError(ValueError):
    """Raised on malformed ClassAd expressions."""


class Undefined:
    """The ClassAd 'undefined' value: absorbs most operations."""

    _instance: Optional["Undefined"] = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = Undefined()

Value = Union[float, str, bool, Undefined]


# --------------------------------------------------------------------------
# Expression language
# --------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<number>\d+\.\d*|\.\d+|\d+) |
        (?P<string>"(?:[^"\\]|\\.)*") |
        (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*) |
        (?P<op>\|\||&&|==|!=|<=|>=|[!<>+\-*/()%])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise AdError(f"bad token at {text[pos:pos + 10]!r}")
        pos = m.end()
        for kind in ("number", "string", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    tokens.append(("end", ""))
    return tokens


class _ExprParser:
    """Recursive descent over: or > and > not > cmp > add > mul > unary."""

    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> Tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> Optional[str]:
        kind, value = self.peek()
        if kind == "op" and value in ops:
            self.take()
            return value
        return None

    def parse(self):
        node = self.parse_or()
        if self.peek()[0] != "end":
            raise AdError(f"trailing tokens at {self.peek()[1]!r}")
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.accept_op("||"):
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_cmp()
        while self.accept_op("&&"):
            node = ("and", node, self.parse_cmp())
        return node

    def parse_cmp(self):
        node = self.parse_add()
        op = self.accept_op("==", "!=", "<=", ">=", "<", ">")
        if op:
            node = ("cmp", op, node, self.parse_add())
        return node

    def parse_add(self):
        node = self.parse_mul()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return node
            node = ("arith", op, node, self.parse_mul())

    def parse_mul(self):
        node = self.parse_unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if not op:
                return node
            node = ("arith", op, node, self.parse_unary())

    def parse_unary(self):
        if self.accept_op("!"):
            return ("not", self.parse_unary())
        if self.accept_op("-"):
            return ("neg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        kind, value = self.take()
        if kind == "number":
            return ("lit", float(value))
        if kind == "string":
            return ("lit", value[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if kind == "name":
            low = value.lower()
            if low == "true":
                return ("lit", True)
            if low == "false":
                return ("lit", False)
            if low == "undefined":
                return ("lit", UNDEFINED)
            return ("ref", value)
        if kind == "op" and value == "(":
            node = self.parse_or()
            if not self.accept_op(")"):
                raise AdError("missing closing parenthesis")
            return node
        raise AdError(f"unexpected token {value!r}")


_PARSE_CACHE: Dict[str, tuple] = {}


def _parse_expr(text: str) -> tuple:
    node = _PARSE_CACHE.get(text)
    if node is None:
        node = _ExprParser(_tokenize(text)).parse()
        _PARSE_CACHE[text] = node
    return node


def _coerce(value) -> Value:
    if isinstance(value, (bool, Undefined)):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        num = numeric_value(value)
        return num if num is not None else value
    return UNDEFINED


def _eval(node, my: "ClassAd", target: Optional["ClassAd"]) -> Value:
    tag = node[0]
    if tag == "lit":
        return _coerce(node[1])
    if tag == "ref":
        return _resolve(node[1], my, target)
    if tag == "not":
        value = _eval(node[1], my, target)
        if isinstance(value, Undefined):
            return UNDEFINED
        return not _truthy(value)
    if tag == "neg":
        value = _eval(node[1], my, target)
        if isinstance(value, float):
            return -value
        return UNDEFINED
    if tag == "and":
        left = _eval(node[1], my, target)
        if not isinstance(left, Undefined) and not _truthy(left):
            return False
        right = _eval(node[2], my, target)
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        return _truthy(right)
    if tag == "or":
        left = _eval(node[1], my, target)
        if not isinstance(left, Undefined) and _truthy(left):
            return True
        right = _eval(node[2], my, target)
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        return _truthy(right)
    if tag == "cmp":
        op, left_node, right_node = node[1], node[2], node[3]
        left, right = _eval(left_node, my, target), _eval(right_node, my, target)
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        if isinstance(left, str) and isinstance(right, str):
            left, right = left.lower(), right.lower()
        elif type(left) is not type(right):
            if isinstance(left, bool) or isinstance(right, bool):
                return UNDEFINED
            return UNDEFINED if op not in ("==", "!=") else (op == "!=")
        try:
            return {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[op]
        except TypeError:
            return UNDEFINED
    if tag == "arith":
        op, left_node, right_node = node[1], node[2], node[3]
        left, right = _eval(left_node, my, target), _eval(right_node, my, target)
        if not isinstance(left, float) or not isinstance(right, float):
            return UNDEFINED
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right if right else UNDEFINED
        if op == "%":
            return left % right if right else UNDEFINED
    raise AdError(f"unknown AST node {tag!r}")


def _truthy(value: Value) -> bool:
    if isinstance(value, Undefined):
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0
    return value != ""


def _resolve(name: str, my: "ClassAd", target: Optional["ClassAd"]) -> Value:
    parts = name.split(".", 1)
    if len(parts) == 2:
        scope, attr = parts
        scope = scope.lower()
        if scope == "my":
            return my.value(attr)
        if scope == "target":
            return target.value(attr) if target is not None else UNDEFINED
        return UNDEFINED
    # Bare names resolve against my, then target (Condor's lookup order).
    value = my.value(name)
    if not isinstance(value, Undefined):
        return value
    return target.value(name) if target is not None else UNDEFINED


# --------------------------------------------------------------------------
# Ads and matching
# --------------------------------------------------------------------------


@dataclass
class ClassAd:
    """A schema-free advertisement."""

    attrs: Dict[str, object] = field(default_factory=dict)
    requirements: str = "true"
    rank: str = "0"
    name: str = ""

    def value(self, attr: str) -> Value:
        key = attr.lower()
        for k, v in self.attrs.items():
            if k.lower() == key:
                return _coerce(v)
        return UNDEFINED

    def evaluate(self, expression: str, target: Optional["ClassAd"] = None) -> Value:
        return _eval(_parse_expr(expression), self, target)

    def requirements_met(self, target: "ClassAd") -> bool:
        result = self.evaluate(self.requirements, target)
        return result is True

    def rank_of(self, target: "ClassAd") -> float:
        result = self.evaluate(self.rank, target)
        return result if isinstance(result, float) else 0.0

    @classmethod
    def from_entry(cls, entry: Entry, **extra: object) -> "ClassAd":
        attrs: Dict[str, object] = {"dn": str(entry.dn)}
        for attr, values in entry.items():
            attrs[attr.lower()] = values[0]
        attrs.update(extra)
        return cls(attrs=attrs, name=str(entry.dn))


def evaluate(expression: str, my: ClassAd, target: Optional[ClassAd] = None) -> Value:
    """Evaluate an expression in the context of *my* (and *target*)."""
    return _eval(_parse_expr(expression), my, target)


def match(
    request: ClassAd, candidates: Sequence[ClassAd]
) -> List[Tuple[ClassAd, float]]:
    """Symmetric matchmaking: both requirements must hold; rank by request.

    Returns (candidate, rank) pairs, best first — ties broken by
    candidate name for determinism.
    """
    out: List[Tuple[ClassAd, float]] = []
    for candidate in candidates:
        if request.requirements_met(candidate) and candidate.requirements_met(request):
            out.append((candidate, request.rank_of(candidate)))
    out.sort(key=lambda pair: (-pair[1], pair[0].name))
    return out


class MatchmakerDirectory(PullIndex):
    """A GIIS index that maintains machine ads for matchmaking.

    Computer entries become ads; loadaverage/filesystem/queue children
    fold their attributes into the host's ad (``load5``, ``free``, ...),
    giving requests like ``target.load5 <= 1.0 && target.cpucount >= 4``
    something to chew on.
    """

    def __init__(self, refresh_interval: Optional[float] = None):
        super().__init__("(objectclass=*)", refresh_interval)

    def derive(self, pulled: Mapping[str, Tuple[Entry, ...]]) -> List[ClassAd]:
        # Dedupe by entity DN: the same machine may be reachable through
        # several providers (directly and via its center directory).
        by_dn: Dict[str, ClassAd] = {}
        for url, entries in pulled.items():
            hosts: Dict[str, ClassAd] = {}
            for entry in entries:
                if entry.is_a("computer"):
                    ad = ClassAd.from_entry(entry, provider=url)
                    by_dn.setdefault(str(entry.dn), ad)
                    host = entry.first("hn")
                    if host:
                        hosts[host.lower()] = ad
            for entry in entries:
                if entry.is_a("computer"):
                    continue
                host = _host_component(entry)
                if host is None:
                    continue
                ad = hosts.get(host.lower())
                if ad is None:
                    continue
                for attr, values in entry.items():
                    if attr.lower() not in ("objectclass",):
                        ad.attrs.setdefault(attr.lower(), values[0])
        return list(by_dn.values())

    def machine_ads(self) -> List[ClassAd]:
        return list(self.view())

    def match(self, request: ClassAd) -> List[Tuple[ClassAd, float]]:
        return match(request, self.machine_ads())


def _host_component(entry: Entry) -> Optional[str]:
    for rdn in entry.dn.rdns:
        if rdn.attr.lower() == "hn":
            return rdn.value
    return None
