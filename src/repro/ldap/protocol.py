"""LDAP v3 wire protocol messages (RFC 4511 subset).

Every GRIP exchange is an ``LDAPMessage``::

    LDAPMessage ::= SEQUENCE { messageID INTEGER, protocolOp CHOICE {...},
                               controls [0] Controls OPTIONAL }

This module defines Python dataclasses for the protocol ops MDS-2 uses —
Bind/Unbind, Search (request, result entry, reference, done), Add,
Modify, Delete, Abandon, Extended — and their BER codecs, including the
full Filter encoding and request/response controls (used for the
persistent-search subscription extension, :mod:`repro.ldap.psearch`).

GRRP messages are "mapped onto LDAP add operations and then carried via
the normal LDAP protocol" (paper §10.1), so AddRequest doubles as the
registration carrier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from . import ber
from .ber import BerError, Tag, TlvReader
from .dit import Scope
from .dn import DN
from .entry import Entry
from .filter import (
    MAX_FILTER_DEPTH,
    And,
    Approx,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
)

__all__ = [
    "ProtocolError",
    "ResultCode",
    "LdapResult",
    "Control",
    "TRACE_CONTEXT_OID",
    "TraceContext",
    "BindRequest",
    "BindResponse",
    "UnbindRequest",
    "SearchRequest",
    "SearchResultEntry",
    "SearchResultReference",
    "SearchResultDone",
    "RawEntry",
    "ModifyRequest",
    "ModifyResponse",
    "AddRequest",
    "AddResponse",
    "DeleteRequest",
    "DeleteResponse",
    "AbandonRequest",
    "ExtendedRequest",
    "ExtendedResponse",
    "LdapMessage",
    "encode_message",
    "encode_message_id",
    "encode_message_with_op",
    "encode_search_entry",
    "decode_message",
    "encode_filter",
    "decode_filter",
    "request_encode_stats",
    "reset_request_encode_cache",
]


class ProtocolError(ValueError):
    """Raised on malformed or unsupported protocol messages."""


class ResultCode:
    """RFC 4511 result codes used by this implementation."""

    SUCCESS = 0
    OPERATIONS_ERROR = 1
    PROTOCOL_ERROR = 2
    TIME_LIMIT_EXCEEDED = 3
    SIZE_LIMIT_EXCEEDED = 4
    AUTH_METHOD_NOT_SUPPORTED = 7
    STRONGER_AUTH_REQUIRED = 8
    REFERRAL = 10
    NO_SUCH_ATTRIBUTE = 16
    NO_SUCH_OBJECT = 32
    INVALID_CREDENTIALS = 49
    INSUFFICIENT_ACCESS_RIGHTS = 50
    BUSY = 51
    UNWILLING_TO_PERFORM = 53
    ENTRY_ALREADY_EXISTS = 68
    OBJECT_CLASS_VIOLATION = 65
    OTHER = 80

    _NAMES = {
        0: "success",
        1: "operationsError",
        2: "protocolError",
        3: "timeLimitExceeded",
        4: "sizeLimitExceeded",
        7: "authMethodNotSupported",
        8: "strongerAuthRequired",
        10: "referral",
        16: "noSuchAttribute",
        32: "noSuchObject",
        49: "invalidCredentials",
        50: "insufficientAccessRights",
        51: "busy",
        53: "unwillingToPerform",
        65: "objectClassViolation",
        68: "entryAlreadyExists",
        80: "other",
    }

    @classmethod
    def name(cls, code: int) -> str:
        return cls._NAMES.get(code, f"code{code}")


@dataclass(frozen=True)
class LdapResult:
    """The shared result trailer of most responses."""

    code: int = ResultCode.SUCCESS
    matched_dn: str = ""
    message: str = ""
    referrals: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.code == ResultCode.SUCCESS

    def describe(self) -> str:
        text = ResultCode.name(self.code)
        if self.message:
            text += f": {self.message}"
        return text


@dataclass(frozen=True)
class Control:
    """A request/response control (RFC 4511 §4.1.11)."""

    oid: str
    criticality: bool = False
    value: bytes = b""


# Distributed-tracing context, carried as a NON-critical control on
# outbound searches (and mirrored in GRRP registration metadata).  The
# payload follows W3C trace-context semantics: the caller's trace id,
# the span the callee should parent on, and the root's head-sampling
# decision.  Non-critical means a malformed payload is *ignored* — the
# search proceeds with an unparented root span — unlike the fail-closed
# chain-depth control (:data:`repro.giis.core.CHAIN_DEPTH_OID`), because
# tracing is advisory while loop protection is load-bearing.
TRACE_CONTEXT_OID = "1.3.6.1.4.1.57264.1.2"

_HEX_DIGITS = set("0123456789abcdef")


@dataclass(frozen=True)
class TraceContext:
    """Decoded trace-context control payload.

    BER shape::

        TraceContext ::= SEQUENCE {
            traceId       OCTET STRING,  -- 32 lowercase hex chars
            parentSpanId  OCTET STRING,  -- 16 lowercase hex chars
            sampled       BOOLEAN }
    """

    trace_id: str
    parent_span_id: str
    sampled: bool = True

    def to_control(self) -> Control:
        body = (
            ber.encode_octet_string(self.trace_id)
            + ber.encode_octet_string(self.parent_span_id)
            + ber.encode_boolean(self.sampled)
        )
        return Control(TRACE_CONTEXT_OID, False, ber.encode_sequence(body))

    @classmethod
    def from_control(cls, control: Control) -> "TraceContext":
        """Decode; raises :class:`ProtocolError` on any malformation."""
        if control.oid != TRACE_CONTEXT_OID:
            raise ProtocolError(f"not a trace-context control: {control.oid}")
        try:
            tag, body, end = ber.decode_tlv(control.value)
            if end != len(control.value) or tag.octet != ber.TAG_SEQUENCE:
                raise ProtocolError("trace context must be one SEQUENCE")
            r = TlvReader(body)
            trace_id = r.read_string()
            parent_span_id = r.read_string()
            sampled = r.read_boolean()
            r.expect_end()
        except BerError as exc:
            raise ProtocolError(f"bad trace context: {exc}") from exc
        if len(trace_id) != 32 or not set(trace_id) <= _HEX_DIGITS:
            raise ProtocolError(f"bad trace id {trace_id!r}")
        if len(parent_span_id) != 16 or not set(parent_span_id) <= _HEX_DIGITS:
            raise ProtocolError(f"bad parent span id {parent_span_id!r}")
        return cls(trace_id, parent_span_id, sampled)

    @classmethod
    def find(cls, controls: Sequence[Control]) -> Optional["TraceContext"]:
        """First well-formed trace context in *controls*, else None.

        Malformed payloads yield None rather than raising: the control
        is non-critical, so a bad context degrades to an untraced hop
        instead of failing the operation.
        """
        for control in controls or ():
            if control.oid == TRACE_CONTEXT_OID:
                try:
                    return cls.from_control(control)
                except ProtocolError:
                    return None
        return None


# --------------------------------------------------------------------------
# Protocol op dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BindRequest:
    APP_TAG = 0
    version: int = 3
    name: str = ""
    # mechanism "simple": password auth; "GSI": signed-token SASL bind.
    mechanism: str = "simple"
    credentials: bytes = b""


@dataclass(frozen=True)
class BindResponse:
    APP_TAG = 1
    result: LdapResult = field(default_factory=LdapResult)
    server_credentials: bytes = b""


@dataclass(frozen=True)
class UnbindRequest:
    APP_TAG = 2


@dataclass(frozen=True)
class SearchRequest:
    APP_TAG = 3
    base: str = ""
    scope: Scope = Scope.SUBTREE
    size_limit: int = 0
    time_limit: int = 0
    types_only: bool = False
    filter: Filter = field(default_factory=lambda: Presence("objectclass"))
    attributes: Tuple[str, ...] = ()

    def base_dn(self) -> DN:
        return DN.parse(self.base)

    def wants(self) -> Optional[Tuple[str, ...]]:
        """Attribute selection in Entry.project form (None = all)."""
        return self.attributes if self.attributes else None


@dataclass(frozen=True)
class SearchResultEntry:
    APP_TAG = 4
    dn: str = ""
    attributes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    @classmethod
    def from_entry(cls, entry: Entry) -> "SearchResultEntry":
        return cls(
            dn=str(entry.dn),
            attributes=tuple((a, tuple(vs)) for a, vs in entry.items()),
        )

    def to_entry(self) -> Entry:
        e = Entry(self.dn)
        for attr, values in self.attributes:
            for v in values:
                e.add_value(attr, v)
        return e


class RawEntry:
    """One search result still riding on its wire bytes.

    Streaming backends that gather results from *remote* services (the
    GIIS chaining to registered GRISs, §10.4) hand the front end the
    child's undecoded ``SearchResultEntry`` protocol-op TLV instead of a
    decoded :class:`~repro.ldap.entry.Entry`.  When the parent needs
    nothing from the payload — transparent access policy, no attribute
    selection — the op bytes are re-framed under the parent's message id
    via :func:`encode_message_with_op` with zero decode and zero
    re-encode.  Paths that must inspect the entry (dedup on DN, ACL
    filtering, projection) use the lazy accessors, each decoded at most
    once.

    The op bytes may be a :class:`memoryview` into a network receive
    buffer; such a view is only valid inside the receive callback.  Call
    :meth:`detach` before letting a RawEntry escape that scope.
    """

    __slots__ = ("_op", "_dn", "_entry")

    def __init__(self, op_bytes: "bytes | memoryview"):
        self._op = op_bytes
        self._dn: Optional[str] = None
        self._entry: Optional[Entry] = None

    @property
    def op_bytes(self) -> "bytes | memoryview":
        """The complete SearchResultEntry op TLV (tag + length + value)."""
        return self._op

    @property
    def dn(self) -> str:
        """The entry's DN, peeked without decoding the attribute list.

        The DN is the first OCTET STRING of the op body, so the peek
        walks exactly two TLV headers — cheap enough for per-entry dedup
        on the relay path.
        """
        if self._dn is None:
            _, body, _ = ber.decode_tlv(self._op)
            self._dn = TlvReader(body).read_string()
        return self._dn

    def to_entry(self) -> Entry:
        """The fully decoded entry (decoded lazily, at most once)."""
        if self._entry is None:
            tag, body, _ = ber.decode_tlv(self._op)
            op = _decode_op(tag, body)
            if not isinstance(op, SearchResultEntry):
                raise ProtocolError(
                    f"RawEntry holds {type(op).__name__}, not SearchResultEntry"
                )
            self._entry = op.to_entry()
        return self._entry

    def detach(self) -> "RawEntry":
        """Copy the op bytes out of any shared receive buffer."""
        if type(self._op) is not bytes:
            self._op = bytes(self._op)
        return self

    def __repr__(self) -> str:
        return f"RawEntry({len(self._op)}B)"


@dataclass(frozen=True)
class SearchResultReference:
    APP_TAG = 19
    uris: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SearchResultDone:
    APP_TAG = 5
    result: LdapResult = field(default_factory=LdapResult)


@dataclass(frozen=True)
class ModifyRequest:
    """Changes are (op, attr, values) with op in add/delete/replace."""

    APP_TAG = 6
    OP_ADD = 0
    OP_DELETE = 1
    OP_REPLACE = 2
    dn: str = ""
    changes: Tuple[Tuple[int, str, Tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class ModifyResponse:
    APP_TAG = 7
    result: LdapResult = field(default_factory=LdapResult)


@dataclass(frozen=True)
class AddRequest:
    APP_TAG = 8
    dn: str = ""
    attributes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    @classmethod
    def from_entry(cls, entry: Entry) -> "AddRequest":
        return cls(
            dn=str(entry.dn),
            attributes=tuple((a, tuple(vs)) for a, vs in entry.items()),
        )

    def to_entry(self) -> Entry:
        e = Entry(self.dn)
        for attr, values in self.attributes:
            for v in values:
                e.add_value(attr, v)
        return e


@dataclass(frozen=True)
class AddResponse:
    APP_TAG = 9
    result: LdapResult = field(default_factory=LdapResult)


@dataclass(frozen=True)
class DeleteRequest:
    APP_TAG = 10
    dn: str = ""


@dataclass(frozen=True)
class DeleteResponse:
    APP_TAG = 11
    result: LdapResult = field(default_factory=LdapResult)


@dataclass(frozen=True)
class AbandonRequest:
    APP_TAG = 16
    message_id: int = 0


@dataclass(frozen=True)
class ExtendedRequest:
    APP_TAG = 23
    oid: str = ""
    value: bytes = b""


@dataclass(frozen=True)
class ExtendedResponse:
    APP_TAG = 24
    result: LdapResult = field(default_factory=LdapResult)
    oid: str = ""
    value: bytes = b""


ProtocolOp = Union[
    BindRequest,
    BindResponse,
    UnbindRequest,
    SearchRequest,
    SearchResultEntry,
    SearchResultReference,
    SearchResultDone,
    ModifyRequest,
    ModifyResponse,
    AddRequest,
    AddResponse,
    DeleteRequest,
    DeleteResponse,
    AbandonRequest,
    ExtendedRequest,
    ExtendedResponse,
]


@dataclass(frozen=True)
class LdapMessage:
    message_id: int
    op: ProtocolOp
    controls: Tuple[Control, ...] = ()


# --------------------------------------------------------------------------
# Filter codec (RFC 4511 §4.5.1)
# --------------------------------------------------------------------------

_F_AND, _F_OR, _F_NOT = 0, 1, 2
_F_EQ, _F_SUB, _F_GE, _F_LE, _F_PRESENT, _F_APPROX = 3, 4, 5, 6, 7, 8
_SUB_INITIAL, _SUB_ANY, _SUB_FINAL = 0, 1, 2


def _ava(attr: str, value: str) -> bytes:
    return ber.encode_octet_string(attr) + ber.encode_octet_string(value)


def encode_filter(f: Filter) -> bytes:
    if isinstance(f, And):
        return ber.encode_tlv(
            Tag.context(_F_AND, True), b"".join(encode_filter(c) for c in f.clauses)
        )
    if isinstance(f, Or):
        return ber.encode_tlv(
            Tag.context(_F_OR, True), b"".join(encode_filter(c) for c in f.clauses)
        )
    if isinstance(f, Not):
        return ber.encode_tlv(Tag.context(_F_NOT, True), encode_filter(f.clause))
    if isinstance(f, Equality):
        return ber.encode_tlv(Tag.context(_F_EQ, True), _ava(f.attr, f.value))
    if isinstance(f, GreaterOrEqual):
        return ber.encode_tlv(Tag.context(_F_GE, True), _ava(f.attr, f.value))
    if isinstance(f, LessOrEqual):
        return ber.encode_tlv(Tag.context(_F_LE, True), _ava(f.attr, f.value))
    if isinstance(f, Approx):
        return ber.encode_tlv(Tag.context(_F_APPROX, True), _ava(f.attr, f.value))
    if isinstance(f, Presence):
        return ber.encode_tlv(
            Tag.context(_F_PRESENT, False), f.attr.encode("utf-8")
        )
    if isinstance(f, Substring):
        subs = b""
        if f.initial is not None:
            subs += ber.encode_octet_string(f.initial, Tag.context(_SUB_INITIAL))
        for part in f.any:
            subs += ber.encode_octet_string(part, Tag.context(_SUB_ANY))
        if f.final is not None:
            subs += ber.encode_octet_string(f.final, Tag.context(_SUB_FINAL))
        body = ber.encode_octet_string(f.attr) + ber.encode_sequence(subs)
        return ber.encode_tlv(Tag.context(_F_SUB, True), body)
    raise ProtocolError(f"cannot encode filter node {type(f).__name__}")


def _decode_ava(body: bytes) -> Tuple[str, str]:
    r = TlvReader(body)
    attr = r.read_string()
    value = r.read_string()
    r.expect_end()
    return attr, value


def decode_filter(reader: TlvReader, depth: int = 1) -> Filter:
    if depth > MAX_FILTER_DEPTH:
        raise ProtocolError(f"filter nested deeper than {MAX_FILTER_DEPTH} levels")
    tag, body = reader.read()
    if tag.tag_class != ber.TagClass.CONTEXT:
        raise ProtocolError(f"bad filter tag {tag.octet:#04x}")
    n = tag.number
    if n in (_F_AND, _F_OR):
        clauses: List[Filter] = []
        sub = TlvReader(body)
        while not sub.at_end():
            clauses.append(decode_filter(sub, depth + 1))
        if not clauses:
            raise ProtocolError("empty AND/OR filter")
        return And(tuple(clauses)) if n == _F_AND else Or(tuple(clauses))
    if n == _F_NOT:
        sub = TlvReader(body)
        inner = decode_filter(sub, depth + 1)
        sub.expect_end()
        return Not(inner)
    if n == _F_EQ:
        return Equality(*_decode_ava(body))
    if n == _F_GE:
        return GreaterOrEqual(*_decode_ava(body))
    if n == _F_LE:
        return LessOrEqual(*_decode_ava(body))
    if n == _F_APPROX:
        return Approx(*_decode_ava(body))
    if n == _F_PRESENT:
        return Presence(str(body, "utf-8"))
    if n == _F_SUB:
        r = TlvReader(body)
        attr = r.read_string()
        comps = r.read_sequence()
        r.expect_end()
        initial: Optional[str] = None
        anys: List[str] = []
        final: Optional[str] = None
        while not comps.at_end():
            t, v = comps.read()
            text = str(v, "utf-8")
            if t.number == _SUB_INITIAL:
                initial = text
            elif t.number == _SUB_ANY:
                anys.append(text)
            elif t.number == _SUB_FINAL:
                final = text
            else:
                raise ProtocolError(f"bad substring component tag {t.number}")
        if initial is None and not anys and final is None:
            raise ProtocolError("substring filter with no components")
        return Substring(attr, initial, tuple(anys), final)
    raise ProtocolError(f"unsupported filter choice [{n}]")


# --------------------------------------------------------------------------
# Result / attribute-list codecs
# --------------------------------------------------------------------------

_REFERRAL_TAG = Tag.context(3, True)


def _encode_result(result: LdapResult) -> bytes:
    out = (
        ber.encode_enumerated(result.code)
        + ber.encode_octet_string(result.matched_dn)
        + ber.encode_octet_string(result.message)
    )
    if result.referrals:
        uris = b"".join(ber.encode_octet_string(u) for u in result.referrals)
        out += ber.encode_tlv(_REFERRAL_TAG, uris)
    return out


def _decode_result(r: TlvReader) -> LdapResult:
    code = r.read_enumerated()
    matched = r.read_string()
    message = r.read_string()
    referrals: Tuple[str, ...] = ()
    if not r.at_end() and r.peek_tag().octet == _REFERRAL_TAG.octet:
        _, body = r.read()
        sub = TlvReader(body)
        uris = []
        while not sub.at_end():
            uris.append(sub.read_string())
        referrals = tuple(uris)
    return LdapResult(code, matched, message, referrals)


def _encode_attr_list(attrs: Sequence[Tuple[str, Tuple[str, ...]]]) -> bytes:
    parts = []
    for attr, values in attrs:
        vals = b"".join(ber.encode_octet_string(v) for v in values)
        parts.append(
            ber.encode_sequence([ber.encode_octet_string(attr), ber.encode_set(vals)])
        )
    return ber.encode_sequence(parts)


def _decode_attr_list(r: TlvReader) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    out: List[Tuple[str, Tuple[str, ...]]] = []
    seq = r.read_sequence()
    while not seq.at_end():
        item = seq.read_sequence()
        attr = item.read_string()
        vals_r = item.read_set()
        values: List[str] = []
        while not vals_r.at_end():
            values.append(vals_r.read_string())
        item.expect_end()
        out.append((attr, tuple(values)))
    return tuple(out)


# --------------------------------------------------------------------------
# SearchRequest encode cache
# --------------------------------------------------------------------------
#
# Clients pipeline the same few request shapes over and over (a pool
# fanning one query out to N children; a load generator replaying a
# fixed workload mix).  The two variable-length pieces of a
# SearchRequest body — the base-DN octet string and the recursive
# filter encoding — dominate its encode cost and depend only on values
# that are hashable and immutable, so both are memoized in small LRUs.
# The fixed-width middle (scope/deref/limits/typesOnly) is cheap and
# varies per call (the GIIS rewrites limits per hop), so it is always
# encoded fresh; the result is byte-identical to the uncached path.

_REQ_CACHE_LIMIT = 512
_req_lock = threading.Lock()
_base_cache: "OrderedDict[str, bytes]" = OrderedDict()
_filter_cache: "OrderedDict[Filter, bytes]" = OrderedDict()
_req_hits = 0
_req_misses = 0


def _cached(cache: "OrderedDict", key, encode) -> bytes:
    global _req_hits, _req_misses
    with _req_lock:
        out = cache.get(key)
        if out is not None:
            _req_hits += 1
            cache.move_to_end(key)
            return out
    encoded = encode(key)
    with _req_lock:
        _req_misses += 1
        cache[key] = encoded
        if len(cache) > _REQ_CACHE_LIMIT:
            cache.popitem(last=False)
    return encoded


def request_encode_stats() -> dict:
    """Counters for the SearchRequest encode cache (``ldap.encode.request.*``)."""
    with _req_lock:
        return {
            "hits": _req_hits,
            "misses": _req_misses,
            "base_cached": len(_base_cache),
            "filter_cached": len(_filter_cache),
        }


def reset_request_encode_cache() -> None:
    """Empty the request encode cache and zero its counters (cold start)."""
    global _req_hits, _req_misses
    with _req_lock:
        _base_cache.clear()
        _filter_cache.clear()
        _req_hits = 0
        _req_misses = 0


def _encode_base(base: str) -> bytes:
    return _cached(_base_cache, base, ber.encode_octet_string)


def _encode_filter_cached(f: Filter) -> bytes:
    try:
        return _cached(_filter_cache, f, encode_filter)
    except TypeError:  # unhashable filter node — encode directly
        return encode_filter(f)


# --------------------------------------------------------------------------
# Op codecs
# --------------------------------------------------------------------------


def _encode_op(op: ProtocolOp) -> bytes:
    if isinstance(op, BindRequest):
        body = ber.encode_integer(op.version) + ber.encode_octet_string(op.name)
        if op.mechanism == "simple":
            body += ber.encode_tlv(Tag.context(0), op.credentials)
        else:
            sasl = ber.encode_octet_string(op.mechanism) + ber.encode_octet_string(
                op.credentials
            )
            body += ber.encode_tlv(Tag.context(3, True), sasl)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, BindResponse):
        body = _encode_result(op.result)
        if op.server_credentials:
            body += ber.encode_tlv(Tag.context(7), op.server_credentials)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, UnbindRequest):
        return ber.encode_tlv(Tag.application(op.APP_TAG, constructed=False), b"")
    if isinstance(op, SearchRequest):
        attrs = b"".join(ber.encode_octet_string(a) for a in op.attributes)
        body = (
            _encode_base(op.base)
            + ber.encode_enumerated(int(op.scope))
            + ber.encode_enumerated(0)  # derefAliases: never
            + ber.encode_integer(op.size_limit)
            + ber.encode_integer(op.time_limit)
            + ber.encode_boolean(op.types_only)
            + _encode_filter_cached(op.filter)
            + ber.encode_sequence(attrs)
        )
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, SearchResultEntry):
        body = ber.encode_octet_string(op.dn) + _encode_attr_list(op.attributes)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, SearchResultReference):
        body = b"".join(ber.encode_octet_string(u) for u in op.uris)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, SearchResultDone):
        return ber.encode_tlv(Tag.application(op.APP_TAG), _encode_result(op.result))
    if isinstance(op, ModifyRequest):
        changes = b""
        for kind, attr, values in op.changes:
            vals = b"".join(ber.encode_octet_string(v) for v in values)
            change = ber.encode_enumerated(kind) + ber.encode_sequence(
                [ber.encode_octet_string(attr), ber.encode_set(vals)]
            )
            changes += ber.encode_sequence(change)
        body = ber.encode_octet_string(op.dn) + ber.encode_sequence(changes)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, ModifyResponse):
        return ber.encode_tlv(Tag.application(op.APP_TAG), _encode_result(op.result))
    if isinstance(op, AddRequest):
        body = ber.encode_octet_string(op.dn) + _encode_attr_list(op.attributes)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, AddResponse):
        return ber.encode_tlv(Tag.application(op.APP_TAG), _encode_result(op.result))
    if isinstance(op, DeleteRequest):
        # DelRequest is the bare DN octets under the application tag.
        return ber.encode_tlv(
            Tag.application(op.APP_TAG, constructed=False), op.dn.encode("utf-8")
        )
    if isinstance(op, DeleteResponse):
        return ber.encode_tlv(Tag.application(op.APP_TAG), _encode_result(op.result))
    if isinstance(op, AbandonRequest):
        return ber.encode_integer(
            op.message_id, Tag.application(op.APP_TAG, constructed=False)
        )
    if isinstance(op, ExtendedRequest):
        body = ber.encode_octet_string(op.oid, Tag.context(0))
        if op.value:
            body += ber.encode_tlv(Tag.context(1), op.value)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    if isinstance(op, ExtendedResponse):
        body = _encode_result(op.result)
        if op.oid:
            body += ber.encode_octet_string(op.oid, Tag.context(10))
        if op.value:
            body += ber.encode_tlv(Tag.context(11), op.value)
        return ber.encode_tlv(Tag.application(op.APP_TAG), body)
    raise ProtocolError(f"cannot encode op {type(op).__name__}")


def _decode_op(tag: Tag, body: "bytes | memoryview") -> ProtocolOp:
    if tag.tag_class != ber.TagClass.APPLICATION:
        raise ProtocolError(f"protocol op must be APPLICATION-tagged, got {tag}")
    n = tag.number
    r = TlvReader(body)
    if n == BindRequest.APP_TAG:
        version = r.read_integer()
        name = r.read_string()
        auth_tag, auth_body = r.read()
        if auth_tag.number == 0:
            return BindRequest(version, name, "simple", bytes(auth_body))
        if auth_tag.number == 3:
            sasl = TlvReader(auth_body)
            mech = sasl.read_string()
            creds = sasl.read_octet_string() if not sasl.at_end() else b""
            return BindRequest(version, name, mech, creds)
        raise ProtocolError(f"unsupported bind auth choice [{auth_tag.number}]")
    if n == BindResponse.APP_TAG:
        result = _decode_result(r)
        creds = b""
        if not r.at_end():
            t, v = r.read()
            if t.number == 7:
                creds = bytes(v)
        return BindResponse(result, creds)
    if n == UnbindRequest.APP_TAG:
        return UnbindRequest()
    if n == SearchRequest.APP_TAG:
        base = r.read_string()
        scope = Scope(r.read_enumerated())
        r.read_enumerated()  # derefAliases, ignored
        size_limit = r.read_integer()
        time_limit = r.read_integer()
        types_only = r.read_boolean()
        filt = decode_filter(r)
        attrs_r = r.read_sequence()
        attrs: List[str] = []
        while not attrs_r.at_end():
            attrs.append(attrs_r.read_string())
        return SearchRequest(
            base, scope, size_limit, time_limit, types_only, filt, tuple(attrs)
        )
    if n == SearchResultEntry.APP_TAG:
        dn = r.read_string()
        attrs = _decode_attr_list(r)
        return SearchResultEntry(dn, attrs)
    if n == SearchResultReference.APP_TAG:
        uris = []
        while not r.at_end():
            uris.append(r.read_string())
        return SearchResultReference(tuple(uris))
    if n == SearchResultDone.APP_TAG:
        return SearchResultDone(_decode_result(r))
    if n == ModifyRequest.APP_TAG:
        dn = r.read_string()
        changes_r = r.read_sequence()
        changes: List[Tuple[int, str, Tuple[str, ...]]] = []
        while not changes_r.at_end():
            ch = changes_r.read_sequence()
            kind = ch.read_enumerated()
            pa = ch.read_sequence()
            attr = pa.read_string()
            vals_r = pa.read_set()
            values: List[str] = []
            while not vals_r.at_end():
                values.append(vals_r.read_string())
            changes.append((kind, attr, tuple(values)))
        return ModifyRequest(dn, tuple(changes))
    if n == ModifyResponse.APP_TAG:
        return ModifyResponse(_decode_result(r))
    if n == AddRequest.APP_TAG:
        dn = r.read_string()
        attrs = _decode_attr_list(r)
        return AddRequest(dn, attrs)
    if n == AddResponse.APP_TAG:
        return AddResponse(_decode_result(r))
    if n == DeleteRequest.APP_TAG:
        return DeleteRequest(str(body, "utf-8"))
    if n == DeleteResponse.APP_TAG:
        return DeleteResponse(_decode_result(r))
    if n == AbandonRequest.APP_TAG:
        return AbandonRequest(ber.decode_integer(body))
    if n == ExtendedRequest.APP_TAG:
        oid, value = "", b""
        while not r.at_end():
            t, v = r.read()
            if t.number == 0:
                oid = str(v, "utf-8")
            elif t.number == 1:
                value = bytes(v)
        return ExtendedRequest(oid, value)
    if n == ExtendedResponse.APP_TAG:
        result = _decode_result(r)
        oid, value = "", b""
        while not r.at_end():
            t, v = r.read()
            if t.number == 10:
                oid = str(v, "utf-8")
            elif t.number == 11:
                value = bytes(v)
        return ExtendedResponse(result, oid, value)
    raise ProtocolError(f"unsupported protocol op [APPLICATION {n}]")


_CONTROLS_TAG = Tag.context(0, True)


def encode_message(message: LdapMessage) -> bytes:
    """Encode a complete LDAPMessage to bytes."""
    body = ber.encode_integer(message.message_id) + _encode_op(message.op)
    if message.controls:
        parts = []
        for c in message.controls:
            inner = ber.encode_octet_string(c.oid)
            if c.criticality:
                inner += ber.encode_boolean(True)
            if c.value:
                inner += ber.encode_octet_string(c.value)
            parts.append(ber.encode_sequence(inner))
        body += ber.encode_tlv(_CONTROLS_TAG, b"".join(parts))
    return ber.encode_sequence(body)


def encode_search_entry(entry: "Entry") -> bytes:
    """Encode one DIT entry as a SearchResultEntry protocol-op TLV.

    This is the cacheable unit for the server's entry-encode cache: the
    op bytes do not depend on the message id, so a cached body can be
    composed with any message header via :func:`encode_message_with_op`.
    """
    return _encode_op(SearchResultEntry.from_entry(entry))


def encode_message_id(message_id: int) -> bytes:
    """The messageID TLV that opens every LDAPMessage of one operation:
    encode it once and pass it to :func:`encode_message_with_op` for
    each of the operation's responses."""
    return ber.encode_integer(message_id)


def encode_message_with_op(
    message_id: "int | bytes", op_bytes: "bytes | memoryview"
) -> bytes:
    """Wrap pre-encoded protocol-op bytes in an LDAPMessage envelope.

    Byte-identical to ``encode_message(LdapMessage(message_id, op))`` for
    a message without controls.  *message_id* is the id, or its TLV from
    :func:`encode_message_id`.  Accepts a memoryview (a relay frame
    still aliasing its receive buffer); assembling the outgoing frame is
    the one unavoidable copy on the relay path.
    """
    if type(message_id) is not bytes:
        message_id = ber.encode_integer(message_id)
    header = ber.tlv_header(ber.TAG_SEQUENCE, len(message_id) + len(op_bytes))
    return b"".join((header, message_id, op_bytes))


def decode_message(data: "bytes | memoryview") -> LdapMessage:
    """Decode bytes into an LDAPMessage; rejects trailing garbage."""
    if type(data) is not memoryview:
        data = memoryview(data)
    try:
        tag, body, end = ber.decode_tlv(data)
    except BerError as exc:
        raise ProtocolError(f"bad LDAPMessage framing: {exc}") from exc
    if end != len(data):
        raise ProtocolError("trailing bytes after LDAPMessage")
    if tag.octet != ber.TAG_SEQUENCE:
        raise ProtocolError("LDAPMessage must be a SEQUENCE")
    r = TlvReader(body)
    try:
        message_id = r.read_integer()
        op_tag, op_body = r.read()
        op = _decode_op(op_tag, op_body)
        controls: List[Control] = []
        if not r.at_end():
            t, v = r.read()
            if t.octet == _CONTROLS_TAG.octet:
                sub = TlvReader(v)
                while not sub.at_end():
                    c = sub.read_sequence()
                    oid = c.read_string()
                    criticality = False
                    value = b""
                    if not c.at_end() and c.peek_tag().number == ber.TAG_BOOLEAN:
                        criticality = c.read_boolean()
                    if not c.at_end():
                        value = c.read_octet_string()
                    controls.append(Control(oid, criticality, value))
    except ProtocolError:
        raise
    except ValueError as exc:  # BerError, bad UTF-8, out-of-range enum
        raise ProtocolError(f"bad LDAPMessage body: {exc}") from exc
    return LdapMessage(message_id, op, tuple(controls))
