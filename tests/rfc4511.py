"""RFC 4511 ``LDAPMessage`` in pyasn1, written from the RFC's ASN.1 module
(Appendix B) as an oracle that shares no code with :mod:`repro.ldap`.

It covers every operation this project puts on the wire, plus the
request and response controls it carries.  pyasn1 types cannot refer to
themselves, so ``Filter`` is unrolled ``MAX_FILTER_DEPTH`` levels: the
spec decodes every filter :func:`repro.ldap.protocol.decode_filter`
accepts.  :func:`to_asn1` and :func:`from_asn1` translate between this
spec and :class:`repro.ldap.protocol.LdapMessage`.

Import it only after ``pytest.importorskip("pyasn1")``.
"""

from pyasn1.codec.ber import decoder, encoder
from pyasn1.codec.cer import encoder as cer_encoder
from pyasn1.error import SubstrateUnderrunError
from pyasn1.type import namedtype, tag, univ

from repro.ldap.dit import Scope
from repro.ldap.filter import (
    MAX_FILTER_DEPTH,
    And,
    Approx,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
)
from repro.ldap import protocol as p

NT, OPT, DEF = namedtype.NamedType, namedtype.OptionalNamedType, namedtype.DefaultedNamedType


def _app(n, constructed=True):
    fmt = tag.tagFormatConstructed if constructed else tag.tagFormatSimple
    return tag.Tag(tag.tagClassApplication, fmt, n)


def _ctx(n, constructed=False):
    fmt = tag.tagFormatConstructed if constructed else tag.tagFormatSimple
    return tag.Tag(tag.tagClassContext, fmt, n)


# LDAPString, LDAPOID, LDAPDN, AttributeDescription, AttributeValue,
# AssertionValue and URI are all OCTET STRING on the wire.
def _s():
    return univ.OctetString()


class AttributeValueAssertion(univ.Sequence):
    componentType = namedtype.NamedTypes(NT("attributeDesc", _s()), NT("assertionValue", _s()))


class PartialAttribute(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("type", _s()), NT("vals", univ.SetOf(componentType=_s()))
    )


class PartialAttributeList(univ.SequenceOf):
    componentType = PartialAttribute()


class Referral(univ.SequenceOf):
    componentType = _s()


def _result():  # COMPONENTS OF LDAPResult
    return [
        NT("resultCode", univ.Enumerated()),
        NT("matchedDN", _s()),
        NT("diagnosticMessage", _s()),
        OPT("referral", Referral().subtype(implicitTag=_ctx(3, True))),
    ]


class Control(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("controlType", _s()),
        DEF("criticality", univ.Boolean(False)),
        OPT("controlValue", _s()),
    )


class Controls(univ.SequenceOf):
    componentType = Control()


class SaslCredentials(univ.Sequence):
    componentType = namedtype.NamedTypes(NT("mechanism", _s()), OPT("credentials", _s()))


class AuthenticationChoice(univ.Choice):
    componentType = namedtype.NamedTypes(
        NT("simple", univ.OctetString().subtype(implicitTag=_ctx(0))),
        NT("sasl", SaslCredentials().subtype(implicitTag=_ctx(3, True))),
    )


class BindRequest(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(0))
    componentType = namedtype.NamedTypes(
        NT("version", univ.Integer()),
        NT("name", _s()),
        NT("authentication", AuthenticationChoice()),
    )


class BindResponse(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(1))
    componentType = namedtype.NamedTypes(
        *_result(), OPT("serverSaslCreds", univ.OctetString().subtype(implicitTag=_ctx(7)))
    )


class UnbindRequest(univ.Null):
    tagSet = univ.Null.tagSet.tagImplicitly(_app(2, False))


class SubstringChoice(univ.Choice):
    componentType = namedtype.NamedTypes(
        NT("initial", univ.OctetString().subtype(implicitTag=_ctx(0))),
        NT("any", univ.OctetString().subtype(implicitTag=_ctx(1))),
        NT("final", univ.OctetString().subtype(implicitTag=_ctx(2))),
    )


class SubstringFilter(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("type", _s()), NT("substrings", univ.SequenceOf(componentType=SubstringChoice()))
    )


class MatchingRuleAssertion(univ.Sequence):
    componentType = namedtype.NamedTypes(
        OPT("matchingRule", univ.OctetString().subtype(implicitTag=_ctx(1))),
        OPT("type", univ.OctetString().subtype(implicitTag=_ctx(2))),
        NT("matchValue", univ.OctetString().subtype(implicitTag=_ctx(3))),
        DEF("dnAttributes", univ.Boolean(False).subtype(implicitTag=_ctx(4))),
    )


class Filter(univ.Choice):
    def __repr__(self):
        # Each level refers to the next three times: printing the whole
        # unrolled type (pyasn1 does, for its messages) never ends.
        return f"Filter({self.getName() if self.isValue else ''})"


def _filter(depth: int) -> Filter:
    """``Filter`` with at most *depth* levels of and/or/not."""
    alternatives = []
    if depth > 1:
        inner = _filter(depth - 1)
        alternatives = [
            NT("and", univ.SetOf(componentType=inner).subtype(implicitTag=_ctx(0, True))),
            NT("or", univ.SetOf(componentType=inner).subtype(implicitTag=_ctx(1, True))),
            # A tagged CHOICE is always explicitly tagged (X.680 §31.2.7).
            NT("not", inner.subtype(explicitTag=_ctx(2, True))),
        ]
    ava = AttributeValueAssertion
    alternatives += [
        NT("equalityMatch", ava().subtype(implicitTag=_ctx(3, True))),
        NT("substrings", SubstringFilter().subtype(implicitTag=_ctx(4, True))),
        NT("greaterOrEqual", ava().subtype(implicitTag=_ctx(5, True))),
        NT("lessOrEqual", ava().subtype(implicitTag=_ctx(6, True))),
        NT("present", univ.OctetString().subtype(implicitTag=_ctx(7))),
        NT("approxMatch", ava().subtype(implicitTag=_ctx(8, True))),
        NT("extensibleMatch", MatchingRuleAssertion().subtype(implicitTag=_ctx(9, True))),
    ]
    return Filter(componentType=namedtype.NamedTypes(*alternatives))


class SearchRequest(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(3))
    componentType = namedtype.NamedTypes(
        NT("baseObject", _s()),
        NT("scope", univ.Enumerated()),
        NT("derefAliases", univ.Enumerated()),
        NT("sizeLimit", univ.Integer()),
        NT("timeLimit", univ.Integer()),
        NT("typesOnly", univ.Boolean()),
        NT("filter", _filter(MAX_FILTER_DEPTH)),
        NT("attributes", univ.SequenceOf(componentType=_s())),
    )


class SearchResultEntry(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(4))
    componentType = namedtype.NamedTypes(
        NT("objectName", _s()), NT("attributes", PartialAttributeList())
    )


class SearchResultReference(univ.SequenceOf):
    tagSet = univ.SequenceOf.tagSet.tagImplicitly(_app(19))
    componentType = _s()


def _result_op(n):
    class Result(univ.Sequence):
        tagSet = univ.Sequence.tagSet.tagImplicitly(_app(n))
        componentType = namedtype.NamedTypes(*_result())

    return Result


SearchResultDone = _result_op(5)
ModifyResponse = _result_op(7)
AddResponse = _result_op(9)
DelResponse = _result_op(11)


class Change(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("operation", univ.Enumerated()), NT("modification", PartialAttribute())
    )


class ModifyRequest(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(6))
    componentType = namedtype.NamedTypes(
        NT("object", _s()), NT("changes", univ.SequenceOf(componentType=Change()))
    )


class AddRequest(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(8))
    componentType = namedtype.NamedTypes(NT("entry", _s()), NT("attributes", PartialAttributeList()))


class DelRequest(univ.OctetString):
    tagSet = univ.OctetString.tagSet.tagImplicitly(_app(10, False))


class AbandonRequest(univ.Integer):
    tagSet = univ.Integer.tagSet.tagImplicitly(_app(16, False))


class ExtendedRequest(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(23))
    componentType = namedtype.NamedTypes(
        NT("requestName", univ.OctetString().subtype(implicitTag=_ctx(0))),
        OPT("requestValue", univ.OctetString().subtype(implicitTag=_ctx(1))),
    )


class ExtendedResponse(univ.Sequence):
    tagSet = univ.Sequence.tagSet.tagImplicitly(_app(24))
    componentType = namedtype.NamedTypes(
        *_result(),
        OPT("responseName", univ.OctetString().subtype(implicitTag=_ctx(10))),
        OPT("responseValue", univ.OctetString().subtype(implicitTag=_ctx(11))),
    )


class ProtocolOp(univ.Choice):
    componentType = namedtype.NamedTypes(
        NT("bindRequest", BindRequest()),
        NT("bindResponse", BindResponse()),
        NT("unbindRequest", UnbindRequest()),
        NT("searchRequest", SearchRequest()),
        NT("searchResEntry", SearchResultEntry()),
        NT("searchResDone", SearchResultDone()),
        NT("searchResRef", SearchResultReference()),
        NT("modifyRequest", ModifyRequest()),
        NT("modifyResponse", ModifyResponse()),
        NT("addRequest", AddRequest()),
        NT("addResponse", AddResponse()),
        NT("delRequest", DelRequest()),
        NT("delResponse", DelResponse()),
        NT("abandonRequest", AbandonRequest()),
        NT("extendedReq", ExtendedRequest()),
        NT("extendedResp", ExtendedResponse()),
    )


class LDAPMessage(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("messageID", univ.Integer()),
        NT("protocolOp", ProtocolOp()),
        OPT("controls", Controls().subtype(implicitTag=_ctx(0, True))),
    )


# -- control values -------------------------------------------------------


class PersistentSearch(univ.Sequence):  # draft-ietf-ldapext-psearch-03 §4
    componentType = namedtype.NamedTypes(
        NT("changeTypes", univ.Integer()),
        NT("changesOnly", univ.Boolean()),
        NT("returnECs", univ.Boolean()),
    )


class EntryChangeNotification(univ.Sequence):  # draft-ietf-ldapext-psearch-03 §5
    componentType = namedtype.NamedTypes(
        NT("changeType", univ.Enumerated()),
        OPT("previousDN", _s()),
        OPT("changeNumber", univ.Integer()),
    )


class TraceContext(univ.Sequence):
    componentType = namedtype.NamedTypes(
        NT("traceId", _s()), NT("parentSpanId", _s()), NT("sampled", univ.Boolean())
    )


# -- codec -----------------------------------------------------------------


# Definite-length BER, with TRUE written 0xFF as DER and CER require
# (X.690 §11.1) instead of BER's 0x01.
_TAG_MAP = dict(encoder.TAG_MAP)
_TYPE_MAP = dict(encoder.TYPE_MAP)
_TAG_MAP[univ.Boolean.tagSet] = _TYPE_MAP[univ.Boolean.typeId] = cer_encoder.BooleanEncoder()
_encode = encoder.Encoder(_TAG_MAP, _TYPE_MAP)


def encode(value) -> bytes:
    return _encode(value)


def decode(data: bytes, spec=None):
    """One value of *spec* (an ``LDAPMessage`` by default) from the front
    of *data*, and the bytes after it."""
    return decoder.decode(data, asn1Spec=spec if spec is not None else LDAPMessage())


def receive(sock, until) -> list:
    """LDAPMessages read off *sock*, each delimited by nothing but its own
    BER length, up to the first one for which ``until(message)`` holds."""
    buf, out = b"", []
    while not out or not until(out[-1]):
        chunk = sock.recv(65536)
        assert chunk, "the server closed the connection"
        buf += chunk
        while buf:
            try:
                message, buf = decode(buf)
            except SubstrateUnderrunError:
                break
            out.append(message)
    return out


def _text(value) -> str:
    return bytes(value).decode("utf-8")


def _opt(seq, name):
    return seq.getComponentByName(name, default=None, instantiate=False)


# -- pyasn1 -> LdapMessage -------------------------------------------------


def _filter_from(f):
    name, v = f.getName(), f.getComponent()
    if name in ("and", "or"):
        clauses = tuple(_filter_from(c) for c in v)
        return And(clauses) if name == "and" else Or(clauses)
    if name == "not":
        return Not(_filter_from(v))
    if name == "present":
        return Presence(_text(v))
    if name == "substrings":
        parts = {"initial": None, "any": [], "final": None}
        for s in v["substrings"]:
            kind = s.getName()
            if kind == "any":
                parts["any"].append(_text(s.getComponent()))
            else:
                parts[kind] = _text(s.getComponent())
        return Substring(_text(v["type"]), parts["initial"], tuple(parts["any"]), parts["final"])
    ava = {
        "equalityMatch": Equality,
        "greaterOrEqual": GreaterOrEqual,
        "lessOrEqual": LessOrEqual,
        "approxMatch": Approx,
    }[name]
    return ava(_text(v["attributeDesc"]), _text(v["assertionValue"]))


def _result_from(v) -> p.LdapResult:
    referral = _opt(v, "referral")
    return p.LdapResult(
        int(v["resultCode"]),
        _text(v["matchedDN"]),
        _text(v["diagnosticMessage"]),
        tuple(_text(u) for u in referral) if referral is not None else (),
    )


def _attrs_from(v):
    return tuple((_text(a["type"]), tuple(_text(x) for x in a["vals"])) for a in v)


def _op_from(op):
    name, v = op.getName(), op.getComponent()
    if name == "bindRequest":
        auth = v["authentication"]
        if auth.getName() == "simple":
            mechanism, creds = "simple", bytes(auth.getComponent())
        else:
            sasl = auth.getComponent()
            creds = _opt(sasl, "credentials")
            mechanism, creds = _text(sasl["mechanism"]), bytes(creds) if creds is not None else b""
        return p.BindRequest(int(v["version"]), _text(v["name"]), mechanism, creds)
    if name == "bindResponse":
        creds = _opt(v, "serverSaslCreds")
        return p.BindResponse(_result_from(v), bytes(creds) if creds is not None else b"")
    if name == "unbindRequest":
        return p.UnbindRequest()
    if name == "searchRequest":
        return p.SearchRequest(
            _text(v["baseObject"]),
            Scope(int(v["scope"])),
            int(v["sizeLimit"]),
            int(v["timeLimit"]),
            bool(v["typesOnly"]),
            _filter_from(v["filter"]),
            tuple(_text(a) for a in v["attributes"]),
        )
    if name == "searchResEntry":
        return p.SearchResultEntry(_text(v["objectName"]), _attrs_from(v["attributes"]))
    if name == "searchResRef":
        return p.SearchResultReference(tuple(_text(u) for u in v))
    if name == "modifyRequest":
        changes = tuple(
            (
                int(c["operation"]),
                _text(c["modification"]["type"]),
                tuple(_text(x) for x in c["modification"]["vals"]),
            )
            for c in v["changes"]
        )
        return p.ModifyRequest(_text(v["object"]), changes)
    if name == "addRequest":
        return p.AddRequest(_text(v["entry"]), _attrs_from(v["attributes"]))
    if name == "delRequest":
        return p.DeleteRequest(_text(v))
    if name == "abandonRequest":
        return p.AbandonRequest(int(v))
    if name == "extendedReq":
        value = _opt(v, "requestValue")
        return p.ExtendedRequest(_text(v["requestName"]), bytes(value) if value is not None else b"")
    if name == "extendedResp":
        oid, value = _opt(v, "responseName"), _opt(v, "responseValue")
        return p.ExtendedResponse(
            _result_from(v),
            _text(oid) if oid is not None else "",
            bytes(value) if value is not None else b"",
        )
    result_ops = {
        "searchResDone": p.SearchResultDone,
        "modifyResponse": p.ModifyResponse,
        "addResponse": p.AddResponse,
        "delResponse": p.DeleteResponse,
    }
    return result_ops[name](_result_from(v))


def from_asn1(message) -> p.LdapMessage:
    controls = _opt(message, "controls")
    return p.LdapMessage(
        int(message["messageID"]),
        _op_from(message["protocolOp"]),
        tuple(
            p.Control(
                _text(c["controlType"]),
                bool(c["criticality"]),
                bytes(_opt(c, "controlValue") or b""),
            )
            for c in (controls if controls is not None else ())
        ),
    )


# -- LdapMessage -> pyasn1 -------------------------------------------------


def _empty(seq, name):
    """Component *name* of *seq*, a SEQUENCE OF / SET OF present with no
    members yet (pyasn1 leaves a fresh one unset, which would not encode)."""
    members = seq.getComponentByName(name)
    members.clear()
    return members


def _fill_filter(node, f) -> None:
    """Write filter *f* into the empty Filter choice *node* in place, so
    each child keeps the tags of the level it sits at."""
    if isinstance(f, (And, Or)):
        members = _empty(node, "and" if isinstance(f, And) else "or")
        for i, clause in enumerate(f.clauses):
            _fill_filter(members.getComponentByPosition(i), clause)
    elif isinstance(f, Not):
        _fill_filter(node.getComponentByName("not"), f.clause)
    elif isinstance(f, Presence):
        node["present"] = f.attr.encode()
    elif isinstance(f, Substring):
        sub = node.getComponentByName("substrings")
        sub["type"] = f.attr.encode()
        parts = _empty(sub, "substrings")
        pieces = [("initial", f.initial)] if f.initial is not None else []
        pieces += [("any", a) for a in f.any]
        pieces += [("final", f.final)] if f.final is not None else []
        for i, (kind, text) in enumerate(pieces):
            parts.getComponentByPosition(i)[kind] = text.encode()
    else:
        name = {
            Equality: "equalityMatch",
            GreaterOrEqual: "greaterOrEqual",
            LessOrEqual: "lessOrEqual",
            Approx: "approxMatch",
        }[type(f)]
        ava = node.getComponentByName(name)
        ava["attributeDesc"] = f.attr.encode()
        ava["assertionValue"] = f.value.encode()


def _fill_result(v, r: p.LdapResult) -> None:
    v["resultCode"] = r.code
    v["matchedDN"] = r.matched_dn.encode()
    v["diagnosticMessage"] = r.message.encode()
    if r.referrals:
        referral = _empty(v, "referral")
        for i, uri in enumerate(r.referrals):
            referral[i] = uri.encode()


def _fill_attribute(item, attr, values) -> None:
    item["type"] = attr.encode()
    vals = _empty(item, "vals")
    for i, value in enumerate(values):
        vals[i] = value.encode()


def _fill_attrs(seq, name, attributes) -> None:
    members = _empty(seq, name)
    for i, (attr, values) in enumerate(attributes):
        _fill_attribute(members.getComponentByPosition(i), attr, values)


def _fill_op(choice, op) -> None:
    if isinstance(op, p.BindRequest):
        v = choice.getComponentByName("bindRequest")
        v["version"], v["name"] = op.version, op.name.encode()
        auth = v.getComponentByName("authentication")
        if op.mechanism == "simple":
            auth["simple"] = op.credentials
        else:
            sasl = auth.getComponentByName("sasl")
            sasl["mechanism"], sasl["credentials"] = op.mechanism.encode(), op.credentials
    elif isinstance(op, p.BindResponse):
        v = choice.getComponentByName("bindResponse")
        _fill_result(v, op.result)
        if op.server_credentials:
            v["serverSaslCreds"] = op.server_credentials
    elif isinstance(op, p.UnbindRequest):
        choice["unbindRequest"] = b""
    elif isinstance(op, p.SearchRequest):
        v = choice.getComponentByName("searchRequest")
        v["baseObject"] = op.base.encode()
        v["scope"], v["derefAliases"] = int(op.scope), 0
        v["sizeLimit"], v["timeLimit"] = op.size_limit, op.time_limit
        v["typesOnly"] = op.types_only
        _fill_filter(v.getComponentByName("filter"), op.filter)
        attrs = _empty(v, "attributes")
        for i, a in enumerate(op.attributes):
            attrs[i] = a.encode()
    elif isinstance(op, p.SearchResultEntry):
        v = choice.getComponentByName("searchResEntry")
        v["objectName"] = op.dn.encode()
        _fill_attrs(v, "attributes", op.attributes)
    elif isinstance(op, p.SearchResultReference):
        v = choice.getComponentByName("searchResRef")
        v.clear()
        for i, uri in enumerate(op.uris):
            v[i] = uri.encode()
    elif isinstance(op, p.ModifyRequest):
        v = choice.getComponentByName("modifyRequest")
        v["object"] = op.dn.encode()
        changes = _empty(v, "changes")
        for i, (kind, attr, values) in enumerate(op.changes):
            change = changes.getComponentByPosition(i)
            change["operation"] = kind
            _fill_attribute(change.getComponentByName("modification"), attr, values)
    elif isinstance(op, p.AddRequest):
        v = choice.getComponentByName("addRequest")
        v["entry"] = op.dn.encode()
        _fill_attrs(v, "attributes", op.attributes)
    elif isinstance(op, p.DeleteRequest):
        choice["delRequest"] = op.dn.encode()
    elif isinstance(op, p.AbandonRequest):
        choice["abandonRequest"] = op.message_id
    elif isinstance(op, p.ExtendedRequest):
        v = choice.getComponentByName("extendedReq")
        v["requestName"] = op.oid.encode()
        if op.value:
            v["requestValue"] = op.value
    elif isinstance(op, p.ExtendedResponse):
        v = choice.getComponentByName("extendedResp")
        _fill_result(v, op.result)
        if op.oid:
            v["responseName"] = op.oid.encode()
        if op.value:
            v["responseValue"] = op.value
    else:
        name = {
            p.SearchResultDone: "searchResDone",
            p.ModifyResponse: "modifyResponse",
            p.AddResponse: "addResponse",
            p.DeleteResponse: "delResponse",
        }[type(op)]
        _fill_result(choice.getComponentByName(name), op.result)


def to_asn1(message: p.LdapMessage) -> LDAPMessage:
    m = LDAPMessage()
    m["messageID"] = message.message_id
    _fill_op(m.getComponentByName("protocolOp"), message.op)
    if message.controls:
        controls = _empty(m, "controls")
        for i, c in enumerate(message.controls):
            control = controls.getComponentByPosition(i)
            control["controlType"] = c.oid.encode()
            control["criticality"] = c.criticality
            if c.value:
                control["controlValue"] = c.value
    return m
