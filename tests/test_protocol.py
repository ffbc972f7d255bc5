"""Round-trip and error tests for the LDAP wire protocol codec."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.ldap import ber
from repro.ldap.backend import DitBackend
from repro.ldap.ber import Tag, TlvReader
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.filter import (
    MAX_FILTER_DEPTH,
    And,
    Equality,
    Filter,
    Not,
    Or,
    Presence,
    parse as parse_filter,
)
from repro.ldap.protocol import (
    AbandonRequest,
    AddRequest,
    AddResponse,
    BindRequest,
    BindResponse,
    Control,
    DeleteRequest,
    DeleteResponse,
    ExtendedRequest,
    ExtendedResponse,
    LdapMessage,
    LdapResult,
    ModifyRequest,
    ModifyResponse,
    ProtocolError,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    SearchResultReference,
    UnbindRequest,
    decode_filter,
    decode_message,
    encode_filter,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.net import SimNetwork, Simulator
from repro.obs import RingSink, Tracer


def roundtrip(msg: LdapMessage) -> LdapMessage:
    return decode_message(encode_message(msg))


class TestOpRoundtrips:
    def test_bind_simple(self):
        msg = LdapMessage(1, BindRequest(3, "cn=admin", "simple", b"secret"))
        assert roundtrip(msg) == msg

    def test_bind_sasl(self):
        msg = LdapMessage(1, BindRequest(3, "", "GSI", b"\x00\x01token"))
        assert roundtrip(msg) == msg

    def test_bind_response_with_credentials(self):
        msg = LdapMessage(
            1,
            BindResponse(LdapResult(ResultCode.SUCCESS), server_credentials=b"proof"),
        )
        assert roundtrip(msg) == msg

    def test_unbind(self):
        assert roundtrip(LdapMessage(9, UnbindRequest())) == LdapMessage(
            9, UnbindRequest()
        )

    def test_search_request_full(self):
        req = SearchRequest(
            base="o=Grid",
            scope=Scope.ONELEVEL,
            size_limit=50,
            time_limit=10,
            types_only=True,
            filter=parse_filter("(&(objectclass=computer)(load5<=2.0))"),
            attributes=("cn", "load5"),
        )
        msg = LdapMessage(2, req)
        assert roundtrip(msg) == msg

    def test_search_result_entry_from_entry(self):
        e = Entry("hn=hostX", objectclass=["computer"], hn="hostX", cpucount=4)
        msg = LdapMessage(2, SearchResultEntry.from_entry(e))
        back = roundtrip(msg)
        assert back.op.to_entry() == e

    def test_search_result_reference(self):
        msg = LdapMessage(2, SearchResultReference(("ldap://h1/o=A", "ldap://h2/o=B")))
        assert roundtrip(msg) == msg

    def test_search_done_with_referral(self):
        result = LdapResult(
            ResultCode.REFERRAL, "", "try elsewhere", ("ldap://h:1389/o=X",)
        )
        msg = LdapMessage(2, SearchResultDone(result))
        assert roundtrip(msg) == msg

    def test_modify(self):
        req = ModifyRequest(
            "hn=hostX",
            (
                (ModifyRequest.OP_REPLACE, "load5", ("1.5",)),
                (ModifyRequest.OP_ADD, "note", ("a", "b")),
                (ModifyRequest.OP_DELETE, "old", ()),
            ),
        )
        msg = LdapMessage(3, req)
        assert roundtrip(msg) == msg

    def test_modify_response(self):
        msg = LdapMessage(3, ModifyResponse(LdapResult(ResultCode.NO_SUCH_OBJECT)))
        assert roundtrip(msg) == msg

    def test_add(self):
        e = Entry("hn=r1, o=O", objectclass="computer", hn="r1")
        msg = LdapMessage(4, AddRequest.from_entry(e))
        back = roundtrip(msg)
        assert back.op.to_entry() == e

    def test_add_response(self):
        msg = LdapMessage(4, AddResponse(LdapResult(ResultCode.ENTRY_ALREADY_EXISTS)))
        assert roundtrip(msg) == msg

    def test_delete(self):
        msg = LdapMessage(5, DeleteRequest("hn=hostX, o=O1"))
        assert roundtrip(msg) == msg

    def test_delete_response(self):
        msg = LdapMessage(5, DeleteResponse(LdapResult()))
        assert roundtrip(msg) == msg

    def test_abandon(self):
        msg = LdapMessage(6, AbandonRequest(3))
        assert roundtrip(msg) == msg

    def test_extended(self):
        msg = LdapMessage(7, ExtendedRequest("1.2.3.4", b"payload"))
        assert roundtrip(msg) == msg

    def test_extended_response(self):
        msg = LdapMessage(
            7, ExtendedResponse(LdapResult(), "1.2.3.4.5", b"resp")
        )
        assert roundtrip(msg) == msg

    def test_controls(self):
        controls = (
            Control("2.16.840.1.113730.3.4.3", True, b"\x01\x02"),
            Control("1.2.3", False, b""),
        )
        msg = LdapMessage(8, UnbindRequest(), controls)
        assert roundtrip(msg) == msg

    def test_unicode_values(self):
        e = Entry("cn=naïve", cn="naïve", note="héllo wörld")
        msg = LdapMessage(2, SearchResultEntry.from_entry(e))
        assert roundtrip(msg).op.to_entry() == e


class TestFilterCodec:
    @pytest.mark.parametrize(
        "text",
        [
            "(objectclass=computer)",
            "(cn=*)",
            "(load5>=2.0)",
            "(load5<=2.0)",
            "(system~=linux)",
            "(system=*linux*)",
            "(system=a*b*c)",
            "(system=initial*)",
            "(system=*final)",
            "(&(a=1)(b=2))",
            "(|(a=1)(!(b=2)))",
            "(&(objectclass=computer)(|(system=*linux*)(system=*irix*))(!(load5>=4)))",
        ],
    )
    def test_roundtrip(self, text):
        f = parse_filter(text)
        r = TlvReader(encode_filter(f))
        assert decode_filter(r) == f
        assert r.at_end()

    def test_empty_and_rejected(self):
        blob = ber.encode_tlv(Tag.context(0, True), b"")
        with pytest.raises(ProtocolError, match="empty"):
            decode_filter(TlvReader(blob))


# Well-framed SearchRequests with one flipped byte each: invalid UTF-8
# in the base DN, and scope ENUMERATED -86.
BAD_UTF8 = bytes.fromhex(
    "3032020107632d04066f134772dd640a01020a0100023200660100010100"
    "a012a306040161040162a40804016330038001643000"
)
BAD_ENUM = bytes.fromhex(
    "3032020107632d04066f3d477269640a01aa0a0100020100020100010100"
    "a012a3066d0161040162a40804016330038001643000"
)


def nested(depth: int) -> Filter:
    """``(!(!...(a=b)...))``, *depth* filter nodes deep, built without
    recursion."""
    f: Filter = Equality("a", "b")
    for _ in range(depth - 1):
        f = Not(f)
    return f


def deep_search_frame(depth: int, message_id: int = 1) -> bytes:
    """A SearchRequest for ``o=Grid`` whose filter is :func:`nested`
    *depth* deep, encoded by hand: our encoder recurses, and the point
    is a frame it could never have produced."""
    filt = encode_filter(Equality("a", "b"))
    for _ in range(depth - 1):
        filt = ber.encode_tlv(Tag.context(2, True), filt)
    body = (
        ber.encode_octet_string("o=Grid")
        + ber.encode_enumerated(2)
        + ber.encode_enumerated(0)
        + ber.encode_integer(0)
        + ber.encode_integer(0)
        + ber.encode_boolean(False)
        + filt
        + ber.encode_sequence(b"")
    )
    op = ber.encode_tlv(Tag.application(SearchRequest.APP_TAG), body)
    return ber.encode_sequence(ber.encode_integer(message_id) + op)


class TestFilterNestingBound:
    """A filter deeper than ``MAX_FILTER_DEPTH`` is malformed: refused as
    a ProtocolError on the wire, never a RecursionError or its text."""

    def test_at_the_bound_round_trips_and_one_over_is_refused(self):
        ok = LdapMessage(3, SearchRequest(base="o=Grid", filter=nested(MAX_FILTER_DEPTH)))
        assert roundtrip(ok) == ok
        assert decode_message(deep_search_frame(MAX_FILTER_DEPTH, 3)) == ok
        over = encode_message(
            LdapMessage(3, SearchRequest(base="o=Grid", filter=nested(MAX_FILTER_DEPTH + 1)))
        )
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_message(over)

    def test_and_or_count_as_levels_too(self):
        f: Filter = Equality("a", "b")
        for level in range(MAX_FILTER_DEPTH):
            f = And((f, Presence("x"))) if level % 2 else Or((Presence("y"), f))
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_filter(TlvReader(encode_filter(f)))
        assert decode_filter(TlvReader(encode_filter(f.clauses[0]))) == f.clauses[0]

    def test_two_thousand_levels_raise_protocol_error(self):
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_message(deep_search_frame(2000))

    def test_a_deep_search_through_a_tracing_server_leaks_no_exception_text(self):
        sim = Simulator(seed=1)
        net = SimNetwork(sim)
        dit = DIT()
        dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
        tracer = Tracer(sim.now, seed=1)
        sink = RingSink()
        tracer.add_sink(sink)
        server = LdapServer(DitBackend(dit), clock=sim, tracer=tracer)
        net.add_node("server").listen(389, server.handle_connection)
        client = LdapClient(net.add_node("client").connect(("server", 389)), driver=sim.step)
        out = client.search("o=Grid", filter=nested(451), check=False)
        assert not out.result.ok
        assert "recursion" not in out.result.message
        assert "internal error" not in out.result.message
        assert server.metrics.counter("ldap.protocol.errors").value == 1
        assert sink.spans("ldap.search") == []


class TestErrors:
    @pytest.mark.parametrize("data", [BAD_UTF8, BAD_ENUM], ids=["utf8", "enum"])
    def test_bad_value_inside_good_framing(self, data):
        with pytest.raises(ProtocolError):
            decode_message(data)

    def test_mutated_search_request_raises_only_protocol_error(self):
        """Seeded corpus: 1-4 bytes changed, 30% also truncated."""
        good = encode_message(
            LdapMessage(
                7,
                SearchRequest(
                    base="o=Grid", filter=parse_filter("(&(a=b)(c=d*))")
                ),
            )
        )
        rng = random.Random(7)
        for _ in range(5000):
            data = bytearray(good)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            if rng.random() < 0.3:
                del data[rng.randrange(1, len(data)):]
            try:
                decode_message(bytes(data))
            except ProtocolError:
                pass

    def test_trailing_garbage(self):
        data = encode_message(LdapMessage(1, UnbindRequest())) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_message(data)

    def test_not_a_sequence(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\x04\x01x")

    def test_truncated(self):
        data = encode_message(LdapMessage(1, BindRequest()))
        with pytest.raises(ProtocolError):
            decode_message(data[:5])

    def test_unknown_app_tag(self):
        body = ber.encode_integer(1) + ber.encode_tlv(Tag.application(30), b"")
        with pytest.raises(ProtocolError, match="unsupported protocol op"):
            decode_message(ber.encode_sequence(body))

    def test_result_code_names(self):
        assert ResultCode.name(0) == "success"
        assert ResultCode.name(32) == "noSuchObject"
        assert ResultCode.name(999) == "code999"

    def test_ldap_result_ok(self):
        assert LdapResult().ok
        assert not LdapResult(ResultCode.OTHER).ok
        assert "other" in LdapResult(ResultCode.OTHER, message="boom").describe()


_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30
)
_values = st.tuples(
    st.text(alphabet="abcdefghij", min_size=1, max_size=8),
    st.tuples(st.text(max_size=10), st.text(max_size=10)),
)


class TestProtocolProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1), _names)
    def test_bind_roundtrip(self, msg_id, name):
        msg = LdapMessage(msg_id, BindRequest(3, name, "simple", b"pw"))
        assert roundtrip(msg) == msg

    @given(_names, st.lists(_values, max_size=6))
    def test_add_roundtrip(self, dn, attrs):
        op = AddRequest(dn, tuple((a, vs) for a, vs in attrs))
        msg = LdapMessage(1, op)
        assert roundtrip(msg) == msg

    @given(st.binary(max_size=200))
    def test_decoder_never_crashes(self, blob):
        """Arbitrary bytes either decode or raise ProtocolError."""
        try:
            decode_message(blob)
        except ProtocolError:
            pass
