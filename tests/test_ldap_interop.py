"""Our LDAP codec against an independent one, and our server against a
standard client.

The oracle is a hand-written RFC 4511 spec on pyasn1 (``tests/rfc4511``).
Every message the project's corpora use — each operation, every filter
choice, the persistent-search, entry-change, trace-context and
chain-depth controls — goes both ways: our bytes decode under pyasn1 to
the same fields, and pyasn1's bytes (definite-length BER with DER
booleans) are byte-identical to ours and decode under ``decode_message``
to the same ``LdapMessage``.  Then a plain socket speaking pyasn1-built
LDAP, with no framing of its own, binds to and searches a live reactor
server.
"""

import socket

import pytest
from hypothesis import given, settings

pytest.importorskip("pyasn1")

from pyasn1.type import univ  # noqa: E402

from repro.giis.core import _chain_depth_control  # noqa: E402
from repro.ldap.backend import ChangeType, DitBackend  # noqa: E402
from repro.ldap.client import LdapClient  # noqa: E402
from repro.ldap.dit import DIT, Scope  # noqa: E402
from repro.ldap.entry import Entry  # noqa: E402
from repro.ldap.filter import MAX_FILTER_DEPTH, parse as parse_filter  # noqa: E402
from repro.ldap.protocol import (  # noqa: E402
    ExtendedRequest,
    ExtendedResponse,
    LdapMessage,
    LdapResult,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    TraceContext,
    decode_message,
    encode_message,
)
from repro.ldap.psearch import EntryChangeNotification, PersistentSearchControl  # noqa: E402
from repro.ldap.server import WHOAMI_OID, LdapServer  # noqa: E402
from repro.net import ReactorEndpoint  # noqa: E402

from . import rfc4511  # noqa: E402
from .test_fastpath import CORPUS  # noqa: E402
from .test_framing_fuzz import messages  # noqa: E402
from .test_protocol import nested  # noqa: E402

TRACE = TraceContext("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331", sampled=True)
PSEARCH = PersistentSearchControl(ChangeType.ADD | ChangeType.MODIFY, True, True)


def _search(text: str, *controls) -> LdapMessage:
    return LdapMessage(4, SearchRequest(base="o=Grid", filter=parse_filter(text)), controls)


FILTERS = [
    "(objectclass=computer)",  # equalityMatch
    "(hn=*)",  # present
    "(hn=host*)",  # substrings: initial
    "(hn=*st*1*)",  # any, any
    "(hn=*01)",  # final
    "(hn=h*s*t*1)",  # initial, any, final
    "(load5>=1.5)",  # greaterOrEqual
    "(load5<=1.5)",  # lessOrEqual
    "(system~=Linux)",  # approxMatch
    "(&(objectclass=computer)(cpucount>=4))",  # and
    "(|(system=linux)(system=irix))",  # or
    "(!(hn=down*))",  # not
    "(&(a=1)(|(b=*)(!(c>=2)))(!(&(d<=x)(e~=y))))",  # nested
    "(cn=caf\\c3\\a9 \\28\\2a\\29)",  # escaped, non-ASCII value
]

MESSAGES = (
    [pytest.param(m, id=f"corpus-{i}-{type(m.op).__name__}") for i, m in enumerate(CORPUS)]
    + [pytest.param(_search(f), id=f"filter-{f}") for f in FILTERS]
    + [
        pytest.param(
            LdapMessage(5, SearchRequest(base="o=Grid", filter=nested(MAX_FILTER_DEPTH))),
            id="filter-at-the-nesting-bound",
        ),
        pytest.param(_search("(hn=*)", PSEARCH.to_control()), id="control-psearch"),
        pytest.param(_search("(hn=*)", TRACE.to_control()), id="control-trace-context"),
        pytest.param(_search("(hn=*)", _chain_depth_control(3)), id="control-chain-depth"),
        pytest.param(
            LdapMessage(
                6,
                SearchResultEntry.from_entry(Entry("hn=a, o=Grid", hn="a")),
                (EntryChangeNotification(ChangeType.DELETE).to_control(),),
            ),
            id="control-entry-change",
        ),
        pytest.param(LdapMessage(7, ExtendedRequest(WHOAMI_OID)), id="whoami"),
        pytest.param(
            LdapMessage(7, ExtendedResponse(LdapResult(), WHOAMI_OID, b"dn:cn=me")),
            id="whoami-response",
        ),
        pytest.param(
            LdapMessage(
                8,
                SearchRequest(
                    base="hn=a, o=Grid",
                    scope=Scope.BASE,
                    size_limit=2**31 - 1,
                    time_limit=300,
                    types_only=True,
                    attributes=("cn", "load5"),
                ),
            ),
            id="search-base-typesonly-limits",
        ),
        pytest.param(
            LdapMessage(
                9,
                SearchResultEntry("hn=a, o=Grid", (("objectclass", ()), ("hn", ()))),
            ),
            id="entry-types-only",
        ),
        pytest.param(
            LdapMessage(
                10,
                SearchResultDone(
                    LdapResult(ResultCode.NO_SUCH_OBJECT, "o=Grid", "no such entry")
                ),
            ),
            id="done-no-such-object",
        ),
        pytest.param(
            LdapMessage(
                2**31 - 1,
                SearchRequest(base="", scope=Scope.BASE, filter=parse_filter("(objectclass=*)")),
            ),
            id="root-dse-max-message-id",
        ),
    ]
)


@pytest.mark.parametrize("msg", MESSAGES)
class TestBothWays:
    def test_our_bytes_decode_under_pyasn1_to_the_same_fields(self, msg):
        decoded, rest = rfc4511.decode(encode_message(msg))
        assert rest == b""
        assert rfc4511.from_asn1(decoded) == msg

    def test_pyasn1_bytes_are_ours_and_decode_to_the_same_message(self, msg):
        theirs = rfc4511.encode(rfc4511.to_asn1(msg))
        assert theirs == encode_message(msg)
        assert decode_message(theirs) == msg


class TestControlValues:
    """The control payloads, each against its own pyasn1 spec."""

    def test_persistent_search(self):
        value, _ = rfc4511.decode(PSEARCH.to_control().value, rfc4511.PersistentSearch())
        assert (int(value["changeTypes"]), bool(value["changesOnly"]), bool(value["returnECs"])) == (
            ChangeType.ADD | ChangeType.MODIFY,
            True,
            True,
        )
        theirs = rfc4511.PersistentSearch()
        theirs["changeTypes"], theirs["changesOnly"], theirs["returnECs"] = 7, False, True
        control = PersistentSearchControl.find([_with_value(PSEARCH.to_control(), theirs)])
        assert control == PersistentSearchControl(7, False, True)

    def test_entry_change_notification(self):
        ours = EntryChangeNotification(ChangeType.MODIFY).to_control()
        value, _ = rfc4511.decode(ours.value, rfc4511.EntryChangeNotification())
        assert int(value["changeType"]) == ChangeType.MODIFY
        theirs = rfc4511.EntryChangeNotification()
        theirs["changeType"], theirs["previousDN"] = ChangeType.DELETE, b"hn=old, o=Grid"
        assert EntryChangeNotification.find([_with_value(ours, theirs)]) == (
            EntryChangeNotification(ChangeType.DELETE)
        )

    def test_trace_context(self):
        value, _ = rfc4511.decode(TRACE.to_control().value, rfc4511.TraceContext())
        assert bytes(value["traceId"]).decode() == TRACE.trace_id
        assert bytes(value["parentSpanId"]).decode() == TRACE.parent_span_id
        assert bool(value["sampled"]) is True
        theirs = rfc4511.TraceContext()
        theirs["traceId"], theirs["parentSpanId"] = b"1" * 32, b"2" * 16
        theirs["sampled"] = False
        assert TraceContext.find([_with_value(TRACE.to_control(), theirs)]) == TraceContext(
            "1" * 32, "2" * 16, sampled=False
        )

    def test_chain_depth(self):
        value, _ = rfc4511.decode(_chain_depth_control(300).value, univ.Integer())
        assert int(value) == 300


def _with_value(control, value):
    return type(control)(control.oid, control.criticality, rfc4511.encode(value))


class TestRandomMessages:
    @given(messages)
    @settings(max_examples=150, deadline=None)
    def test_both_ways(self, msg):
        ours = encode_message(msg)
        decoded, rest = rfc4511.decode(ours)
        assert rest == b"" and rfc4511.from_asn1(decoded) == msg
        assert rfc4511.encode(rfc4511.to_asn1(msg)) == ours


# -- a standard client on a bare socket ------------------------------------


def _bind(message_id: int):
    m = rfc4511.LDAPMessage()
    m["messageID"] = message_id
    bind = m["protocolOp"].getComponentByName("bindRequest")
    bind["version"], bind["name"] = 3, b""
    bind["authentication"]["simple"] = b""
    return m


def _search_computers(message_id: int):
    """(&(objectclass=computer)(hn=host*)) under o=Grid, all attributes."""
    m = rfc4511.LDAPMessage()
    m["messageID"] = message_id
    req = m["protocolOp"].getComponentByName("searchRequest")
    req["baseObject"], req["scope"], req["derefAliases"] = b"o=Grid", 2, 0
    req["sizeLimit"], req["timeLimit"], req["typesOnly"] = 0, 0, False
    req["attributes"].clear()
    both = req["filter"].getComponentByName("and")
    eq = both.getComponentByPosition(0).getComponentByName("equalityMatch")
    eq["attributeDesc"], eq["assertionValue"] = b"objectclass", b"computer"
    sub = both.getComponentByPosition(1).getComponentByName("substrings")
    sub["type"] = b"hn"
    sub["substrings"].getComponentByPosition(0)["initial"] = b"host"
    return m


@pytest.fixture
def live_server():
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for i, system in enumerate(["linux", "irix", "linux"]):
        dit.add(
            Entry(
                f"hn=host{i}, o=Grid",
                objectclass="computer",
                hn=f"host{i}",
                system=system,
                cpucount=str(2**i),
                description=["rack é", "spare"] if i == 1 else "rack",
            )
        )
    dit.add(Entry("hn=other, o=Grid", objectclass="computer", hn="other"))
    server = LdapServer(DitBackend(dit))
    endpoint = ReactorEndpoint(metrics=server.metrics)
    port = endpoint.listen(0, server.handle_connection)
    yield port, endpoint
    endpoint.close()


class TestStandardClient:
    def test_a_headerless_pyasn1_client_binds_and_searches_a_live_server(self, live_server):
        port, endpoint = live_server
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            # Pipelined in one segment: the server finds each message's
            # end from its own BER length.
            sock.sendall(rfc4511.encode(_bind(1)) + rfc4511.encode(_search_computers(2)))
            frames = rfc4511.receive(
                sock, lambda m: m["protocolOp"].getName() == "searchResDone"
            )
        ops = [(int(m["messageID"]), m["protocolOp"].getName()) for m in frames]
        assert ops[0] == (1, "bindResponse") and ops[-1] == (2, "searchResDone")
        assert {name for _, name in ops[1:-1]} == {"searchResEntry"}
        assert int(frames[0]["protocolOp"].getComponent()["resultCode"]) == 0
        assert int(frames[-1]["protocolOp"].getComponent()["resultCode"]) == 0
        theirs = {
            bytes(e["objectName"]).decode(): sorted(
                (bytes(a["type"]).decode(), sorted(bytes(v).decode() for v in a["vals"]))
                for a in e["attributes"]
            )
            for e in (m["protocolOp"].getComponent() for m in frames[1:-1])
        }
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        try:
            out = client.search("o=Grid", filter="(&(objectclass=computer)(hn=host*))")
        finally:
            client.unbind()
        ours = {
            str(e.dn): sorted((attr, sorted(values)) for attr, values in e.items())
            for e in out.entries
        }
        assert theirs == ours and len(ours) == 3

    def test_anonymous_whoami_is_an_empty_authzid_with_no_response_name(self, live_server):
        """RFC 4532 §2.2: no responseName; an empty value for anonymous."""
        port, _ = live_server
        m = rfc4511.LDAPMessage()
        m["messageID"] = 1
        m["protocolOp"].getComponentByName("extendedReq")["requestName"] = WHOAMI_OID.encode()
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(rfc4511.encode(m))
            (frame,) = rfc4511.receive(sock, lambda m: True)
        assert frame["protocolOp"].getName() == "extendedResp"
        resp = frame["protocolOp"].getComponent()
        assert int(resp["resultCode"]) == 0
        absent = dict(default=None, instantiate=False)
        assert resp.getComponentByName("responseName", **absent) is None
        value = resp.getComponentByName("responseValue", **absent)
        assert value is None or bytes(value) == b""
