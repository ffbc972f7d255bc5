"""Wire-path fast lanes: zero-copy decode, DN interning, encode caching.

Three invariants guard the PR-8 optimizations:

* the zero-copy (memoryview-walking) decoder produces *identical*
  decoded messages to the old slice-based decoder, over random nested
  TLVs and a corpus covering every protocol op;
* no user-facing decoded field leaks a ``memoryview`` — everything that
  escapes the decoder is ``bytes``/``str``;
* the DN intern cache and the per-entry encode cache change *when* work
  happens, never *what* goes on the wire: capture-and-compare asserts
  byte-identical frames with the fast lanes on and off, over both real
  transports.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import ber
from repro.ldap.backend import DitBackend
from repro.ldap.ber import BerError, Tag, TlvReader
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.dn import DN, configure_intern_cache, intern_cache_stats
from repro.ldap.entry import Entry, WireCache
from repro.ldap.filter import parse as parse_filter
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
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    SearchResultReference,
    UnbindRequest,
    decode_message,
    encode_message,
    encode_message_with_op,
    encode_search_entry,
)
from repro.ldap.server import LdapServer
from repro.security.acl import (
    ANONYMOUS,
    AccessPolicy,
    AccessRule,
    attribute_restricted_policy,
    open_policy,
)

from .wire import WIRES, open_wire

# ---------------------------------------------------------------------------
# Reference decoder: the pre-zero-copy slice-based TLV walk, verbatim.
# ---------------------------------------------------------------------------


def _legacy_decode_tlv(data: bytes, offset: int = 0):
    """The old decoder: every value is a fresh ``bytes`` slice."""
    if offset >= len(data):
        raise BerError("empty input where TLV expected")
    tag = Tag.from_octet(data[offset])
    offset += 1
    if offset >= len(data):
        raise BerError("truncated TLV: missing length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        length = first
    elif first == 0x80:
        raise BerError("indefinite lengths are not supported")
    else:
        nbytes = first & 0x7F
        if offset + nbytes > len(data):
            raise BerError("truncated TLV: length bytes missing")
        length = int.from_bytes(data[offset : offset + nbytes], "big")
        offset += nbytes
    if offset + length > len(data):
        raise BerError("truncated TLV")
    return tag, data[offset : offset + length], offset + length


def _legacy_tree(data: bytes):
    """Fully expand a TLV stream with the legacy slice decoder."""
    out = []
    offset = 0
    while offset < len(data):
        tag, value, offset = _legacy_decode_tlv(data, offset)
        if tag.constructed:
            out.append((tag.octet, _legacy_tree(value)))
        else:
            out.append((tag.octet, value))
    return out


def _zero_copy_tree(data):
    """The same expansion through the zero-copy TlvReader."""
    out = []
    r = TlvReader(data)
    while not r.at_end():
        tag, value = r.read()
        if tag.constructed:
            out.append((tag.octet, _zero_copy_tree(value)))
        else:
            out.append((tag.octet, bytes(value)))
    return out


# Random nested TLV trees: leaves are primitives, nodes are SEQUENCEs.
_tlv_tree = st.recursive(
    st.binary(max_size=24).map(ber.encode_octet_string),
    lambda children: st.lists(children, max_size=5).map(ber.encode_sequence),
    max_leaves=20,
)


# A corpus message for every protocol op the codec supports.
CORPUS = [
    LdapMessage(1, BindRequest(3, "cn=admin", "simple", b"secret")),
    LdapMessage(1, BindRequest(3, "", "GSI", b"\x00\x01token")),
    LdapMessage(1, BindResponse(LdapResult(), server_credentials=b"proof")),
    LdapMessage(9, UnbindRequest()),
    LdapMessage(
        2,
        SearchRequest(
            base="o=Grid",
            scope=Scope.ONELEVEL,
            size_limit=50,
            time_limit=10,
            types_only=True,
            filter=parse_filter("(&(objectclass=computer)(load5<=2.0))"),
            attributes=("cn", "load5"),
        ),
    ),
    LdapMessage(
        2,
        SearchRequest(
            base="o=Grid",
            filter=parse_filter("(|(system=*linux*)(!(hn=host*)))"),
        ),
    ),
    LdapMessage(
        2,
        SearchResultEntry.from_entry(
            Entry("hn=hostX", objectclass=["computer"], hn="hostX", cpucount=4)
        ),
    ),
    LdapMessage(2, SearchResultReference(("ldap://h1/o=A", "ldap://h2/o=B"))),
    LdapMessage(
        2,
        SearchResultDone(
            LdapResult(ResultCode.REFERRAL, "", "try", ("ldap://h:1389/o=X",))
        ),
    ),
    LdapMessage(
        3,
        ModifyRequest(
            "hn=hostX",
            (
                (ModifyRequest.OP_REPLACE, "load5", ("1.5",)),
                (ModifyRequest.OP_ADD, "note", ("a", "b")),
                (ModifyRequest.OP_DELETE, "old", ()),
            ),
        ),
    ),
    LdapMessage(3, ModifyResponse(LdapResult(ResultCode.NO_SUCH_OBJECT))),
    LdapMessage(
        4,
        AddRequest.from_entry(Entry("hn=r1, o=O", objectclass="computer", hn="r1")),
    ),
    LdapMessage(4, AddResponse(LdapResult(ResultCode.ENTRY_ALREADY_EXISTS))),
    LdapMessage(5, DeleteRequest("hn=hostX, o=O1")),
    LdapMessage(5, DeleteResponse(LdapResult())),
    LdapMessage(6, AbandonRequest(3)),
    LdapMessage(7, ExtendedRequest("1.2.3.4", b"payload")),
    LdapMessage(7, ExtendedResponse(LdapResult(), "1.2.3.4.5", b"resp")),
    LdapMessage(
        8,
        UnbindRequest(),
        (
            Control("2.16.840.1.113730.3.4.3", True, b"\x01\x02"),
            Control("1.2.3", False, b""),
        ),
    ),
    LdapMessage(
        2,
        SearchResultEntry.from_entry(
            Entry("cn=naïve", cn="naïve", note="héllo wörld")
        ),
    ),
]


class TestZeroCopyEquivalence:
    @settings(max_examples=200)
    @given(_tlv_tree)
    def test_random_nested_tlvs(self, blob):
        assert _zero_copy_tree(memoryview(blob)) == _legacy_tree(blob)
        assert _zero_copy_tree(blob) == _legacy_tree(blob)

    @pytest.mark.parametrize("msg", CORPUS, ids=lambda m: type(m.op).__name__)
    def test_corpus_decodes_identically(self, msg):
        wire = encode_message(msg)
        assert _zero_copy_tree(memoryview(wire)) == _legacy_tree(wire)
        # bytes and memoryview inputs both decode to the original message
        assert decode_message(wire) == msg
        assert decode_message(memoryview(wire)) == msg

    def test_decode_tlv_value_type_follows_input(self):
        wire = ber.encode_octet_string(b"abc")
        _, v_bytes, _ = ber.decode_tlv(wire)
        _, v_view, _ = ber.decode_tlv(memoryview(wire))
        assert type(v_bytes) is bytes
        assert type(v_view) is memoryview
        assert bytes(v_view) == v_bytes == b"abc"


def _assert_no_memoryview(obj, path="message"):
    """Recursively reject memoryview in any decoded field."""
    assert not isinstance(obj, memoryview), f"memoryview leaked at {path}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _assert_no_memoryview(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            _assert_no_memoryview(item, f"{path}[{i}]")
    elif hasattr(obj, "clauses"):  # And/Or filter nodes
        for i, item in enumerate(obj.clauses):
            _assert_no_memoryview(item, f"{path}.clauses[{i}]")


class TestNoViewLeaks:
    @pytest.mark.parametrize("msg", CORPUS, ids=lambda m: type(m.op).__name__)
    def test_decoded_fields_are_bytes_or_str(self, msg):
        # memoryview == bytes compares content, so equality round-trips
        # would pass even if a view leaked; the types must be checked.
        decoded = decode_message(memoryview(encode_message(msg)))
        _assert_no_memoryview(decoded)

    def test_reader_internals_are_views(self):
        # The *internal* surface is view-based (that is the zero-copy
        # part); only the leaf accessors materialize.
        r = TlvReader(memoryview(ber.encode_sequence(ber.encode_octet_string("x"))))
        assert isinstance(r.remaining(), memoryview)
        seq = r.read_sequence()
        assert isinstance(seq.remaining(), memoryview)
        value = seq.read_octet_string()
        assert type(value) is bytes


# ---------------------------------------------------------------------------
# DN intern cache
# ---------------------------------------------------------------------------


@pytest.fixture
def small_intern_cache():
    base = intern_cache_stats()["capacity"]
    configure_intern_cache(0)  # flush
    configure_intern_cache(4)
    yield
    configure_intern_cache(0)
    configure_intern_cache(base)


class TestDnInternCache:
    def test_hit_returns_shared_normalized_dn(self, small_intern_cache):
        first = DN.parse("hn=HostX, o=Grid")
        before = intern_cache_stats()
        second = DN.parse("hn=HostX, o=Grid")
        after = intern_cache_stats()
        assert second is first  # shared immutable object, memos included
        assert after["hits"] == before["hits"] + 1
        assert first.normalized() == DN.parse("HN=hostx,O=GRID").normalized()
        # differently-written equivalents are distinct cache keys but
        # equal DNs
        assert DN.parse("hn=hostx,o=grid") == first

    def test_bounded_size_and_evictions(self, small_intern_cache):
        start = intern_cache_stats()["evictions"]
        for i in range(10):
            DN.parse(f"hn=h{i}, o=Grid")
        stats = intern_cache_stats()
        assert stats["size"] <= 4
        assert stats["evictions"] >= start + 6

    def test_disabled_cache_still_parses(self, small_intern_cache):
        configure_intern_cache(0)
        dn = DN.parse("hn=h1, o=Grid")
        assert str(dn) == "hn=h1, o=Grid"
        assert intern_cache_stats()["size"] == 0

    def test_escaped_and_fast_path_agree(self, small_intern_cache):
        # same DN written with and without escapes: equal after parse
        assert DN.parse(r"cn=a\2cb, o=G") == DN.parse("cn=a\\,b, o=G")
        with pytest.raises(Exception):
            DN.parse("cn=a=b, o=G")  # unescaped '=' rejected on both paths


# ---------------------------------------------------------------------------
# Entry encode cache: invalidation through the ChangeOp choke point
# ---------------------------------------------------------------------------


def _cell_of(dit, dn):
    entries = dit.search(dn, Scope.BASE)
    assert len(entries) == 1
    return entries[0]._wire


class TestEncodeCacheInvalidation:
    def make_dit(self):
        dit = DIT()
        dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
        dit.add(Entry("hn=h1, o=Grid", objectclass="computer", hn="h1"))
        return dit

    def test_add_attaches_fresh_cell(self):
        dit = self.make_dit()
        cell = _cell_of(dit, "hn=h1, o=Grid")
        assert isinstance(cell, WireCache) and cell.body is None

    def test_search_copies_share_the_cell(self):
        dit = self.make_dit()
        a = _cell_of(dit, "hn=h1, o=Grid")
        b = _cell_of(dit, "hn=h1, o=Grid")
        assert a is b

    def test_replace_invalidates(self):
        dit = self.make_dit()
        cell = _cell_of(dit, "hn=h1, o=Grid")
        cell.body = b"stale"
        dit.replace(Entry("hn=h1, o=Grid", objectclass="computer", hn="h1", load5="2"))
        fresh = _cell_of(dit, "hn=h1, o=Grid")
        assert fresh is not cell and fresh.body is None

    def test_modify_invalidates(self):
        dit = self.make_dit()
        cell = _cell_of(dit, "hn=h1, o=Grid")
        cell.body = b"stale"
        dit.modify("hn=h1, o=Grid", lambda e: e.put("load5", "3"))
        fresh = _cell_of(dit, "hn=h1, o=Grid")
        assert fresh is not cell and fresh.body is None

    def test_delete_removes_entry(self):
        dit = self.make_dit()
        cell = _cell_of(dit, "hn=h1, o=Grid")
        cell.body = b"stale"
        dit.delete("hn=h1, o=Grid")
        assert not dit.exists("hn=h1, o=Grid")

    def test_clear_removes_all(self):
        dit = self.make_dit()
        _cell_of(dit, "hn=h1, o=Grid").body = b"stale"
        dit.clear()
        assert len(dit) == 0

    def test_load_attaches_fresh_cells(self):
        dit = self.make_dit()
        cell = _cell_of(dit, "hn=h1, o=Grid")
        cell.body = b"stale"
        dit.load([Entry("hn=h1, o=Grid", objectclass="computer", hn="h1", note="x")])
        fresh = _cell_of(dit, "hn=h1, o=Grid")
        assert fresh is not cell and fresh.body is None

    def test_local_mutation_drops_the_copy_reference(self):
        dit = self.make_dit()
        [entry] = dit.search("hn=h1, o=Grid", Scope.BASE)
        assert entry._wire is not None
        entry.put("hn", "renamed")
        assert entry._wire is None
        # the stored entry is untouched
        assert _cell_of(dit, "hn=h1, o=Grid") is not None

    def test_projection_is_never_cached(self):
        dit = self.make_dit()
        [entry] = dit.search("hn=h1, o=Grid", Scope.BASE, attrs=["hn"])
        assert entry._wire is None

    def test_cached_body_matches_fresh_encoding(self):
        dit = self.make_dit()
        [entry] = dit.search("hn=h1, o=Grid", Scope.BASE)
        body = encode_search_entry(entry)
        assert encode_message_with_op(7, body) == encode_message(
            LdapMessage(7, SearchResultEntry.from_entry(entry))
        )


class TestIsTransparent:
    def test_open_policy_is_transparent(self):
        assert open_policy().is_transparent("anonymous")
        assert open_policy().is_transparent("cn=admin")

    def test_attr_restricted_is_not(self):
        policy = attribute_restricted_policy(["objectclass"], ["load5"], ["cn=ops"])
        assert not policy.is_transparent("anonymous")
        assert not policy.is_transparent("cn=ops")

    def test_unscoped_deny_is_not_transparent(self):
        policy = AccessPolicy([AccessRule.make("*", allow=False)], default_allow=True)
        assert not policy.is_transparent("anonymous")

    def test_default_allow_without_rules(self):
        assert AccessPolicy([], default_allow=True).is_transparent("x")
        assert not AccessPolicy([], default_allow=False).is_transparent("x")


# ---------------------------------------------------------------------------
# Capture-and-compare: fast lanes change timing, never bytes
# ---------------------------------------------------------------------------


class _RecordingConn:
    """Connection wrapper recording every received frame as bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    def set_receiver(self, callback):
        def record(payload):
            self.frames.append(bytes(payload))
            callback(payload)

        self.inner.set_receiver(record)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def allow_all_scoped_policy():
    """Everything readable by everyone, yet not ``is_transparent``.

    The allow rule is scoped (to the root, so it covers every entry):
    the front end cannot prove the policy an identity transform and
    serves every request on its per-entry ACL-rebuild-and-encode lane
    and marks none transparent — the reference the fast lanes (encode
    cache, GIIS relay) are compared against.
    """
    policy = AccessPolicy([AccessRule.make("*", base="")], default_allow=True)
    assert not policy.is_transparent(ANONYMOUS)
    return policy


def _serve_and_capture(transport, policy=None):
    """One fixed workload; returns (frames the client received, encode
    cache hits the server counted)."""
    dit = DIT(index_attrs=["hn"])
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for i in range(8):
        dit.add(
            Entry(
                f"hn=h{i}, o=Grid",
                objectclass="computer",
                hn=f"h{i}",
                load5=str(i / 10),
            )
        )
    with open_wire(transport) as wire:
        server = LdapServer(DitBackend(dit), policy=policy, clock=wire.clock)
        recorder = _RecordingConn(wire.connect(wire.listen(server.handle_connection)))
        client = LdapClient(recorder, driver=wire.driver)
        # mixed workload: cacheable, filtered, projected, types-only,
        # size-limited — and repeated so the second pass hits the cache
        for _ in range(2):
            client.search("o=Grid", filter="(objectclass=computer)")
            client.search("o=Grid", filter="(hn=h3)")
            client.search("o=Grid", filter="(objectclass=*)", attrs=["hn"])
            client.search(
                "o=Grid",
                filter="(objectclass=computer)",
                size_limit=3,
                check=False,
            )
        client.unbind()
        hits = server.metrics.counter("ldap.encode.cache.hits").value
        return recorder.frames, hits


@pytest.mark.parametrize("transport", WIRES)
def test_wire_bytes_identical_with_and_without_fast_lanes(transport):
    cached, fast_hits = _serve_and_capture(transport)
    uncached, slow_hits = _serve_and_capture(transport, allow_all_scoped_policy())
    assert cached == uncached
    assert len(cached) > 10  # the workload actually produced traffic
    assert fast_hits > 0 and slow_hits == 0


def test_wire_bytes_identical_across_transports():
    reactor, simnet = (_serve_and_capture(kind)[0] for kind in WIRES)
    assert reactor == simnet
