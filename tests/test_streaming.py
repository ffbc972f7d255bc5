"""The streaming search pipeline and the zero re-encode GIIS relay.

Covers the PR-10 path end to end:

* :class:`RawEntry` — the undecoded carrier (DN peek, lazy decode,
  buffer detach);
* the default stream of a local backend — the streamed sequence equals
  the search hook's list for *any* outcome, including size-limit
  partials and cancellation mid-stream (hypothesis);
* the GIIS relay lane — chained results are byte-identical relayed
  (transparent front end) and decoded (a front end that cannot prove
  its policy transparent), over both real transports;
* early abandon — the parent's size limit cuts off in-flight children;
* size-budget propagation — children see the parent's limit exactly
  when the front end is transparent;
* the compiled-filter hot path — ``compile_filter(f)(e)`` agrees with
  ``f.matches(e)`` for arbitrary filters (hypothesis);
* the client request-encode cache — identical bytes, counted hits.
"""

import contextlib
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.ldap import ber
from repro.ldap.backend import (
    Backend,
    DitBackend,
    RequestContext,
    SearchOutcome,
)
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, in_scope
from repro.ldap.entry import Entry
from repro.ldap.executor import CancelToken
from repro.ldap.filter import compile_filter, parse as parse_filter
from repro.ldap.protocol import (
    LdapMessage,
    LdapResult,
    RawEntry,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    decode_message,
    encode_message,
    encode_message_with_op,
    request_encode_stats,
    reset_request_encode_cache,
)
from repro.ldap.server import LdapServer
from repro.testbed import GridTestbed

from .test_fastpath import allow_all_scoped_policy
from .test_filter import HOST, _filters
from .wire import WIRES, open_wire

CTX = RequestContext(identity="CN=tester")


def _entry_op_bytes(entry: Entry) -> bytes:
    """The SearchResultEntry protocol-op TLV for *entry*, via the real
    encoder (message framing stripped off)."""
    wire = encode_message(LdapMessage(7, SearchResultEntry.from_entry(entry)))
    _, body, _ = ber.decode_tlv(wire)
    r = ber.TlvReader(body)
    r.read_integer()  # message id
    return bytes(r.read_raw())


# ---------------------------------------------------------------------------
# RawEntry: the undecoded carrier
# ---------------------------------------------------------------------------


class TestRawEntry:
    ENTRY = Entry(
        "hn=hostX, o=Grid", objectclass=["computer"], hn="hostX", load5="3.2"
    )

    def test_dn_peek_without_full_decode(self):
        raw = RawEntry(_entry_op_bytes(self.ENTRY))
        assert raw.dn == "hn=hostX, o=Grid"
        assert raw._entry is None  # the peek did not decode the payload

    def test_lazy_decode_roundtrips(self):
        raw = RawEntry(_entry_op_bytes(self.ENTRY))
        entry = raw.to_entry()
        assert entry.dn == self.ENTRY.dn
        assert entry.first("load5") == "3.2"
        assert entry.get("objectclass") == ["computer"]

    def test_detach_copies_a_borrowed_view(self):
        backing = bytearray(_entry_op_bytes(self.ENTRY))
        raw = RawEntry(memoryview(backing))
        raw.detach()
        backing[:] = b"\x00" * len(backing)  # clobber the receive buffer
        assert raw.to_entry().first("hn") == "hostX"

    def test_reframing_is_byte_identical_to_full_encode(self):
        op = _entry_op_bytes(self.ENTRY)
        direct = encode_message(
            LdapMessage(42, SearchResultEntry.from_entry(self.ENTRY))
        )
        assert encode_message_with_op(42, op) == direct
        # and a memoryview op survives the concat
        assert encode_message_with_op(42, memoryview(op)) == direct

    def test_non_entry_op_refuses_decode(self):
        wire = encode_message(LdapMessage(1, SearchRequest(base="o=Grid")))
        _, body, _ = ber.decode_tlv(wire)
        r = ber.TlvReader(body)
        r.read_integer()
        raw = RawEntry(bytes(r.read_raw()))
        with pytest.raises(Exception):
            raw.to_entry()


# ---------------------------------------------------------------------------
# Streaming adapter: streamed sequence == buffered list, any outcome
# ---------------------------------------------------------------------------

_small_text = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=6,
)


@st.composite
def _outcomes(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    entries = [
        Entry(f"hn=h{i}, o=Grid", objectclass="computer", hn=f"h{i}")
        for i in range(n)
    ]
    referrals = draw(st.lists(_small_text, max_size=3))
    code = draw(
        st.sampled_from(
            [
                ResultCode.SUCCESS,
                ResultCode.SIZE_LIMIT_EXCEEDED,  # partial delivery
                ResultCode.TIME_LIMIT_EXCEEDED,
                ResultCode.BUSY,
            ]
        )
    )
    return SearchOutcome(
        entries=entries,
        referrals=[f"ldap://{r}/" for r in referrals],
        result=LdapResult(code),
    )


class _FixedBackend(Backend):
    """A local backend whose search hook answers one canned outcome."""

    def __init__(self, outcome):
        self.outcome = outcome

    def _search_impl(self, req, ctx):
        return self.outcome

    def naming_contexts(self):
        return ["o=Grid"]


class TestStreamingAdapter:
    @given(_outcomes())
    @settings(max_examples=60, deadline=None)
    def test_streamed_sequence_equals_buffered_list(self, outcome):
        backend = _FixedBackend(outcome)
        req = SearchRequest(base="o=Grid")
        streamed, finals = [], []
        ctx = RequestContext(identity="x", token=CancelToken())
        backend.submit_search_stream(req, ctx, streamed.append, finals.append)
        assert streamed == outcome.entries
        assert len(finals) == 1
        final = finals[0]
        assert final.entries == []  # entries only via on_entry
        assert final.referrals == outcome.referrals
        assert final.result.code == outcome.result.code
        # and search() collects that stream back into the hook's answer
        collected = backend.search(req, RequestContext(identity="x"))
        assert collected.entries == outcome.entries
        assert collected.referrals == outcome.referrals
        assert collected.result.code == outcome.result.code

    @given(_outcomes(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_cancel_mid_stream_stops_delivery_and_conclusion(
        self, outcome, cancel_after
    ):
        """A disconnect mid-stream (token cancel from inside on_entry)
        stops delivery; on_done never fires after cancellation —
        conclude-once holds."""
        backend = _FixedBackend(outcome)
        token = CancelToken()
        ctx = RequestContext(identity="x", token=token)
        streamed, finals = [], []

        def on_entry(entry):
            streamed.append(entry)
            if len(streamed) == cancel_after:
                token.cancel("client disconnected")

        backend.submit_search_stream(
            SearchRequest(base="o=Grid"), ctx, on_entry, finals.append
        )
        if cancel_after and len(outcome.entries) >= cancel_after:
            assert len(streamed) == cancel_after
            assert finals == []
        else:
            assert streamed == outcome.entries
            assert len(finals) == 1


# ---------------------------------------------------------------------------
# Compiled filters: one compile, same verdicts
# ---------------------------------------------------------------------------

_PROBES = [
    HOST,
    Entry("hn=empty"),
    Entry(
        "hn=hostY",
        objectclass=["computer", "server"],
        system="linux",
        cpucount="16",
        load5="0.1",
        memorysize="2 GB",
        description="spare rack",
    ),
]


class TestCompiledFilters:
    @given(_filters())
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_interpreted(self, f):
        match = compile_filter(f)
        for probe in _PROBES:
            assert match(probe) == f.matches(probe), (f, probe.dn)

    def test_none_filter_matches_everything(self):
        assert compile_filter(None)(HOST)

    def test_compiled_is_reusable_across_entries(self):
        match = compile_filter(parse_filter("(&(objectclass=computer)(load5<=4))"))
        assert match(HOST)
        assert not match(Entry("hn=empty"))


# ---------------------------------------------------------------------------
# Request-encode cache: identical bytes, counted hits
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_request_cache():
    reset_request_encode_cache()
    yield
    reset_request_encode_cache()


class TestRequestEncodeCache:
    def _req(self):
        return SearchRequest(
            base="o=Grid", filter=parse_filter("(objectclass=computer)")
        )

    def test_repeat_encodes_hit_and_match(self, fresh_request_cache):
        first = encode_message(LdapMessage(1, self._req()))
        before = request_encode_stats()
        second = encode_message(LdapMessage(1, self._req()))
        after = request_encode_stats()
        assert first == second
        assert after["hits"] >= before["hits"] + 2  # base DN + filter

    def test_cold_encode_after_reset_matches_warm(self, fresh_request_cache):
        warm = [encode_message(LdapMessage(3, self._req())) for _ in range(2)][1]
        reset_request_encode_cache()
        stats = request_encode_stats()
        assert stats["base_cached"] == 0 and stats["filter_cached"] == 0
        cold = encode_message(LdapMessage(3, self._req()))
        assert cold == warm
        assert request_encode_stats()["hits"] == 0  # encoded, not looked up


# ---------------------------------------------------------------------------
# The chained relay: byte-identical relayed and decoded, reactor and simnet
# ---------------------------------------------------------------------------


class _RecordingConn:
    """Connection wrapper recording every received frame as bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []
        self.lock = threading.Lock()

    def set_receiver(self, callback):
        def record(payload):
            with self.lock:
                self.frames.append(bytes(payload))
            callback(payload)

        self.inner.set_receiver(record)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _child_dit(first_host: int, n_hosts: int) -> DIT:
    dit = DIT(index_attrs=["hn"])
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for h in range(first_host, first_host + n_hosts):
        dit.add(
            Entry(
                f"hn=host{h}, o=Grid",
                objectclass="computer",
                hn=f"host{h}",
                load5=str(h / 10),
            )
        )
    return dit


def _gris_handler(g: int, clock):
    """Connection handler of GRIS child *g* (three hosts of its own)."""
    return LdapServer(
        DitBackend(_child_dit(first_host=g * 3, n_hosts=3)),
        clock=clock,
        name=f"gris{g}",
    ).handle_connection


@contextlib.contextmanager
def _chained(wire, child_handlers, policy=None):
    """One GIIS over one listener per child handler, all on *wire*;
    yields (client, the recording connection under it, the GIIS).
    *policy* is the GIIS front end's (default: open, so it relays)."""
    clock = wire.clock
    giis = GiisBackend(
        "o=Grid",
        clock=clock,
        connector=lambda url: wire.connect((url.host, url.port)),
        child_timeout=30.0,
    )
    try:
        now = clock.now()
        for handler in child_handlers:
            host, port = wire.listen(handler)
            giis.apply_grrp(
                GrrpMessage(
                    service_url=f"ldap://{host}:{port}/",
                    timestamp=now,
                    valid_until=now + 3600.0,
                    metadata={"suffix": "o=Grid"},
                )
            )
        front = LdapServer(giis, policy=policy, clock=clock, name="giis")
        recorder = _RecordingConn(
            wire.connect(wire.listen(front.handle_connection))
        )
        yield LdapClient(recorder, driver=wire.driver), recorder, giis
    finally:
        giis.shutdown()


def _chained_capture(transport: str, policy=None):
    """Two disjoint GRIS children behind the GIIS; returns every frame
    the client received for a fixed workload."""
    with open_wire(transport) as wire:
        children = [_gris_handler(g, wire.clock) for g in range(2)]
        with _chained(wire, children, policy) as (client, recorder, giis):
            client.search("o=Grid", filter="(objectclass=computer)")
            client.search("o=Grid", filter="(hn=host4)")
            client.search("o=Grid", filter="(load5>=0.2)")
            client.unbind()
            with recorder.lock:
                return list(recorder.frames), giis.metrics


@pytest.mark.parametrize("transport", WIRES)
def test_relay_wire_bytes_identical_on_and_off(transport):
    """The acceptance criterion: relayed results are byte-identical to
    the decode-and-re-encode path, which a front end whose policy is
    not provably transparent takes.  Child arrival order is not
    deterministic, so frames are compared as sorted multisets."""
    on_frames, on_metrics = _chained_capture(transport)
    off_frames, off_metrics = _chained_capture(transport, allow_all_scoped_policy())
    assert sorted(on_frames) == sorted(off_frames)
    assert len(on_frames) > 8  # the workload actually produced traffic
    assert on_metrics.counter("giis.relay.entries").value > 0
    assert off_metrics.counter("giis.relay.entries").value == 0


def test_relay_wire_bytes_identical_across_transports():
    reactor, simnet = (_chained_capture(kind)[0] for kind in WIRES)
    assert sorted(reactor) == sorted(simnet)


@pytest.mark.parametrize("transport", WIRES)
def test_child_answering_a_malformed_done_is_failed_at_once(transport):
    """Well framed, undecodable: the child is concluded as failed when
    its answer arrives, not when its 30 s deadline does, and the other
    child's entries are still returned."""

    def garbler(conn):
        def answer(raw):
            done = encode_message(
                LdapMessage(
                    decode_message(raw).message_id,
                    SearchResultDone(LdapResult(message="ok")),
                )
            )
            conn.send(done.replace(b"ok", b"\xff\xfe"))  # not UTF-8

        conn.set_receiver(answer)

    with open_wire(transport) as wire:
        children = [_gris_handler(0, wire.clock), garbler]
        with _chained(wire, children) as (client, _, giis):
            started = wire.clock.now()
            out = client.search(
                "o=Grid", filter="(objectclass=computer)", timeout=20.0, check=False
            )
            elapsed = wire.clock.now() - started
            client.unbind()
    assert sorted(e.first("hn") for e in out.entries) == ["host0", "host1", "host2"]
    assert elapsed < 5.0
    assert giis.metrics.counter("giis.child.errors").value == 1
    assert giis.metrics.counter("giis.child.timeouts").value == 0


def test_a_chained_search_starts_no_thread(monkeypatch):
    """Each VO-wide search arms a front-end deadline, one timeout per
    child and one deadline in each child; none of them is an OS thread
    of its own (at most the process's one timer thread starts)."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    req = SearchRequest(
        base="o=Grid", filter=parse_filter("(objectclass=computer)"), time_limit=5
    )
    with open_wire("reactor") as wire:
        children = [_gris_handler(g, wire.clock) for g in range(2)]
        with _chained(wire, children) as (client, _, _giis):
            monkeypatch.setattr(threading.Thread, "start", counting_start)
            for _ in range(50):
                done = threading.Event()
                out = []
                client.search_async(req, lambda r, _e: (out.append(r), done.set()))
                assert done.wait(10.0)
                assert out[0].result.ok and len(out[0].entries) == 6
            monkeypatch.undo()
            client.unbind()
    assert len(started) <= 1, started[:5]


def _split_messages(data: bytes):
    """The LDAPMessages one socket write carries, in order."""
    frames, offset = [], 0
    while offset < len(data):
        _, _, end = ber.decode_tlv(data, offset)
        frames.append(data[offset:end])
        offset = end
    return [decode_message(frame).op for frame in frames]


def test_an_answer_in_hand_is_written_in_at_most_three_writes(monkeypatch):
    """75 entries from a local backend over a real reactor: the first
    entry is written alone, the rest with the Done in one write — not
    one socket write per entry."""
    from repro.net.reactor import ReactorConnection

    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for h in range(75):
        dit.add(Entry(f"hn=host{h}, o=Grid", objectclass="computer", hn=f"host{h}"))
    served, writes = [], []
    real_send = ReactorConnection.send

    def counting_send(conn, message):
        if conn in served:
            writes.append(bytes(message))
        real_send(conn, message)

    with open_wire("reactor") as wire:
        server = LdapServer(DitBackend(dit), clock=wire.clock)

        def handler(conn):
            served.append(conn)
            server.handle_connection(conn)

        client = LdapClient(wire.connect(wire.listen(handler)))
        monkeypatch.setattr(ReactorConnection, "send", counting_send)
        result = client.search("o=Grid", filter="(objectclass=computer)")
        monkeypatch.undo()
        client.unbind()

    assert result.result.ok and len(result.entries) == 75
    assert 1 <= len(writes) <= 3
    assert [type(op) for op in _split_messages(writes[0])] == [SearchResultEntry]
    ops = [op for write in writes for op in _split_messages(write)]
    assert [type(op) for op in ops] == [SearchResultEntry] * 75 + [SearchResultDone]


# ---------------------------------------------------------------------------
# Streamed == reference merge through the whole chained stack (simulator)
# ---------------------------------------------------------------------------


def _build_vo(tb: GridTestbed, n_gris: int = 3, **giis_kwargs):
    giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", **giis_kwargs)
    children = []
    for i in range(n_gris):
        gris = tb.standard_gris(f"r{i}", f"hn=r{i}, o=Grid", load_mean=0.5 + i)
        tb.register(gris, giis, interval=20.0, ttl=60.0, name=f"r{i}")
        children.append(gris)
    tb.run(1.0)
    return giis, children


def _shape(entry: Entry):
    return (
        str(entry.dn),
        tuple(sorted((a, tuple(vs)) for a, vs in entry.items())),
    )


def _reference_merge(giis, children, req: SearchRequest):
    """Oracle for a chained answer: the GIIS's own entries, then each
    child's own answer to the same request, first writer winning on a
    DN — computed without the collector under test."""
    base, match = req.base_dn(), compile_filter(req.filter)
    merged = {}
    for entry in giis.backend.local_entries():
        if in_scope(entry.dn, base, req.scope) and match(entry):
            merged.setdefault(entry.dn, entry)
    for child in children:
        for entry in child.backend.search(req, RequestContext()).entries:
            if match(entry):  # the child front end's authoritative filter
                merged.setdefault(entry.dn, entry)
    return list(merged.values())


class TestStreamedEqualsBuffered:
    @pytest.mark.parametrize(
        "filt",
        [
            "(objectclass=computer)",
            "(objectclass=*)",
            "(&(objectclass=loadaverage)(load5<=100))",
            "(hn=r1)",
        ],
    )
    def test_chained_entry_sets_match(self, filt):
        tb = GridTestbed(seed=3)
        giis, children = _build_vo(tb)
        client = tb.client("user", giis)
        streamed = client.search("o=Grid", filter=filt)
        req = SearchRequest(base="o=Grid", filter=parse_filter(filt))
        reference = _reference_merge(giis, children, req)
        assert reference
        assert sorted(map(_shape, streamed.entries)) == sorted(
            map(_shape, reference)
        )

    def test_relay_off_serves_the_same_entries(self):
        tb_on = GridTestbed(seed=4)
        giis_on, _ = _build_vo(tb_on)
        on = tb_on.client("u", giis_on).search("o=Grid", filter="(objectclass=*)")
        tb_off = GridTestbed(seed=4)
        giis_off, _ = _build_vo(tb_off, policy=allow_all_scoped_policy())
        off = tb_off.client("u", giis_off).search(
            "o=Grid", filter="(objectclass=*)"
        )
        assert sorted(map(_shape, on.entries)) == sorted(map(_shape, off.entries))
        assert giis_on.backend.metrics.counter("giis.relay.entries").value > 0
        assert giis_off.backend.metrics.counter("giis.relay.entries").value == 0


# ---------------------------------------------------------------------------
# Size budgets: propagation to children and early abandon
# ---------------------------------------------------------------------------


class _RecordingBackend(Backend):
    """A child backend that records every chained SearchRequest."""

    def __init__(self, n_entries: int = 4):
        self.requests = []
        self.entries = [
            Entry(f"hn=rec{i}, o=Grid", objectclass="computer", hn=f"rec{i}")
            for i in range(n_entries)
        ]

    def _search_impl(self, req, ctx):
        self.requests.append(req)
        limit = req.size_limit or len(self.entries)
        out = self.entries[:limit]
        code = (
            ResultCode.SIZE_LIMIT_EXCEEDED
            if limit < len(self.entries)
            else ResultCode.SUCCESS
        )
        return SearchOutcome(entries=out, result=LdapResult(code))

    def naming_contexts(self):
        return ["o=Grid"]


def _vo_with_recording_child(tb: GridTestbed, **giis_kwargs):
    giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", **giis_kwargs)
    recorder = _RecordingBackend()
    node = tb.host("rec")
    server = LdapServer(recorder, clock=tb.sim, name="gris-rec")
    node.listen(2135, server.handle_connection)
    giis.backend.apply_grrp(
        GrrpMessage(
            service_url="ldap://rec:2135/",
            timestamp=tb.sim.now(),
            valid_until=tb.sim.now() + 3600.0,
            metadata={"suffix": "o=Grid"},
        )
    )
    return giis, recorder


class TestSizeBudget:
    def test_transparent_request_propagates_limit(self):
        tb = GridTestbed(seed=5)
        giis, recorder = _vo_with_recording_child(tb)
        client = tb.client("u", giis)
        client.search(
            "o=Grid", filter="(objectclass=computer)", size_limit=2, check=False
        )
        assert recorder.requests and recorder.requests[-1].size_limit == 2

    def test_projected_request_keeps_children_unlimited(self):
        """Attribute selection makes the parent non-transparent: a child
        truncating early could starve the parent's authoritative
        projection, so the budget must stay home."""
        tb = GridTestbed(seed=5)
        giis, recorder = _vo_with_recording_child(tb)
        client = tb.client("u", giis)
        client.search(
            "o=Grid",
            filter="(objectclass=computer)",
            attrs=["hn"],
            size_limit=2,
            check=False,
        )
        assert recorder.requests and recorder.requests[-1].size_limit == 0

    def test_child_size_limit_exceeded_is_partial_success(self):
        tb = GridTestbed(seed=5)
        giis, recorder = _vo_with_recording_child(tb)
        client = tb.client("u", giis)
        out = client.search(
            "o=Grid", filter="(objectclass=computer)", size_limit=3, check=False
        )
        # The child truncated at 3 and said sizeLimitExceeded; the
        # parent serves the partial set instead of dropping the child.
        assert out.result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        assert len(out.entries) == 3
        assert giis.backend.metrics.counter("giis.child.errors").value == 0

    def test_size_limit_abandons_outstanding_children(self):
        tb = GridTestbed(seed=6)
        giis, _ = _build_vo(tb, n_gris=4)
        client = tb.client("u", giis)
        out = client.search(
            "o=Grid", filter="(objectclass=computer)", size_limit=2, check=False
        )
        assert out.result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        assert len(out.entries) == 2
        abandoned = giis.backend.metrics.counter("giis.child.abandoned")
        assert abandoned.value >= 1


@pytest.mark.parametrize("time_limit, forwarded", [(2, 2), (0, 5)])
def test_time_budget_propagates_to_children(time_limit, forwarded):
    """Each child is asked for the tighter of the client's timeLimit and
    the GIIS's own child timeout."""
    tb = GridTestbed(seed=5)
    giis, recorder = _vo_with_recording_child(tb, child_timeout=5.0)
    out = []
    tb.client("u", giis).search_async(
        SearchRequest(
            base="o=Grid",
            filter=parse_filter("(objectclass=computer)"),
            time_limit=time_limit,
        ),
        lambda r, _e: out.append(r),
    )
    tb.run(1.0)
    assert out and out[0].result.ok
    assert [r.time_limit for r in recorder.requests] == [forwarded]
