"""Frame fuzzing: the reactor's BER framing and the codec behind it under
random message sequences, random segmentations and random garbage.

* the framing peek, on arbitrary bytes, reads nothing past its input and
  agrees with ``ber.decode_tlv`` wherever it names a frame end;
* however a stream of encoded LDAPMessages is cut into reads — one byte
  at a time, inside the tag and length octets, anywhere — the reactor
  delivers exactly those messages in order, as views of the read when
  a message lies whole inside one that began on a message boundary and
  as owned bytes otherwise;
* the decoder answers garbage with ``ProtocolError`` and nothing else;
* a live server fed garbage closes that connection, stays up, and
  answers a well-formed search on the next one.
"""

import bisect
import socket

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ldap import ber
from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.protocol import (
    LdapMessage,
    ProtocolError,
    SearchRequest,
    SearchResultEntry,
    decode_message,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.reactor import MAX_FRAME, Reactor, ReactorConnection, _frame_end

from .test_filter import _filters

_text = st.text(max_size=12)
_attr = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8)

# Messages from a few bytes to a few kB, so lengths take the short form
# and the long form with one and two octets.
messages = st.one_of(
    st.builds(
        lambda i, base, f, attrs: LdapMessage(
            i, SearchRequest(base=base, filter=f, attributes=tuple(attrs))
        ),
        st.integers(0, 2**31 - 1),
        _text,
        _filters(),
        st.lists(_attr, max_size=4),
    ),
    st.builds(
        lambda i, dn, attrs: LdapMessage(
            i, SearchResultEntry(dn, tuple((a, tuple(vs)) for a, vs in attrs))
        ),
        st.integers(0, 2**31 - 1),
        _text,
        st.lists(
            st.tuples(_attr, st.lists(st.text(max_size=400), max_size=6)), max_size=6
        ),
    ),
)


class _Strict:
    """A byte string that fails the test on any read past its end."""

    def __init__(self, data: bytes):
        self.data = data

    def __len__(self):
        return len(self.data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            assert 0 <= index.start <= index.stop <= len(self.data), index
        else:
            assert 0 <= index < len(self.data), index
        return self.data[index]


_headers = st.one_of(
    st.binary(max_size=12),
    st.builds(
        lambda first, rest: b"\x30" + bytes([first]) + rest,
        st.integers(0, 255),
        st.binary(max_size=10),
    ),
    st.builds(
        lambda n, body: ber.encode_sequence(body)[:n], st.integers(0, 8), st.binary(max_size=300)
    ),
)


class TestFramePeek:
    @given(st.binary(max_size=4), _headers)
    @example(b"", b"\x30\x84" + (MAX_FRAME + 1).to_bytes(4, "big"))
    @example(b"", b"\x30\x80")
    @example(b"x", b"\x30\x85\x00\x00\x00\x00\x01\x00")
    @settings(max_examples=500)
    def test_reads_nothing_past_its_input_and_agrees_with_decode_tlv(self, prefix, data):
        end = _frame_end(_Strict(prefix + data), len(prefix))
        if end < 0:
            return  # refused: not a frame we deliver, whatever decode_tlv says
        try:
            expected = ber.decode_tlv(data)[2] + len(prefix)
        except ber.BerError:
            expected = None  # incomplete
        if end == 0 or end > len(prefix + data):
            assert expected is None
        else:
            assert end == expected


@st.composite
def segmented(draw):
    """(encoded messages, cut points splitting their concatenation)."""
    wire = [encode_message(m) for m in draw(st.lists(messages, min_size=1, max_size=6))]
    size = sum(len(w) for w in wire)
    starts = [0]
    for w in wire[:-1]:
        starts.append(starts[-1] + len(w))
    mode = draw(st.sampled_from(["anywhere", "byte-at-a-time", "inside-headers"]))
    if mode == "byte-at-a-time":
        cuts = set(range(1, size))
    elif mode == "inside-headers":
        cuts = {s + k for s in starts for k in (1, 2, 3) if s + k < size}
    else:
        cuts = draw(st.sets(st.integers(1, size - 1), max_size=20)) if size > 1 else set()
    return wire, sorted(cuts)


@pytest.fixture(scope="module")
def reactor():
    r = Reactor()
    yield r
    r.stop()


class TestSegmentation:
    @given(segmented())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_delivers_exactly_the_messages_in_order(self, reactor, case):
        wire, cuts = case
        ours, theirs = socket.socketpair()
        conn = ReactorConnection(reactor, ours)
        try:
            got = []
            conn.set_receiver(lambda m: got.append((type(m), bytes(m))))
            stream = b"".join(wire)
            bounds = [0] + cuts + [len(stream)]
            for lo, hi in zip(bounds, bounds[1:]):
                conn._ingest(stream[lo:hi])  # what one recv would hand it
            assert [payload for _, payload in got] == wire
            assert not conn._rbuf and not conn.closed
            starts = [0]
            for w in wire:
                starts.append(starts[-1] + len(w))
            for start, end, (kind, _) in zip(starts, starts[1:], got):
                # The read this message starts in, and whether nothing
                # was pending when that read arrived.
                read = bisect.bisect_right(bounds, start) - 1
                direct = bounds[read] in starts and end <= bounds[read + 1]
                assert kind is (memoryview if direct else bytes)
        finally:
            conn.close()
            theirs.close()


def _mutations(good: bytes):
    return st.one_of(
        st.builds(lambda n: good[:n], st.integers(0, len(good) - 1)),
        st.builds(
            lambda i, b: good[:i] + bytes([b]) + good[i + 1 :],
            st.integers(0, len(good) - 1),
            st.integers(0, 255),
        ),
        st.builds(
            lambda i, extra: good[:i] + extra + good[i:],
            st.integers(0, len(good)),
            st.binary(min_size=1, max_size=8),
        ),
    )


class TestDecoderOnGarbage:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_raises_only_protocol_error(self, data):
        good = encode_message(data.draw(messages))
        frame = data.draw(
            st.one_of(_mutations(good), st.binary(max_size=64).map(ber.encode_sequence))
        )
        try:
            decode_message(frame)
        except ProtocolError:
            pass


SEARCH = encode_message(LdapMessage(3, SearchRequest(base="o=Grid", scope=Scope.SUBTREE)))

_garbage = st.one_of(
    st.binary(min_size=1, max_size=200),
    _headers.filter(bool),
    st.builds(
        lambda n, tail: SEARCH[:n] + tail, st.integers(0, len(SEARCH)), st.binary(max_size=64)
    ),
    st.binary(max_size=300).map(ber.encode_sequence),
)


@pytest.fixture(scope="module")
def served():
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    # Writes refused: no garbage that happens to parse can move o=Grid.
    server = LdapServer(DitBackend(dit), allow_anonymous_writes=False)
    endpoint = ReactorEndpoint(metrics=server.metrics)
    port = endpoint.listen(0, server.handle_connection)
    yield port, server, endpoint
    endpoint.close()


class TestLiveServerFedGarbage:
    @given(_garbage)
    @settings(max_examples=25, deadline=None)
    def test_closes_that_connection_and_answers_the_next(self, served, garbage):
        port, server, endpoint = served
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as raw:
            raw.sendall(garbage)
            raw.shutdown(socket.SHUT_WR)
            while raw.recv(65536):  # a socket.timeout here fails the test
                pass
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        try:
            out = client.search("o=Grid", scope=Scope.BASE, timeout=5.0)
            assert [str(e.dn) for e in out.entries] == ["o=Grid"]
        finally:
            client.unbind()
        assert server.metrics.counter("reactor.callback_errors").value == 0
