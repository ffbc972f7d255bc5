"""The real-wire transport: Endpoint/Connection semantics over loopback,
then the reactor's framing contract driven byte by byte from a raw
socket — a stream of bare BER-delimited LDAPMessages: coalesced frames,
frames split at every offset (inside the tag and length octets too),
lengths it refuses, owned-vs-borrowed payloads, short writes — and what
happens to the bytes behind a frame whose receiver hung up or blew up.
"""

import socket
import threading
import time

import pytest

from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT
from repro.ldap.entry import Entry
from repro.ldap.protocol import (
    AddRequest,
    LdapMessage,
    SearchRequest,
    UnbindRequest,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.reactor import MAX_FRAME
from repro.net.transport import ConnectionClosed
from repro.obs.metrics import MetricsRegistry

from .test_protocol import BAD_ENUM, BAD_UTF8, deep_search_frame
from .wire import ber_seq


@pytest.fixture
def endpoint():
    ep = ReactorEndpoint()
    yield ep
    ep.close()


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# A long-form length one past the bound, with nothing after it yet.
OVERSIZED = b"\x30\x84" + (MAX_FRAME + 1).to_bytes(4, "big")


def dial_raw(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_to_eof(sock: socket.socket) -> bytes:
    """Everything the peer sends until it closes (fails on a 5 s stall)."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoint:
    def test_echo(self, endpoint):
        def handler(conn):
            conn.set_receiver(lambda m: conn.send(ber_seq(b"echo:" + m)))

        port = endpoint.listen(0, handler)
        conn = endpoint.connect(("127.0.0.1", port))
        got = []
        conn.set_receiver(got.append)
        conn.send(ber_seq(b"hi"))
        assert wait_for(lambda: got == [ber_seq(b"echo:" + ber_seq(b"hi"))])
        conn.close()

    def test_framing_preserves_boundaries(self, endpoint):
        got = []
        port = endpoint.listen(0, lambda c: c.set_receiver(got.append))
        conn = endpoint.connect(("127.0.0.1", port))
        msgs = [ber_seq(bytes([i]) * (i * 100 + 1)) for i in range(20)]
        for m in msgs:
            conn.send(m)
        assert wait_for(lambda: len(got) == 20)
        assert got == msgs
        conn.close()

    def test_large_frame(self, endpoint):
        got = []
        port = endpoint.listen(0, lambda c: c.set_receiver(got.append))
        conn = endpoint.connect(("127.0.0.1", port))
        big = ber_seq(b"x" * (2 * 1024 * 1024))
        conn.send(big)
        assert wait_for(lambda: got and len(got[0]) == len(big))
        conn.close()

    def test_connect_refused(self, endpoint):
        with pytest.raises(ConnectionClosed):
            endpoint.connect(("127.0.0.1", 1))  # nothing listens there

    def test_close_propagates(self, endpoint):
        server_conns = []
        port = endpoint.listen(0, server_conns.append)
        conn = endpoint.connect(("127.0.0.1", port))
        assert wait_for(lambda: bool(server_conns))
        closed = threading.Event()
        server_conns[0].set_close_handler(closed.set)
        conn.close()
        assert closed.wait(5.0)

    def test_send_after_close(self, endpoint):
        port = endpoint.listen(0, lambda c: None)
        conn = endpoint.connect(("127.0.0.1", port))
        conn.close()
        with pytest.raises(ConnectionClosed):
            conn.send(ber_seq(b"x"))

    def test_backlog_before_receiver(self, endpoint):
        server_conns = []
        port = endpoint.listen(0, server_conns.append)
        conn = endpoint.connect(("127.0.0.1", port))
        conn.send(ber_seq(b"early"))
        assert wait_for(lambda: bool(server_conns))
        time.sleep(0.05)  # let the frame arrive before installing receiver
        got = []
        server_conns[0].set_receiver(got.append)
        assert wait_for(lambda: got == [ber_seq(b"early")])
        conn.close()

    def test_many_concurrent_connections(self, endpoint):
        def handler(conn):
            conn.set_receiver(lambda m: conn.send(bytes(m).upper()))

        port = endpoint.listen(0, handler)
        results = {}

        def client(i):
            c = endpoint.connect(("127.0.0.1", port))
            got = []
            c.set_receiver(got.append)
            c.send(ber_seq(f"msg{i}".encode()))
            wait_for(lambda: got)
            results[i] = got[0] if got else None
            c.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert all(results[i] == ber_seq(f"MSG{i}".encode()) for i in range(10))

    def test_udp_datagrams(self, endpoint):
        got = []
        port = endpoint.on_datagram(0, lambda src, p: got.append(p))
        endpoint.send_datagram(("127.0.0.1", port), b"ping")
        assert wait_for(lambda: got == [b"ping"])


class TestFraming:
    """``_ingest``/``_rbuf`` fed from a raw socket, so the test decides
    where the segment boundaries fall."""

    @pytest.fixture
    def accepted(self, endpoint):
        """(raw client socket, the server-side ReactorConnection)."""
        conns = []
        port = endpoint.listen(0, conns.append)
        raw = dial_raw(port)
        assert wait_for(lambda: bool(conns))
        yield raw, conns[0]
        raw.close()

    def test_twenty_frames_in_one_segment(self, accepted):
        raw, conn = accepted
        got = []
        conn.set_receiver(lambda m: got.append(bytes(m)))
        # first one empty; short and long (1- and 2-octet) length forms
        msgs = [ber_seq(bytes([i]) * (i * i * 7)) for i in range(20)]
        raw.sendall(b"".join(msgs))
        assert wait_for(lambda: len(got) == 20)
        assert got == msgs

    def test_one_frame_a_byte_at_a_time(self, accepted):
        """Split at every offset, including inside the tag and the
        long-form length octets."""
        raw, conn = accepted
        got = []
        conn.set_receiver(lambda m: got.append(bytes(m)))
        wire = ber_seq(b"abcdefgh" * 25) + ber_seq(b"tail")
        assert wire[:3] == b"\x30\x81\xc8"
        for i in range(len(wire)):
            raw.sendall(wire[i : i + 1])
            time.sleep(0.002)  # one byte per segment, one recv each
        assert wait_for(lambda: len(got) == 2)
        assert got == [ber_seq(b"abcdefgh" * 25), ber_seq(b"tail")]
        assert not conn._rbuf

    def test_oversized_header_closes_with_nothing_delivered(self, accepted):
        raw, conn = accepted
        got = []
        conn.set_receiver(got.append)
        raw.sendall(OVERSIZED + b"x" * 64)
        assert read_to_eof(raw) == b""
        assert conn.closed
        assert got == []
        assert not conn._rbuf  # the 64 bytes were not kept for a frame that never comes

    def test_oversized_header_behind_a_partial_frame(self, accepted):
        """The same bound on the reassembly path."""
        raw, conn = accepted
        got = []
        conn.set_receiver(lambda m: got.append(bytes(m)))
        first = ber_seq(b"first")
        raw.sendall(first[:1])
        assert wait_for(lambda: len(conn._rbuf) == 1)
        raw.sendall(first[1:] + OVERSIZED + b"x" * 64)
        assert read_to_eof(raw) == b""
        assert got == [ber_seq(b"first")]
        assert not conn._rbuf

    @pytest.mark.parametrize("partial_first", [False, True], ids=["direct", "reassembled"])
    @pytest.mark.parametrize(
        "header",
        [
            pytest.param(b"\x30\x80", id="indefinite-length"),
            pytest.param(b"\x30\x85\x00\x00\x00\x00\x05", id="five-length-octets"),
            pytest.param(b"\x00\x00\x00\x05", id="not-a-sequence"),
        ],
    )
    def test_header_we_do_not_frame_closes_with_nothing_delivered(
        self, accepted, header, partial_first
    ):
        raw, conn = accepted
        got = []
        conn.set_receiver(lambda m: got.append(bytes(m)))
        first = ber_seq(b"first") if partial_first else b""
        if first:
            raw.sendall(first[:3])
            assert wait_for(lambda: len(conn._rbuf) == 3)
        raw.sendall(first[3:] + header + b"x" * 5 + b"\x00\x00" + ber_seq(b"after"))
        assert read_to_eof(raw) == b""
        assert conn.closed
        assert got == ([ber_seq(b"first")] if first else [])
        assert not conn._rbuf

    def test_backlogged_frame_is_owned_and_a_live_one_is_a_view(self, accepted):
        raw, conn = accepted
        raw.sendall(ber_seq(b"early"))
        assert wait_for(lambda: bool(conn._inbox))
        got = []
        conn.set_receiver(got.append)
        raw.sendall(ber_seq(b"live"))
        assert wait_for(lambda: len(got) == 2)
        assert type(got[0]) is bytes and got[0] == ber_seq(b"early")
        assert type(got[1]) is memoryview and got[1] == ber_seq(b"live")

    def test_short_write_arrives_intact_and_in_order(self, endpoint):
        """A 2 MB frame to a reader that stalls: the remainder waits in
        ``_out``, a small frame queues behind it, and the loop's flush
        delivers both whole and in order."""
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            conn = endpoint.connect(listener.getsockname())
            reader, _ = listener.accept()
        finally:
            listener.close()
        try:
            reader.settimeout(10.0)
            # Fixed small buffers at both ends, or loopback swallows 2 MB whole.
            conn._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
            big = ber_seq(bytes(range(256)) * (8 * 1024))  # 2 MB, position-dependent
            conn.send(big)
            conn.send(ber_seq(b"small"))
            assert conn._out  # the write was short: this is the buffered path
            time.sleep(0.1)
            want = big + ber_seq(b"small")
            got = bytearray()
            while len(got) < len(want):
                chunk = reader.recv(1 << 20)
                assert chunk, "peer closed early"
                got += chunk
            assert bytes(got) == want
            assert wait_for(lambda: not conn._out)
        finally:
            reader.close()


class TestReceiverThatRaises:
    def test_closes_the_connection_and_fires_the_close_handler_once(self):
        metrics = MetricsRegistry()
        endpoint = ReactorEndpoint(metrics=metrics)
        try:
            seen, closes = [], []

            def receiver(message):
                seen.append(bytes(message))
                raise RuntimeError("receiver bug")

            def handler(conn):
                conn.set_close_handler(lambda: closes.append(conn))
                conn.set_receiver(receiver)

            port = endpoint.listen(0, handler)
            raw = dial_raw(port)
            try:
                # the second frame ends mid-way: torn reassembly state
                # is exactly what must not be carried on with
                raw.sendall(ber_seq(b"one") + ber_seq(b"two") + ber_seq(b"three")[:5])
                assert read_to_eof(raw) == b""
            finally:
                raw.close()
            assert seen == [ber_seq(b"one")]
            assert wait_for(lambda: len(closes) == 1)
            assert closes[0].closed and not closes[0]._rbuf
            assert metrics.counter("reactor.callback_errors").value == 1
            time.sleep(0.05)
            assert len(closes) == 1
        finally:
            endpoint.close()


ADD = encode_message(
    LdapMessage(
        2,
        AddRequest.from_entry(
            Entry("hn=sneaked, o=Grid", objectclass="computer", hn="sneaked")
        ),
    )
)
UNBIND = encode_message(LdapMessage(1, UnbindRequest()))
SEARCH = encode_message(LdapMessage(3, SearchRequest(base="o=Grid")))


class TestNothingBehindAClosingFrameIsDispatched:
    """A server that hangs up on a frame never acts on the frames that
    shared its TCP segment."""

    @pytest.fixture
    def served(self):
        dit = DIT()
        dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
        server = LdapServer(DitBackend(dit))
        endpoint = ReactorEndpoint(metrics=server.metrics)
        port = endpoint.listen(0, server.handle_connection)
        yield port, server, dit, endpoint
        endpoint.close()

    def _assert_untouched(self, server, dit):
        assert [str(e.dn) for e in dit.search("", 2)] == ["o=Grid"]
        assert server.metrics.counter("ldap.requests", {"op": "add"}).value == 0

    @pytest.mark.parametrize(
        "segments",
        [
            pytest.param([UNBIND + ADD], id="unbind-then-add"),
            pytest.param([ber_seq(b"\x00\xde\xad") + ADD], id="garbage-then-add"),
            pytest.param(
                [UNBIND[:2], UNBIND[2:] + ADD],
                id="unbind-reassembled-then-add",
            ),
        ],
    )
    def test_add_behind_a_closing_frame_is_dropped(self, served, segments):
        port, server, dit, _ = served
        raw = dial_raw(port)
        try:
            for segment in segments:
                raw.sendall(segment)
                time.sleep(0.05)  # its own recv
            assert read_to_eof(raw) == b""
        finally:
            raw.close()
        self._assert_untouched(server, dit)

    @pytest.mark.parametrize(
        "bad",
        [BAD_UTF8, BAD_ENUM, deep_search_frame(2000)],
        ids=["utf8", "enum", "filter-2000-deep"],
    )
    def test_malformed_but_framed_message_is_a_protocol_error(self, served, bad):
        """Counted, answered with EOF, nothing behind it dispatched —
        and the next connection is served."""
        port, server, dit, endpoint = served
        raw = dial_raw(port)
        try:
            raw.sendall(bad + ADD + SEARCH[:7])
            assert read_to_eof(raw) == b""
        finally:
            raw.close()
        assert server.metrics.counter("ldap.protocol.errors").value == 1
        assert server.metrics.counter("reactor.callback_errors").value == 0
        assert server.metrics.counter("ldap.requests", {"op": "search"}).value == 0
        self._assert_untouched(server, dit)

        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        try:
            assert len(client.search("o=Grid", timeout=5.0).entries) == 1
        finally:
            client.unbind()
