"""The real-wire transport: one event-loop thread multiplexing every socket.

A single loop thread owns *all* sockets (listeners, stream connections,
datagram sockets) on a selector and dispatches readiness events, so the
per-client cost is one file descriptor and a few hundred bytes of
buffer state.  That is what lets one server hold thousands of
concurrent clients, the multi-user regime where the MDS performance
studies measured the original implementation falling over.

A stream connection carries bare RFC 4511 LDAPMessages, as any LDAP
client sends them: each is one BER SEQUENCE whose definite length says
where it ends, so the message-preserving
:class:`~repro.net.transport.Connection` contract holds over a byte
stream with no framing of our own; datagrams map onto UDP.  The
deterministic simulator (:mod:`repro.net.simnet`) implements the same
``Connection`` and ``Endpoint`` contracts, so servers and clients
cannot tell which of the two they are speaking over.

Threading rules:

* ``send`` is callable from any thread.  When the output buffer is
  empty it writes straight to the non-blocking socket from the calling
  thread (the hot path — no loop-thread round trip); a short write
  buffers the remainder and arms write interest on the loop.
* Receive callbacks run on the loop thread, serialized per connection
  in arrival order.  They must not block: an
  :class:`~repro.ldap.executor.RequestExecutor` with workers is the
  intended place for slow work (see ``grid-info-server --workers``).
  In particular, the blocking client wrappers (``LdapClient.search``
  and friends) must never be invoked from a reactor callback — they
  would wait on a response only the blocked loop could deliver.
* Selector registration changes happen only on the loop thread, posted
  via :meth:`Reactor.call` and a self-pipe wakeup.
"""

from __future__ import annotations

import collections
import logging
import selectors
import socket
import threading
import weakref
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from .transport import (
    Address,
    Connection,
    ConnectionClosed,
    ConnectionHandler,
    TransportError,
)

__all__ = ["Reactor", "ReactorConnection", "ReactorEndpoint"]

log = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024 * 1024  # defensive bound on frame size

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
_RECV_CHUNK = 128 * 1024
# Per-readiness-event work bounds.  The selector is level-triggered, so
# stopping early never loses data — the socket shows up again on the
# next select — but the bounds keep one firehose peer from starving
# every other connection on the loop.
_RECV_BURST = 32
_ACCEPT_BURST = 64


def _frame_end(buf: "bytes | bytearray | memoryview", start: int) -> int:
    """End of the LDAPMessage at *start*: a SEQUENCE (``0x30``) with a
    definite length, short form or 1-4 length octets (X.690 §8.1.3).
    0 while its header is incomplete; -1 for any other header or a
    length above :data:`MAX_FRAME`.  The decoder validates the rest."""
    have = len(buf) - start
    if have < 2:
        return -1 if have == 1 and buf[start] != 0x30 else 0
    if buf[start] != 0x30:
        return -1
    first = buf[start + 1]
    if first < 0x80:
        return start + 2 + first
    width = first & 0x7F
    if not 1 <= width <= 4:
        return -1
    if have < 2 + width:
        return 0
    length = int.from_bytes(buf[start + 2 : start + 2 + width], "big")
    return start + 2 + width + length if length <= MAX_FRAME else -1


class Reactor:
    """A selector event loop on one daemon thread.

    Owns fd registration and readiness dispatch.  ``data`` for every
    registered fd is a ``callback(mask)`` invoked on the loop thread.
    Other threads interact only through :meth:`call`, which posts a
    closure to the loop and wakes it via a socketpair self-pipe.
    """

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, name: str = "reactor"
    ):
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, _READ, self._on_wakeup)
        self._calls: Deque[Callable[[], None]] = collections.deque()
        self._lock = threading.Lock()
        self._stopped = False
        self._metrics = metrics
        self._cb_errors = (
            metrics.counter("reactor.callback_errors")
            if metrics is not None
            else None
        )
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    # -- cross-thread entry points ------------------------------------------

    def call(self, fn: Callable[[], None]) -> bool:
        """Run *fn* on the loop thread; False if the reactor is stopped."""
        with self._lock:
            if self._stopped:
                return False
            self._calls.append(fn)
        self._wake()
        return True

    def stop(self) -> None:
        """Stop the loop; joins the loop thread when called from outside it."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._wake()
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=5.0)

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- loop-thread-only selector surface ----------------------------------

    def register(self, sock, events: int, callback: Callable[[int], None]) -> None:
        self._selector.register(sock, events, callback)

    def modify(self, sock, events: int, callback: Callable[[int], None]) -> None:
        self._selector.modify(sock, events, callback)

    def unregister(self, sock) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass  # never registered, or already gone

    # -- internals -----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # loop already tearing down, or pipe full (still wakes)

    def _on_wakeup(self, mask: int) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _count_error(self, context: str) -> None:
        log.exception("reactor: error in %s", context)
        if self._cb_errors is not None:
            self._cb_errors.inc()

    def _run(self) -> None:
        try:
            while True:
                try:
                    events = self._selector.select(timeout=5.0)
                except OSError:
                    events = []
                for key, mask in events:
                    try:
                        key.data(mask)
                    except Exception:  # noqa: BLE001 - never kill the loop
                        self._count_error("readiness callback")
                while True:
                    with self._lock:
                        if not self._calls:
                            break
                        fn = self._calls.popleft()
                    try:
                        fn()
                    except Exception:  # noqa: BLE001 - never kill the loop
                        self._count_error("posted call")
                if self._stopped:
                    break
        finally:
            for key in list(self._selector.get_map().values()):
                if key.fileobj is self._wake_r:
                    continue
                try:
                    key.fileobj.close()
                except OSError:
                    pass
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()


class ReactorConnection:
    """A framed TCP connection multiplexed on a :class:`Reactor`.

    Reads are dispatched by the loop; writes go direct from the sender
    when the socket has room.
    """

    def __init__(
        self,
        reactor: Reactor,
        sock: socket.socket,
        metrics: Optional[MetricsRegistry] = None,
    ):
        sock.setblocking(False)
        # Request/response exchanges are many small frames; Nagle +
        # delayed ACK would add ~40ms to every multi-message response.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair in tests)
        self._reactor = reactor
        self._sock = sock
        self._metrics = metrics
        if metrics is not None:
            self._frames_in = metrics.counter("tcp.frames.received")
            self._bytes_in = metrics.counter("tcp.bytes.received")
            self._frames_out = metrics.counter("tcp.frames.sent")
            self._bytes_out = metrics.counter("tcp.bytes.sent")
        # Outbound: chunks pending write, socket writes serialized by
        # _out_lock (both the optimistic sender path and the loop's
        # flush take it).
        self._out: Deque[memoryview] = collections.deque()
        self._out_lock = threading.Lock()
        self._write_armed = False
        # Inbound: frame reassembly state, loop thread only.
        self._rbuf = bytearray()
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._close_handler: Optional[Callable[[], None]] = None
        self._inbox: List[bytes] = []
        self._closed = False
        self._state_lock = threading.Lock()
        # Serializes delivery to the receiver callback: the loop's frame
        # dispatch and set_receiver's backlog drain both take it, so
        # messages are handed over strictly in arrival order.  RLock,
        # because a callback may itself swap the receiver.
        self._deliver_lock = threading.RLock()
        self._local: Address = sock.getsockname()[:2]
        self._peer: Address = sock.getpeername()[:2]
        self._registered = False
        if not reactor.call(self._register):
            # Reactor already stopped: nothing will ever read this.
            self._mark_closed()

    # -- Connection interface ------------------------------------------------

    @property
    def peer(self) -> Address:
        return self._peer

    @property
    def local(self) -> Address:
        return self._local

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: bytes) -> None:
        if len(message) > MAX_FRAME:
            raise TransportError(
                f"frame of {len(message)} bytes exceeds {MAX_FRAME}"
            )
        if self._closed:
            raise ConnectionClosed(f"connection to {self._peer} closed")
        need_arm = False
        try:
            with self._out_lock:
                if self._closed:
                    raise ConnectionClosed(f"connection to {self._peer} closed")
                if not self._out:
                    # Hot path: the buffer is empty, so ordering allows
                    # writing from this thread without a loop round trip.
                    try:
                        sent = self._sock.send(message)
                    except (BlockingIOError, InterruptedError):
                        sent = 0
                    if sent < len(message):
                        self._out.append(memoryview(message)[sent:])
                        need_arm = not self._write_armed
                        self._write_armed = True
                else:
                    self._out.append(memoryview(message))
                    need_arm = not self._write_armed
                    self._write_armed = True
        except OSError as exc:
            self._mark_closed()
            raise ConnectionClosed(str(exc)) from exc
        if need_arm:
            self._reactor.call(self._arm_write)
        if self._metrics is not None:
            self._frames_out.inc()
            self._bytes_out.inc(len(message))

    def send_all(self, messages: Sequence[bytes]) -> None:
        # One socket write for the lot; ``send`` stays the only write path,
        # so ``tcp.frames.sent`` counts writes, not messages.
        self.send(messages[0] if len(messages) == 1 else b"".join(messages))

    def set_receiver(self, callback: Callable[[bytes], None]) -> None:
        # The backlog drain must be serialized against the loop: draining
        # outside the lock would let the loop deliver a newer frame
        # directly to the callback while older backlog frames are still
        # in flight here.  _deliver_lock (not _state_lock) carries the
        # callback calls so a receiver that closes the connection cannot
        # deadlock on state.
        with self._deliver_lock:
            with self._state_lock:
                self._receiver = callback
                backlog, self._inbox = self._inbox, []
            for message in backlog:
                callback(message)

    def set_close_handler(self, callback: Callable[[], None]) -> None:
        fire = False
        with self._state_lock:
            self._close_handler = callback
            fire = self._closed
        if fire:
            callback()

    def close(self) -> None:
        self._mark_closed()

    # -- loop-thread handlers -------------------------------------------------

    def _register(self) -> None:
        if self._closed:
            try:
                self._sock.close()
            except OSError:
                pass
            return
        self._reactor.register(self._sock, _READ, self._on_events)
        self._registered = True
        with self._out_lock:
            if self._out:
                self._write_armed = True
                armed = True
            else:
                armed = False
        if armed:
            self._arm_write()

    def _arm_write(self) -> None:
        if self._closed or not self._registered:
            return
        try:
            self._reactor.modify(self._sock, _READ | _WRITE, self._on_events)
        except (KeyError, ValueError, OSError):
            pass  # unregistered by a concurrent close

    def _on_events(self, mask: int) -> None:
        if mask & _WRITE:
            self._on_writable()
        if not self._closed and mask & _READ:
            self._on_readable()

    def _on_writable(self) -> None:
        try:
            with self._out_lock:
                while self._out:
                    chunk = self._out[0]
                    sent = self._sock.send(chunk)
                    if sent < len(chunk):
                        self._out[0] = chunk[sent:]
                        return
                    self._out.popleft()
                self._write_armed = False
                try:
                    self._reactor.modify(self._sock, _READ, self._on_events)
                except (KeyError, ValueError, OSError):
                    pass
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._mark_closed()

    def _on_readable(self) -> None:
        try:
            for _ in range(_RECV_BURST):
                chunk = self._sock.recv(_RECV_CHUNK)
                if not chunk:
                    self._mark_closed()
                    return
                self._ingest(chunk)
                if self._closed or len(chunk) < _RECV_CHUNK:
                    return
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._mark_closed()

    def _ingest(self, chunk: bytes) -> None:
        """Extract frames from one recv'd chunk, loop thread only.

        When reassembly state is empty and the chunk holds complete
        frames — the common case for request/response traffic — each
        payload is delivered as a zero-copy :class:`memoryview` slice of
        the chunk, with no intermediate buffer append.  Only a partial
        trailing frame (or a pre-existing partial frame) goes through
        the ``_rbuf`` reassembly path.
        """
        if self._rbuf:
            self._rbuf += chunk
            self._drain_rbuf()
            return
        view = memoryview(chunk)
        total = len(chunk)
        offset = 0
        while offset < total:
            end = _frame_end(view, offset)
            if end < 0:
                self._mark_closed()
                return
            if end == 0 or end > total:
                break
            self._deliver(view[offset:end])
            if self._closed:
                return  # the receiver hung up: the rest is not for it
            offset = end
        if offset < total:
            self._rbuf += view[offset:]

    def _drain_rbuf(self) -> None:
        buf = self._rbuf
        while not self._closed:
            end = _frame_end(buf, 0)
            if end < 0:
                self._mark_closed()
                break
            if end == 0 or end > len(buf):
                return
            payload = bytes(buf[:end])
            del buf[:end]
            self._deliver(payload)
        buf.clear()  # closed: what is buffered is for nobody

    def _deliver(self, payload: "bytes | memoryview") -> None:
        if self._metrics is not None:
            self._frames_in.inc()
            self._bytes_in.inc(len(payload))
        with self._deliver_lock:
            with self._state_lock:
                receiver = self._receiver
                if receiver is None:
                    # A view would alias a buffer we are about to reuse;
                    # backlogged frames must own their bytes.
                    self._inbox.append(bytes(payload))
                    return
            try:
                receiver(payload)
            except Exception:  # noqa: BLE001 - receiver bug, not ours
                # It may have died half way through a request, so no
                # later frame can be dispatched against its state.
                self._reactor._count_error("receive callback")
                self._mark_closed()

    # -- teardown ------------------------------------------------------------

    def _mark_closed(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            handler = self._close_handler
        if not self._reactor.call(self._teardown):
            self._teardown()  # reactor stopped: the loop cannot race us
        if handler:
            handler()

    def _teardown(self) -> None:
        if self._registered:
            self._reactor.unregister(self._sock)
            self._registered = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class ReactorEndpoint:
    """Endpoint whose sockets are all multiplexed on one event loop.

    ``listen``/``connect`` cost a registration, not a thread, so
    thousands of concurrent connections are one loop's bookkeeping.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        metrics: Optional[MetricsRegistry] = None,
        reactor: Optional[Reactor] = None,
        listen_backlog: int = 1024,
    ):
        self.host = host
        self.metrics = metrics
        self._reactor = reactor if reactor is not None else Reactor(metrics=metrics)
        self._owns_reactor = reactor is None
        self._listen_backlog = listen_backlog
        self._servers: List[socket.socket] = []
        self._udp_socks: Dict[int, socket.socket] = {}
        self._udp_send_lock = threading.Lock()
        self._udp_send: Optional[socket.socket] = None
        self._closing = False
        # Every connection this endpoint accepted or dialed, so close()
        # can propagate: each connection's close handler fires, letting
        # servers cancel in-flight work and clients fail pending ops.
        # Weak, so a connection both sides forgot can be collected.
        self._conns: "weakref.WeakSet[ReactorConnection]" = weakref.WeakSet()

    @property
    def reactor(self) -> Reactor:
        return self._reactor

    @property
    def address(self) -> Address:
        return (self.host, 0)

    def _track(self, conn: ReactorConnection) -> ReactorConnection:
        self._conns.add(conn)
        return conn

    def listen(self, port: int, handler: ConnectionHandler) -> int:
        """Start a TCP listener; returns the bound port (for port=0)."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, port))
        server.listen(self._listen_backlog)
        server.setblocking(False)
        bound = server.getsockname()[1]
        self._servers.append(server)

        def on_accept(mask: int) -> None:
            for _ in range(_ACCEPT_BURST):
                try:
                    sock, _addr = server.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    return  # listener closed
                if self._closing:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    return
                if self.metrics is not None:
                    self.metrics.counter("tcp.connections.accepted").inc()
                try:
                    conn = self._track(
                        ReactorConnection(self._reactor, sock, metrics=self.metrics)
                    )
                except OSError:
                    # Peer reset before we could even wrap the socket.
                    try:
                        sock.close()
                    except OSError:
                        pass
                    continue
                # One bad handshake must not stop the listener for every
                # future client: count it, drop the connection, keep
                # accepting.
                try:
                    handler(conn)
                except Exception:  # noqa: BLE001 - handler bug, not ours
                    log.exception("reactor: connection handler failed")
                    if self.metrics is not None:
                        self.metrics.counter("tcp.accept.handler_errors").inc()
                    conn.close()

        self._reactor.call(
            lambda: self._reactor.register(server, _READ, on_accept)
        )
        return bound

    def connect(self, remote: Address) -> Connection:
        if self._closing:
            raise ConnectionClosed("endpoint is closed")
        try:
            sock = socket.create_connection(remote, timeout=5.0)
        except OSError as exc:
            raise ConnectionClosed(f"cannot connect to {remote}: {exc}") from exc
        if self.metrics is not None:
            self.metrics.counter("tcp.connections.dialed").inc()
        return self._track(
            ReactorConnection(self._reactor, sock, metrics=self.metrics)
        )

    # -- datagrams ----------------------------------------------------------

    def on_datagram(
        self, port: int, handler: Callable[[Address, bytes], None]
    ) -> int:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, port))
        sock.setblocking(False)
        bound = sock.getsockname()[1]
        self._udp_socks[bound] = sock

        def on_read(mask: int) -> None:
            for _ in range(_ACCEPT_BURST):
                try:
                    payload, addr = sock.recvfrom(65536)
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    return
                try:
                    handler(addr[:2], payload)
                except Exception:  # noqa: BLE001 - handler bug, not ours
                    log.exception("reactor: datagram handler failed")
                    if self.metrics is not None:
                        self.metrics.counter("tcp.accept.handler_errors").inc()

        self._reactor.call(lambda: self._reactor.register(sock, _READ, on_read))
        return bound

    def send_datagram(self, remote: Address, payload: bytes) -> None:
        # UDP sendto on an unconnected socket never blocks meaningfully;
        # doing it from the caller keeps datagrams off the loop thread.
        with self._udp_send_lock:
            if self._closing:
                return  # a closed endpoint must not resurrect the socket
            if self._udp_send is None:
                self._udp_send = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                self._udp_send.sendto(payload, remote)
            except OSError:
                pass  # datagrams are fire-and-forget

    def close(self) -> None:
        self._closing = True

        def shutdown_listeners() -> None:
            for server in self._servers:
                self._reactor.unregister(server)
                try:
                    server.close()
                except OSError:
                    pass
            for sock in self._udp_socks.values():
                self._reactor.unregister(sock)
                try:
                    sock.close()
                except OSError:
                    pass

        if not self._reactor.call(shutdown_listeners):
            shutdown_listeners()
        for conn in list(self._conns):
            conn.close()
        with self._udp_send_lock:
            if self._udp_send is not None:
                try:
                    self._udp_send.close()
                except OSError:
                    pass
                self._udp_send = None
        if self._owns_reactor:
            self._reactor.stop()
