"""A minimal HTTP/1.0 responder multiplexed on a :class:`Reactor`.

The Prometheus exposition endpoint (:mod:`repro.obs.expo`) needs plain
HTTP.  The reactor's stream connections deliver LDAPMessages, each
delimited by its own BER length, and HTTP is not BER — so this module
registers its own raw sockets on the same event loop: accept, buffer
until the header terminator, dispatch one GET, write the response,
close.  One loop
thread therefore carries both the LDAP service traffic and its metrics
scrapes, which is the point: no extra thread pool appears just because
the server is being watched.

Deliberately tiny: GET only, one request per connection
(``Connection: close``), bounded request size, no keep-alive, no TLS.
Handlers run on the loop thread and must be fast — rendering a metrics
page qualifies; anything slower does not belong here.
"""

from __future__ import annotations

import socket
from selectors import EVENT_READ as _READ, EVENT_WRITE as _WRITE
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # import at runtime would close an obs<->net cycle
    from .reactor import Reactor

__all__ = ["HttpListener"]

_MAX_REQUEST = 16 * 1024

# path -> (status, content_type, body)
HttpHandler = Callable[[str], Tuple[int, str, bytes]]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def _response(status: int, content_type: str, body: bytes) -> bytes:
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class _HttpConn:
    """Per-connection state machine, loop thread only."""

    __slots__ = ("listener", "sock", "rbuf", "wbuf", "responded")

    def __init__(self, listener: "HttpListener", sock: socket.socket):
        self.listener = listener
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = b""
        self.responded = False

    def on_events(self, mask: int) -> None:
        if mask & _WRITE:
            self._flush()
        if mask & _READ and not self.responded:
            self._read()

    def _read(self) -> None:
        try:
            chunk = self.sock.recv(8192)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.close()
            return
        if not chunk:
            self.close()
            return
        self.rbuf += chunk
        if len(self.rbuf) > _MAX_REQUEST:
            self._respond(_response(400, "text/plain", b"request too large\n"))
            return
        if b"\r\n\r\n" in self.rbuf or b"\n\n" in self.rbuf:
            self._dispatch()

    def _dispatch(self) -> None:
        line = bytes(self.rbuf.split(b"\r\n", 1)[0].split(b"\n", 1)[0])
        parts = line.split()
        if len(parts) < 2:
            self._respond(_response(400, "text/plain", b"bad request line\n"))
            return
        method, target = parts[0].decode("latin-1"), parts[1].decode("latin-1")
        if method != "GET":
            self._respond(
                _response(405, "text/plain", b"only GET is served here\n")
            )
            return
        path = target.split("?", 1)[0]
        try:
            status, content_type, body = self.listener.handler(path)
        except Exception:  # noqa: BLE001 - a handler bug is a 500, not a dead loop
            status, content_type, body = (
                500,
                "text/plain",
                b"internal error\n",
            )
        self._respond(_response(status, content_type, body))

    def _respond(self, payload: bytes) -> None:
        self.responded = True
        self.wbuf = payload
        self._flush()

    def _flush(self) -> None:
        if not self.wbuf:
            return
        try:
            sent = self.sock.send(self.wbuf)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self.close()
            return
        self.wbuf = self.wbuf[sent:]
        reactor = self.listener.reactor
        if self.wbuf:
            try:
                reactor.modify(self.sock, _READ | _WRITE, self.on_events)
            except (KeyError, ValueError, OSError):
                pass
        elif self.responded:
            self.close()

    def close(self) -> None:
        self.listener._forget(self)
        self.listener.reactor.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass


class HttpListener:
    """One HTTP listening socket plus its live connections on a reactor."""

    def __init__(
        self,
        reactor: "Reactor",
        handler: HttpHandler,
        host: str = "127.0.0.1",
    ):
        self.reactor = reactor
        self.handler = handler
        self.host = host
        self._server: Optional[socket.socket] = None
        self._conns: Dict[int, _HttpConn] = {}
        self._closed = False

    def listen(self, port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, port))
        server.listen(64)
        server.setblocking(False)
        self._server = server
        bound = server.getsockname()[1]
        if not self.reactor.call(
            lambda: self.reactor.register(server, _READ, self._on_accept)
        ):
            server.close()
            raise RuntimeError("reactor is stopped")
        return bound

    def _on_accept(self, mask: int) -> None:
        for _ in range(16):
            try:
                sock, _addr = self._server.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            if self._closed:
                try:
                    sock.close()
                except OSError:
                    pass
                return
            sock.setblocking(False)
            conn = _HttpConn(self, sock)
            self._conns[id(conn)] = conn
            self.reactor.register(sock, _READ, conn.on_events)

    def _forget(self, conn: _HttpConn) -> None:
        self._conns.pop(id(conn), None)

    def close(self) -> None:
        self._closed = True

        def teardown() -> None:
            if self._server is not None:
                self.reactor.unregister(self._server)
                try:
                    self._server.close()
                except OSError:
                    pass
            for conn in list(self._conns.values()):
                conn.close()

        if not self.reactor.call(teardown):
            teardown()
