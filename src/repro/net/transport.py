"""Transport interfaces shared by the simulator and the real wire.

Two delivery styles, mirroring the paper's protocol split:

* :class:`Connection` — reliable, ordered, message-preserving channels
  carrying GRIP (LDAP) request/response exchanges;
* datagrams — unreliable one-shot messages, the transport GRRP "is
  designed to run over" (§4.3).  Nodes expose ``send_datagram`` and a
  registered datagram handler.

Servers implement :class:`ConnectionHandler`; the same handler object
serves a simulated node (:mod:`repro.net.simnet`) and a TCP endpoint
(:mod:`repro.net.reactor`).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, Tuple

__all__ = [
    "Address",
    "TransportError",
    "ConnectionClosed",
    "Connection",
    "ConnectionHandler",
    "Endpoint",
]

Address = Tuple[str, int]


class TransportError(Exception):
    """Base class for transport failures."""


class ConnectionClosed(TransportError):
    """The peer (or the network) closed the connection."""


class Connection(Protocol):
    """A bidirectional, ordered, message-preserving channel."""

    @property
    def peer(self) -> Address: ...

    @property
    def local(self) -> Address: ...

    def send(self, message: bytes) -> None:
        """Queue one message for delivery to the peer."""

    def send_all(self, messages: Sequence[bytes]) -> None:
        """Queue *messages* for delivery in order, as one write where the
        transport can: the peer still receives each message on its own."""

    def set_receiver(self, callback: Callable[[bytes], None]) -> None:
        """Install the inbound-message callback.

        The payload is bytes-like: transports may hand over a zero-copy
        :class:`memoryview` of the receive buffer instead of ``bytes``.
        Callbacks that retain the payload past their own return must
        copy it (``bytes(payload)``); decoding it in place is safe.
        """

    def set_close_handler(self, callback: Callable[[], None]) -> None:
        """Install a callback fired once when the connection dies."""

    def close(self) -> None: ...

    @property
    def closed(self) -> bool: ...


class ConnectionHandler(Protocol):
    """Server-side acceptor: invoked once per inbound connection."""

    def __call__(self, conn: Connection) -> None: ...


class Endpoint(Protocol):
    """A network attachment point (simulated node or reactor endpoint).

    Provides client connects, server listeners, and unreliable datagrams.
    """

    @property
    def address(self) -> Address: ...

    def connect(self, remote: Address) -> Connection: ...

    def listen(self, port: int, handler: ConnectionHandler) -> None: ...

    def send_datagram(self, remote: Address, payload: bytes) -> None: ...

    def on_datagram(
        self, port: int, handler: Callable[[Address, bytes], None]
    ) -> None: ...
