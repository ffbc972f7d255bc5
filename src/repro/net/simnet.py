"""Simulated network: nodes, connections, datagrams, partitions.

Implements the :class:`~repro.net.transport.Endpoint` interface on top of
the discrete-event engine.  Supports exactly the failure phenomena the
paper reasons about:

* per-path latency/jitter/loss (:class:`~repro.net.links.LinkModel`);
* network partitions — Figure 1's VO-B "should operate as two disjoint
  fragments" and Figure 4's divergent directories;
* node crashes (a crashed node accepts and delivers nothing);
* scoped multicast, used by the SLP/SDS-style discovery baseline to model
  "multicast does not cross organizational boundaries" (§11.2).

Connections are reliable, ordered and message-preserving while the path
is usable: loss shows up as retransmission delay, not as message drops.
When the path dies (partition, link down, crash) in-flight and future
sends fail and both halves observe a close — compactly modelling a TCP
reset.  Datagrams are unreliable: loss silently drops them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .links import LAN, LinkModel
from .sim import Simulator
from .transport import (
    Address,
    Connection,
    ConnectionClosed,
    ConnectionHandler,
    TransportError,
)

__all__ = ["SimNetwork", "SimNode", "SimConnection"]

_EPHEMERAL_START = 49152


class SimConnection:
    """One half of a simulated reliable connection."""

    def __init__(
        self,
        net: "SimNetwork",
        local: Address,
        peer: Address,
    ):
        self._net = net
        self._local = local
        self._peer_addr = peer
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._close_handler: Optional[Callable[[], None]] = None
        self._inbox: List[bytes] = []
        self._closed = False
        self._earliest_delivery = 0.0
        self.peer_half: Optional["SimConnection"] = None
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- Connection interface ---------------------------------------------

    @property
    def peer(self) -> Address:
        return self._peer_addr

    @property
    def local(self) -> Address:
        return self._local

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: bytes) -> None:
        if self._closed:
            raise ConnectionClosed(f"connection {self._local}->{self._peer_addr} closed")
        net, sim = self._net, self._net.sim
        if not net.path_usable(self._local[0], self._peer_addr[0]):
            # Path died under us: model a TCP reset for both ends.
            self._fail_pair()
            raise ConnectionClosed(
                f"path {self._local[0]}->{self._peer_addr[0]} unusable"
            )
        link = net.link_between(self._local[0], self._peer_addr[0])
        delay = link.delay(sim.rng, len(message))
        # Reliable transport: loss costs retransmissions (extra delay),
        # never reordering or drops.
        while link.loss and sim.rng.random() < link.loss:
            delay += link.delay(sim.rng, len(message))
        when = max(sim.now() + delay, self._earliest_delivery)
        self._earliest_delivery = when + 1e-9
        peer = self.peer_half
        self.bytes_sent += len(message)
        self.messages_sent += 1
        net.stats.messages += 1
        net.stats.bytes += len(message)

        def deliver() -> None:
            if peer is None or peer._closed:
                return
            if not net.path_usable(self._local[0], self._peer_addr[0]):
                self._fail_pair()
                return
            peer._dispatch(message)

        sim.call_at(when, deliver)

    def send_all(self, messages: Sequence[bytes]) -> None:
        # One delivery per message, so the model and its figures are the
        # same as for per-message sends.
        for message in messages:
            self.send(message)

    def set_receiver(self, callback: Callable[[bytes], None]) -> None:
        self._receiver = callback
        while self._inbox:
            callback(self._inbox.pop(0))

    def set_close_handler(self, callback: Callable[[], None]) -> None:
        self._close_handler = callback
        if self._closed:
            callback()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        peer = self.peer_half
        if peer is not None and not peer._closed:
            # Peer observes the close after one propagation delay.
            link = self._net.link_between(self._local[0], self._peer_addr[0])
            self._net.sim.call_later(link.latency, peer._on_peer_close)
        if self._close_handler:
            self._close_handler()

    # -- internals -----------------------------------------------------------

    def _dispatch(self, message: bytes) -> None:
        if self._closed:
            return
        if self._receiver is not None:
            self._receiver(message)
        else:
            self._inbox.append(message)

    def _on_peer_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._close_handler:
            self._close_handler()

    def _fail_pair(self) -> None:
        for half in (self, self.peer_half):
            if half is not None and not half._closed:
                half._closed = True
                if half._close_handler:
                    half._close_handler()


class SimNode:
    """A simulated host attached to the network."""

    def __init__(self, net: "SimNetwork", host: str, site: Optional[str] = None):
        self._net = net
        self.host = host
        self.site = site or host
        self.alive = True
        self._listeners: Dict[int, ConnectionHandler] = {}
        self._datagram_handlers: Dict[int, Callable[[Address, bytes], None]] = {}
        self._multicast: Dict[Tuple[str, int], Callable[[Address, bytes], None]] = {}
        self._ephemeral = itertools.count(_EPHEMERAL_START)

    @property
    def address(self) -> Address:
        return (self.host, 0)

    def crash(self) -> None:
        """The node stops accepting and delivering everything."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # -- connections -----------------------------------------------------------

    def listen(self, port: int, handler: ConnectionHandler) -> None:
        if port in self._listeners:
            raise TransportError(f"{self.host}:{port} already listening")
        self._listeners[port] = handler

    def stop_listening(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(self, remote: Address) -> Connection:
        if not self.alive:
            raise TransportError(f"{self.host} is down")
        rhost, rport = remote
        target = self._net.node(rhost)
        if (
            not target.alive
            or not self._net.path_usable(self.host, rhost)
            or rport not in target._listeners
        ):
            raise ConnectionClosed(f"cannot connect {self.host} -> {rhost}:{rport}")
        local = (self.host, next(self._ephemeral))
        a = SimConnection(self._net, local, remote)
        b = SimConnection(self._net, remote, local)
        a.peer_half, b.peer_half = b, a
        target._listeners[rport](b)
        return a

    # -- datagrams -----------------------------------------------------------

    def on_datagram(self, port: int, handler: Callable[[Address, bytes], None]) -> None:
        self._datagram_handlers[port] = handler

    def send_datagram(self, remote: Address, payload: bytes) -> None:
        if not self.alive:
            return
        net, sim = self._net, self._net.sim
        rhost, rport = remote
        net.stats.datagrams += 1
        if not net.path_usable(self.host, rhost):
            return
        link = net.link_between(self.host, rhost)
        if not link.delivers(sim.rng):
            net.stats.datagrams_lost += 1
            return
        src = (self.host, 0)

        def deliver() -> None:
            target = net.node(rhost)
            if not target.alive or not net.path_usable(self.host, rhost):
                return
            handler = target._datagram_handlers.get(rport)
            if handler is not None:
                handler(src, payload)

        sim.call_later(link.delay(sim.rng, len(payload)), deliver)

    # -- multicast -------------------------------------------------------------

    def join_multicast(
        self, group: str, port: int, handler: Callable[[Address, bytes], None]
    ) -> None:
        self._multicast[(group, port)] = handler
        self._net._multicast_members.setdefault((group, port), set()).add(self.host)

    def leave_multicast(self, group: str, port: int) -> None:
        self._multicast.pop((group, port), None)
        members = self._net._multicast_members.get((group, port))
        if members:
            members.discard(self.host)

    def send_multicast(
        self, group: str, port: int, payload: bytes, scope: str = "site"
    ) -> int:
        """Send to all reachable members; returns the number targeted.

        ``scope='site'`` models link-local/administratively-scoped
        multicast: only members at the same site receive it (§11.2's
        reason multicast discovery fails across VOs).
        """
        if not self.alive:
            return 0
        net = self._net
        targeted = 0
        for member in net._multicast_members.get((group, port), ()):
            if member == self.host:
                continue
            other = net.node(member)
            if scope == "site" and other.site != self.site:
                continue
            targeted += 1
            self.send_datagram_multi(member, group, port, payload)
        return targeted

    def send_datagram_multi(
        self, rhost: str, group: str, port: int, payload: bytes
    ) -> None:
        net, sim = self._net, self._net.sim
        if not net.path_usable(self.host, rhost):
            return
        link = net.link_between(self.host, rhost)
        net.stats.datagrams += 1
        if not link.delivers(sim.rng):
            net.stats.datagrams_lost += 1
            return
        src = (self.host, 0)

        def deliver() -> None:
            target = net.node(rhost)
            if not target.alive or not net.path_usable(self.host, rhost):
                return
            handler = target._multicast.get((group, port))
            if handler is not None:
                handler(src, payload)

        sim.call_later(link.delay(sim.rng, len(payload)), deliver)


class _Stats:
    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.datagrams = 0
        self.datagrams_lost = 0


class SimNetwork:
    """The set of nodes, links and the current partition map."""

    def __init__(self, sim: Simulator, default_link: Optional[LinkModel] = None):
        self.sim = sim
        self.default_link = default_link or LAN.copy()
        self._nodes: Dict[str, SimNode] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        self._groups: Optional[Dict[str, int]] = None
        self._multicast_members: Dict[Tuple[str, int], Set[str]] = {}
        self.stats = _Stats()

    # -- topology --------------------------------------------------------------

    def add_node(self, host: str, site: Optional[str] = None) -> SimNode:
        if host in self._nodes:
            raise TransportError(f"duplicate host {host}")
        node = SimNode(self, host, site)
        self._nodes[host] = node
        return node

    def node(self, host: str) -> SimNode:
        try:
            return self._nodes[host]
        except KeyError:
            raise TransportError(f"unknown host {host}") from None

    def hosts(self) -> List[str]:
        return list(self._nodes)

    def set_link(self, a: str, b: str, link: LinkModel, symmetric: bool = True) -> None:
        self._links[(a, b)] = link
        if symmetric:
            self._links[(b, a)] = link

    def link_between(self, a: str, b: str) -> LinkModel:
        if a == b:
            return LinkModel(latency=1e-6)
        return self._links.get((a, b), self.default_link)

    # -- partitions ------------------------------------------------------------

    def partition(self, *groups: List[str]) -> None:
        """Split the network: hosts in different groups cannot talk.

        Hosts not named in any group form one additional implicit group
        together.
        """
        mapping: Dict[str, int] = {}
        for idx, group in enumerate(groups):
            for host in group:
                if host in mapping:
                    raise TransportError(f"{host} appears in two partition groups")
                mapping[host] = idx
        implicit = len(groups)
        for host in self._nodes:
            mapping.setdefault(host, implicit)
        self._groups = mapping

    def heal(self) -> None:
        """Remove the partition: full connectivity restored."""
        self._groups = None

    def partitioned(self) -> bool:
        return self._groups is not None

    def path_usable(self, a: str, b: str) -> bool:
        """Can a message flow from *a* to *b* right now?"""
        na, nb = self._nodes.get(a), self._nodes.get(b)
        if na is None or nb is None or not na.alive or not nb.alive:
            return False
        if a == b:
            return True
        if not self.link_between(a, b).up:
            return False
        if self._groups is not None and self._groups[a] != self._groups[b]:
            return False
        return True
