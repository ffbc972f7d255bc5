"""The two paths a frame can take, behind one shape.

Tests that promise "the same bytes whichever way they travel" run one
scene over the reactor on loopback and over the simulator; this is the
only place that knows how each is set up.  The reactor frames a stream
by the outer BER length of each LDAPMessage, so a test that puts its
own bytes on a connection wraps them with :func:`ber_seq`.
"""

import contextlib
import itertools
from typing import Callable, NamedTuple, Optional

from repro.ldap.ber import TAG_SEQUENCE, encode_tlv
from repro.net import ReactorEndpoint, SimNetwork, Simulator, WallClock
from repro.net.clock import Clock
from repro.net.transport import Address, Connection, ConnectionHandler

WIRES = ("reactor", "simnet")


def ber_seq(content: bytes) -> bytes:
    """*content* as one BER SEQUENCE: the shape of an LDAPMessage, and so
    the smallest thing the reactor delivers as one message."""
    return encode_tlv(TAG_SEQUENCE, content)


class Wire(NamedTuple):
    clock: Clock
    listen: Callable[[ConnectionHandler], Address]  # returns where to dial
    connect: Callable[[Address], Connection]
    # For LdapClient(driver=): pumps the simulator while a blocking call
    # waits; None on real sockets, where the loop thread delivers.
    driver: Optional[Callable[[], object]]


@contextlib.contextmanager
def open_wire(kind: str):
    if kind == "simnet":
        sim = Simulator(seed=0)
        node = SimNetwork(sim).add_node("wire")
        ports = itertools.count(389)

        def listen(handler: ConnectionHandler) -> Address:
            port = next(ports)
            node.listen(port, handler)
            return ("wire", port)

        yield Wire(sim, listen, node.connect, sim.step)
        return
    assert kind == "reactor", kind
    endpoint = ReactorEndpoint()
    try:
        yield Wire(
            WallClock(),
            lambda handler: ("127.0.0.1", endpoint.listen(0, handler)),
            endpoint.connect,
            None,
        )
    finally:
        endpoint.close()
