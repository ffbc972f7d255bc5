"""Distributed substrate: clocks, discrete-event simulation, transports.

One :class:`~repro.net.transport.Endpoint` interface with two
implementations: a deterministic simulator (:mod:`repro.net.simnet`)
for the partition/loss experiments, and the real TCP/UDP transport
(:mod:`repro.net.reactor`), a selector event loop that multiplexes
every socket on one thread.
"""

from typing import Optional

from .clock import Clock, TimerHandle, WallClock
from .links import LAN, LOCAL, WAN, LinkModel
from .reactor import Reactor, ReactorConnection, ReactorEndpoint
from .sim import SimulationError, Simulator
from .simnet import SimConnection, SimNetwork, SimNode
from .transport import (
    Address,
    Connection,
    ConnectionClosed,
    ConnectionHandler,
    Endpoint,
    TransportError,
)

__all__ = [
    "Clock",
    "TimerHandle",
    "WallClock",
    "LAN",
    "LOCAL",
    "WAN",
    "LinkModel",
    "SimulationError",
    "Simulator",
    "SimConnection",
    "SimNetwork",
    "SimNode",
    "Reactor",
    "ReactorConnection",
    "ReactorEndpoint",
    "Address",
    "Connection",
    "ConnectionClosed",
    "ConnectionHandler",
    "Endpoint",
    "TransportError",
    "make_endpoint",
]


def make_endpoint(
    transport: str = "reactor",
    host: str = "127.0.0.1",
    metrics: Optional[object] = None,
):
    """Build a :class:`ReactorEndpoint`; *transport* must be ``"reactor"``.

    Kept only because ``benchmarks/gridbench/run.py`` calls it by name
    and that directory changes in benchmark-only PRs; the next one
    drops it.  Everything else constructs :class:`ReactorEndpoint`.
    """
    if transport != "reactor":
        raise ValueError(
            f"unknown transport {transport!r}; the only one is 'reactor'"
        )
    return ReactorEndpoint(host, metrics=metrics)
