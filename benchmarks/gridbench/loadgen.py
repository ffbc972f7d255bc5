"""The load generator: one process, open loop, timed from the due instant.

Requests go out over ``repro.ldap.client.LdapClient`` on the reactor
transport: the calling thread paces (sleeps until each request is due
and writes it), the reactor thread receives.  Requests are pipelined
over the workload's connections and never wait for one another, so a
stall in the server shows as latency on every request that was due
meanwhile — each is timed from when it was *due*, not from when it was
written.  Answers are kept and checked against the oracle afterwards,
off the timed path.
"""

from __future__ import annotations

import functools
import gc
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.grip.messages import GrrpMessage
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.dn import DN
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.ldap.url import LdapUrl

OP_TIMEOUT_S = 10.0
# Lateness of the pacing thread beyond which the generator was not
# running at all (its vCPU was taken away: the server cannot block it).
STALL_S = 0.1


@functools.lru_cache(maxsize=None)
def canon(dn: str) -> str:
    """One spelling per DN, so answers compare as sets of strings."""
    return str(DN.parse(dn)).lower()


@dataclass(frozen=True)
class Req:
    """One request of a workload, with the answer the dataset implies."""

    label: str
    base: str = ""
    scope: int = Scope.SUBTREE
    filter: str = "(objectclass=*)"
    attrs: Tuple[str, ...] = ()
    # Oracle: the DNs the search must return (canonical spelling) ...
    expect: frozenset = frozenset()
    # ... the attribute names each entry must carry, when projected ...
    expect_attrs: Optional[frozenset] = None
    # ... and the referrals, each (host, port, canonical DN).
    expect_referrals: frozenset = frozenset()
    # Keep the decoded entries for checks beyond the oracle's.
    keep_entries: bool = False
    # A GRRP REGISTER of this registrant instead of a search.
    register: Optional["Registrant"] = None

    @functools.cached_property
    def search(self) -> SearchRequest:
        return SearchRequest(
            base=self.base, scope=Scope(self.scope),
            filter=parse_filter(self.filter), attributes=self.attrs,
        )

    def describe(self) -> str:
        if self.register is not None:
            return f"register {self.register.url}"
        return f"search {self.base!r} {int(self.scope)} {self.filter} {','.join(self.attrs)}"


@dataclass(frozen=True)
class Registrant:
    """A service that keeps itself registered with a GIIS over GRRP."""

    url: str  # the service URL it advertises
    suffix: str  # the namespace it serves
    name: str
    directory_suffix: str  # the GIIS suffix the registration lands under
    ttl: float = 60.0

    def message(self, now: float) -> GrrpMessage:
        return GrrpMessage(
            service_url=self.url, timestamp=now, valid_until=now + self.ttl,
            metadata={"suffix": self.suffix, "name": self.name},
        )


@dataclass
class Sample:
    """What happened to one scheduled request."""

    req: Req
    due: float  # the instant it was due; until issued, its offset in the schedule
    offset: float = 0.0  # where in the schedule it was due
    sent: float = 0.0
    first: float = 0.0  # first entry received
    done: float = 0.0
    code: int = -1
    dns: List[str] = field(default_factory=list)
    attr_names: List[frozenset] = field(default_factory=list)
    entries: list = field(default_factory=list)
    referrals: Sequence[str] = ()
    stamped: float = 0.0  # timestamp a REGISTER carried

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ttfe(self) -> float:
        # A search answered by references alone has no entry: its first
        # (and only) answer arrives with the Done.
        return (self.first or self.done) - self.due

    def verdict(self, ignore_prefix: str = "") -> str:
        """'' when the answer is the oracle's, else what is wrong."""
        if not self.done:
            return "no answer"
        if self.latency > OP_TIMEOUT_S:
            return "timed out"
        if self.code != 0:
            return f"result code {self.code}"
        req = self.req
        if req.register is not None:
            return ""
        got = {canon(dn) for dn in self.dns}
        if ignore_prefix:
            # The traced servers run with --metrics-port, which makes
            # each publish its own mds-server-name entry.
            got = {dn for dn in got if not dn.startswith(ignore_prefix)}
        if got != req.expect:
            missing, extra = req.expect - got, got - req.expect
            return f"entries differ: {len(missing)} missing, {len(extra)} unexpected"
        if len(self.dns) != len(set(self.dns)):
            return "duplicate entries"
        if req.expect_attrs is not None and any(
            names != req.expect_attrs for names in self.attr_names
        ):
            return "attribute selection differs"
        referred = [LdapUrl.parse(uri) for uri in self.referrals]
        if {(u.host, u.port, canon(str(u.dn))) for u in referred} != req.expect_referrals:
            return f"referrals differ: got {list(self.referrals)[:3]}"
        return ""


class LoadGen:
    """Connections to one server address plus the pacing loop."""

    def __init__(self, endpoint, address: Tuple[str, int], connections: int):
        self.endpoint = endpoint
        self.address = address
        self.clients = [LdapClient(endpoint.connect(address)) for _ in range(connections)]

    def close(self) -> None:
        for client in self.clients:
            client.unbind()

    def _issue(self, client: LdapClient, sample: Sample) -> None:
        req = sample.req

        def on_done(outcome, _error) -> None:
            sample.done = time.monotonic()
            sample.code = outcome.result.code
            sample.referrals = outcome.referrals

        sample.sent = time.monotonic()
        if req.register is not None:
            sample.stamped = sample.sent
            entry = req.register.message(sample.sent).to_entry(req.register.directory_suffix)
            client.add_async(entry, on_done)
            return
        want_attrs, keep = req.expect_attrs is not None, req.keep_entries

        def on_entry(raw) -> None:
            if not sample.first:
                sample.first = time.monotonic()
            sample.dns.append(raw.dn)
            if want_attrs:
                names = raw.to_entry().attribute_names()
                sample.attr_names.append(frozenset(a.lower() for a in names))
            if keep:
                sample.entries.append(raw.to_entry())

        client.search_async(req.search, on_done, on_entry=on_entry)

    def ask(self, req: Req, timeout: float = OP_TIMEOUT_S) -> Sample:
        """One request on a connection of its own, waited for."""
        sample = Sample(req, due=time.monotonic())
        client = LdapClient(self.endpoint.connect(self.address))
        try:
            self._issue(client, sample)
            deadline = sample.due + timeout
            while not sample.done and not client.closed and time.monotonic() < deadline:
                time.sleep(0.0005)
        finally:
            client.unbind()
        return sample

    def run(self, schedule: Sequence[Tuple[float, int, Req]], marks: Sequence[Tuple[float, object]] = ()):
        """Issue *schedule* = [(due offset, connection, request)] in order.

        *marks* = [(offset, callback)] run on the pacing thread when
        their offset comes up (window boundaries: read the CPU clocks).
        Returns (samples, lags, stalls): every request's record, how late
        each was written, and [(offset, seconds)] for every time this
        process itself was stopped for longer than STALL_S.  A stall
        moves the rest of the schedule back by its length: replayed as
        a burst, the requests that fell due meanwhile would measure a
        queue the generator made, and overflow it.
        """
        samples = [Sample(req, due, offset=due) for due, _conn, req in schedule]
        lags: List[float] = []
        stalls: List[Tuple[float, float]] = []
        marks = sorted(marks, key=lambda m: m[0])
        next_mark = 0
        gc.collect()
        gc.disable()  # a collection pause would be timed as server latency
        try:
            origin = time.monotonic() + 0.05
            for sample, (due, conn, _req) in zip(samples, schedule):
                while next_mark < len(marks) and marks[next_mark][0] <= due:
                    _sleep_until(origin + marks[next_mark][0])
                    marks[next_mark][1]()
                    next_mark += 1
                late = time.monotonic() - (origin + due)
                if late > STALL_S:
                    stalls.append((due, late))
                    origin += late
                sample.due = origin + due
                _sleep_until(sample.due)
                self._issue(self.clients[conn], sample)
                lags.append(sample.sent - sample.due)
            for offset, callback in marks[next_mark:]:
                _sleep_until(origin + offset)
                callback()
            deadline = time.monotonic() + OP_TIMEOUT_S
            while time.monotonic() < deadline and not all(s.done for s in samples):
                time.sleep(0.002)
        finally:
            gc.enable()
        return samples, lags, stalls


def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        time.sleep(delay)

