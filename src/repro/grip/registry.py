"""The soft-state registration table (receiver side of GRRP).

"State established at a remote location by a notification ... may
eventually be discarded unless refreshed by a stream of subsequent
notifications" (§4.3).  The registry holds one record per service URL,
refreshed by register messages, dropped by unregister messages or by
expiry.  "After some time without a refresh, the directory can assume
the provider has become unavailable, and purge knowledge of it."

Work is split between the GRRP message and the read.  Every mutation
(register, refresh, unregister, expiry) runs under one re-entrant lock,
:attr:`SoftStateRegistry.lock`, and publishes a new immutable
:class:`Generation`: a refresh installs a new :class:`Registration`,
nothing changes in place, and what readers need of a record (entry,
parsed namespace, referral URL, deadline) is built once, at intake.
The ``on_register`` / ``on_expire`` / ``on_unregister`` hooks fire under
the lock, after the generation that reflects them is published, so
observers see changes in the order the membership went through them.

A read takes the current generation by reference and copies nothing.
A record is dead once ``now`` exceeds ``valid_until + grace * ttl``; a
generation carries a lower bound on its records' deadlines, so a read
costs one float compare and only a read past the bound locks and sweeps:
an expired record is never served, timer or no timer.  A sweep every
``purge_interval`` (:meth:`~SoftStateRegistry.start`) adds "timely
awareness of when failures have occurred" (§2.2) while nobody reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

from ..ldap.dn import DN, DNError
from ..ldap.entry import Entry, WireCache
from ..ldap.url import LdapUrl
from ..net.clock import Clock, TimerHandle
from ..obs.metrics import MetricsRegistry
from .messages import GrrpMessage, NotificationType

__all__ = ["Registration", "Generation", "Applied", "SoftStateRegistry"]


@dataclass(frozen=True)
class Registration:
    """One live soft-state record, immutable; a refresh replaces it."""

    message: GrrpMessage
    first_seen: float
    last_seen: float
    refresh_count: int
    source_identity: Optional[str]
    seq: int  # membership order: kept across refreshes, new on rebirth
    deadline: float  # valid_until + grace * ttl
    suffix_dn: Optional[DN]  # metadata['suffix'] parsed; None if not a DN
    entry: Entry  # as served, with its own encode-cache cell; read-only
    referral: str  # the LDAP URL a referring directory answers with

    @property
    def service_url(self) -> str:
        return self.message.service_url

    @property
    def suffix_text(self) -> str:
        """The advertised namespace exactly as the provider wrote it."""
        return self.message.metadata.get("suffix", "")


class Generation(NamedTuple):
    """One immutable state of the table; every mutation publishes a new one."""

    by_url: Dict[str, Registration]  # in membership order
    by_dn: Dict[DN, str]  # registration-entry DN -> service URL
    deadline: float  # no record dies before this (exact after a sweep)
    # Moves on (un)register, expiry, rebirth and a changed suffix, not on a refresh.
    membership: int


class Applied(NamedTuple):
    """What one ``apply`` did, true if state changed.  *record*: the one
    installed or removed, or the live one a ``REFUSED`` message left."""

    kind: str
    record: Optional[Registration] = None

    NEW, REFRESHED, REBIRTH = "new", "refreshed", "rebirth"
    UNREGISTERED, REFUSED, IGNORED = "unregistered", "refused", "ignored"

    def __bool__(self) -> bool:
        return self.kind not in (self.REFUSED, self.IGNORED)


def _referral(service_url: str, suffix_text: str) -> str:
    try:
        url = LdapUrl.parse(service_url)
        return str(url.with_dn(suffix_text) if suffix_text else url)
    except ValueError:
        return service_url


class SoftStateRegistry:
    """Receiver-side GRRP state, usable standalone or inside a GIIS;
    *suffix* is the namespace its registration entries live in."""

    def __init__(
        self,
        clock: Clock,
        grace: float = 0.0,
        purge_interval: Optional[float] = None,
        on_register: Optional[Callable[[Registration], None]] = None,
        on_expire: Optional[Callable[[Registration], None]] = None,
        on_unregister: Optional[Callable[[Registration], None]] = None,
        accept: Optional[Callable[[GrrpMessage, Optional[str]], bool]] = None,
        metrics: Optional[MetricsRegistry] = None,
        suffix: DN | str = "",
    ):
        self.clock = clock
        self.grace = grace
        self.purge_interval = purge_interval
        self.on_register = on_register
        self.on_expire = on_expire
        self.on_unregister = on_unregister
        # Membership control (§2.3): administrators "will want to control
        # membership, defining a policy under which information providers
        # can contribute to a VO".
        self.accept = accept
        self.suffix = DN.of(suffix)
        # Held across every mutation and its hooks; re-entrant, so a hook
        # (or a caller ordering its own side effects) may use the table.
        self.lock = threading.RLock()
        self._gen = Generation({}, {}, float("inf"), 0)
        self._next_seq = 0
        self._timer: Optional[TimerHandle] = None
        # Accept/reject/expire rates live on the metrics registry so a
        # cn=monitor subtree can publish soft-state churn.
        self.metrics = metrics or MetricsRegistry()
        self._accepted = self.metrics.counter("grrp.accepted")
        self._rejected = self.metrics.counter("grrp.rejected")
        self._expired_c = self.metrics.counter("grrp.expired")
        self._refreshed = self.metrics.counter("grrp.refreshed")
        self._unregistered = self.metrics.counter("grrp.unregistered")
        self._rebirths = self.metrics.counter("grrp.rebirths")
        self.metrics.gauge_fn("grrp.registrations.active", self.__len__)

    # -- intake ----------------------------------------------------------------

    def apply(
        self, message: GrrpMessage, source_identity: Optional[str] = None
    ) -> Applied:
        """Apply one GRRP message; the result is true if it changed state."""
        with self.lock:
            now = self.clock.now()
            existing = self._gen.by_url.get(message.service_url)
            died = existing is not None and now > existing.deadline
            if died:
                # Expired but unswept: report the death first, so a REGISTER
                # below is a rebirth (on_expire, on_register), not a refresh.
                self._remove([existing], self._expired_c, self.on_expire)
                existing = None
            if self.accept is not None and not self.accept(message, source_identity):
                self._rejected.inc()
                return Applied(Applied.REFUSED, existing)
            if message.notification_type == NotificationType.UNREGISTER:
                if existing is None:
                    return Applied(Applied.IGNORED)
                self._remove([existing], self._unregistered, self.on_unregister)
                return Applied(Applied.UNREGISTERED, existing)
            if message.notification_type == NotificationType.INVITE:
                # Invitations are not state; the caller routes them to the
                # invited party (see Registrant.handle_invitation).
                return Applied(Applied.IGNORED)
            if message.valid_until < now:
                # Arrived already dead (clock skew or extreme delay).
                self._rejected.inc()
                return Applied(Applied.REFUSED, existing)
            self._accepted.inc()
            record = self._record(message, source_identity, now, existing)
            gen, url = self._gen, record.service_url
            by_url = {**gen.by_url, url: record}  # a refresh keeps its place
            by_dn = gen.by_dn if existing else {**gen.by_dn, record.entry.dn: url}
            moved = existing is None or existing.suffix_text != record.suffix_text
            self._gen = Generation(
                by_url, by_dn, min(gen.deadline, record.deadline), gen.membership + moved
            )
            if existing is not None:
                self._refreshed.inc()
                return Applied(Applied.REFRESHED, record)
            if died:
                self._rebirths.inc()
            if self.on_register:
                self.on_register(record)
            return Applied(Applied.REBIRTH if died else Applied.NEW, record)

    def _record(
        self,
        message: GrrpMessage,
        identity: Optional[str],
        now: float,
        previous: Optional[Registration],
    ) -> Registration:
        """Everything readers need of *message*, built once."""
        suffix_text = message.metadata.get("suffix", "")
        if previous is not None and previous.suffix_text == suffix_text:
            suffix_dn, referral = previous.suffix_dn, previous.referral
        else:
            try:
                suffix_dn = DN.parse(suffix_text)
            except DNError:
                suffix_dn = None  # never a routing target
            referral = _referral(message.service_url, suffix_text)
        if previous is None:
            self._next_seq += 1
        else:
            identity = identity or previous.source_identity
        entry = message.to_entry(self.suffix)
        entry.put("regsource", identity or "unknown")
        entry._wire = WireCache()
        return Registration(
            message=message,
            first_seen=now if previous is None else previous.first_seen,
            last_seen=now,
            refresh_count=0 if previous is None else previous.refresh_count + 1,
            source_identity=identity,
            seq=self._next_seq if previous is None else previous.seq,
            deadline=message.valid_until + self.grace * message.ttl,
            suffix_dn=suffix_dn,
            entry=entry,
            referral=referral,
        )

    def _remove(self, dead: List[Registration], counter, hook) -> None:
        """Publish the table without *dead*, its deadline exact; report each."""
        gen = self._gen
        by_url = dict(gen.by_url)
        for record in dead:
            del by_url[record.service_url]
        by_dn = {record.entry.dn: url for url, record in by_url.items()}
        deadline = min((r.deadline for r in by_url.values()), default=float("inf"))
        self._gen = Generation(by_url, by_dn, deadline, gen.membership + bool(dead))
        for record in dead:
            counter.inc()
            if hook:
                hook(record)

    # -- queries ---------------------------------------------------------------

    def generation(self) -> Generation:
        """The current generation, never holding an expired record."""
        gen = self._gen
        if self.clock.now() > gen.deadline:
            self.sweep()
            gen = self._gen
        return gen

    def active(self) -> List[Registration]:
        """Live registrations in membership order."""
        return list(self.generation().by_url.values())

    def active_urls(self) -> List[str]:
        return list(self.generation().by_url)

    def lookup(self, service_url: str) -> Optional[Registration]:
        return self.generation().by_url.get(service_url)

    def is_registered(self, service_url: str) -> bool:
        return service_url in self.generation().by_url

    def __len__(self) -> int:
        return len(self.generation().by_url)

    # -- expiry ----------------------------------------------------------------

    def sweep(self) -> int:
        """Purge expired records; returns how many were dropped."""
        with self.lock:
            gen = self._gen
            now = self.clock.now()
            dead = [r for r in gen.by_url.values() if now > r.deadline]
            if dead or now > gen.deadline:  # nobody dead: the bound had gone stale
                self._remove(dead, self._expired_c, self.on_expire)
            return len(dead)

    def start(self) -> None:
        """Begin periodic sweeping (for timely failure awareness)."""
        if self.purge_interval is None:
            raise ValueError("no purge_interval configured")
        self._schedule()

    def _schedule(self) -> None:
        def tick() -> None:
            self.sweep()
            self._schedule()

        self._timer = self.clock.call_later(self.purge_interval, tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
