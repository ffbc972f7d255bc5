"""The soft-state registration table (receiver side of GRRP).

"State established at a remote location by a notification ... may
eventually be discarded unless refreshed by a stream of subsequent
notifications" (§4.3).  The registry holds one record per service URL,
refreshed by register messages, dropped by unregister messages or by
expiry.  "After some time without a refresh, the directory can assume
the provider has become unavailable, and purge knowledge of it."

Expiry combines the message's own validity interval with the registry's
*grace factor*: a record is purged once ``now`` exceeds
``valid_until + grace * ttl``.  Sweeping is both lazy (every read checks
expiry) and, when :meth:`start` is called, periodic — the timer path is
what gives observers "timely awareness of when failures have occurred"
(§2.2) via the ``on_expire`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..ldap.dn import DN
from ..net.clock import Clock, TimerHandle
from ..obs.metrics import MetricsRegistry
from .messages import GrrpMessage, NotificationType

__all__ = ["Registration", "SoftStateRegistry"]


@dataclass
class Registration:
    """One live soft-state record."""

    message: GrrpMessage
    first_seen: float
    last_seen: float
    refresh_count: int = 0
    source_identity: Optional[str] = None

    def __post_init__(self):
        # Parsed-DN cache for metadata['suffix'], keyed by message
        # identity so a refresh that swaps the message re-parses once.
        self._suffix_for: Optional[GrrpMessage] = None
        self._suffix_dn: Optional[DN] = None

    @property
    def service_url(self) -> str:
        return self.message.service_url

    @property
    def suffix_dn(self) -> DN:
        """The advertised namespace as a DN, parsed once per intake.

        GIIS query routing compares this against every query's base; a
        VO with hundreds of members cannot afford re-parsing the suffix
        string per registration per query.
        """
        message = self.message
        if self._suffix_for is not message:
            self._suffix_dn = DN.parse(message.metadata.get("suffix", ""))
            self._suffix_for = message
        return self._suffix_dn

    def _prime_suffix(self) -> None:
        """Parse eagerly at intake; malformed suffixes surface at query time."""
        try:
            self.suffix_dn
        except Exception:  # noqa: BLE001 - keep intake resilient
            self._suffix_for = None

    def expires_at(self, grace: float) -> float:
        return self.message.valid_until + grace * self.message.ttl


class SoftStateRegistry:
    """Receiver-side GRRP state, usable standalone or inside a GIIS."""

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
        self._records: Dict[str, Registration] = {}
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
        self.metrics.gauge_fn("grrp.registrations.active", lambda: len(self._live()))

    def _live(self) -> List[Registration]:
        """Unexpired records without the sweeping side effect."""
        now = self.clock.now()
        return [r for r in self._records.values() if not self._expired(r, now)]

    # -- intake ----------------------------------------------------------------

    def apply(
        self, message: GrrpMessage, source_identity: Optional[str] = None
    ) -> bool:
        """Apply one GRRP message; returns True if it changed state."""
        now = self.clock.now()
        if self.accept is not None and not self.accept(message, source_identity):
            self._rejected.inc()
            return False
        if message.notification_type == NotificationType.UNREGISTER:
            record = self._records.pop(message.service_url, None)
            if record is not None:
                self._unregistered.inc()
                if self.on_unregister:
                    self.on_unregister(record)
            return record is not None
        if message.notification_type == NotificationType.INVITE:
            # Invitations are not state; the caller routes them to the
            # invited party (see Registrant.handle_invitation).
            return False
        if message.valid_until < now:
            # Arrived already dead (clock skew or extreme delay).
            self._rejected.inc()
            return False
        self._accepted.inc()
        existing = self._records.get(message.service_url)
        if existing is not None and self._expired(existing, now):
            # Death-and-rebirth: the old record already expired but the
            # sweeper has not run yet.  Treating this REGISTER as an
            # in-place refresh would hide the transition from observers
            # — on_expire/on_register must both fire so GIIS indexes and
            # subscriptions see the provider die and come back.
            self._drop_expired(message.service_url, existing)
            self._rebirths.inc()
            existing = None
        if existing is None:
            record = Registration(
                message=message,
                first_seen=now,
                last_seen=now,
                source_identity=source_identity,
            )
            record._prime_suffix()
            self._records[message.service_url] = record
            if self.on_register:
                self.on_register(record)
        else:
            existing.message = message
            existing.last_seen = now
            existing.refresh_count += 1
            existing.source_identity = source_identity or existing.source_identity
            existing._prime_suffix()
            self._refreshed.inc()
        return True

    # -- queries ---------------------------------------------------------------

    def _expired(self, record: Registration, now: float) -> bool:
        return now > record.expires_at(self.grace)

    def active(self) -> List[Registration]:
        """Live registrations, sweeping expired ones as a side effect."""
        self.sweep()
        return list(self._records.values())

    def active_urls(self) -> List[str]:
        return [r.service_url for r in self.active()]

    def lookup(self, service_url: str) -> Optional[Registration]:
        record = self._records.get(service_url)
        if record is None:
            return None
        if self._expired(record, self.clock.now()):
            self._drop_expired(service_url, record)
            return None
        return record

    def is_registered(self, service_url: str) -> bool:
        return self.lookup(service_url) is not None

    def __len__(self) -> int:
        self.sweep()
        return len(self._records)

    # -- expiry ----------------------------------------------------------------

    def sweep(self) -> int:
        """Purge expired records; returns how many were dropped."""
        now = self.clock.now()
        dead = [url for url, r in self._records.items() if self._expired(r, now)]
        for url in dead:
            self._drop_expired(url, self._records[url])
        return len(dead)

    def _drop_expired(self, url: str, record: Registration) -> None:
        self._records.pop(url, None)
        self._expired_c.inc()
        if self.on_expire:
            self.on_expire(record)

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
