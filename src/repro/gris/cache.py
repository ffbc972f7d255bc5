"""Per-provider TTL caching (paper §10.3), concurrency-safe.

"To control the intrusiveness of GRIS operation, improve response time,
and maximize deployment flexibility, each provider's results may be
cached for a configurable period of time to reduce the number of
provider invocations; this cache time-to-live (TTL) is specified
per-provider."

The MDS2 performance studies (Zhang & Schopf; Zhang, Freschl & Schopf)
show GRIS throughput collapsing under concurrent users exactly when the
cache stops absorbing provider invocations.  Since searches now run on
a multi-worker executor, this cache is a real concurrency structure:

* **Thread safety** — one lock guards the slot table, held only to read
  or swap a slot (a hit is O(1)), never while a provider runs.
* **Immutable snapshots** — a refresh stamps a copy of the provider's
  entries once (both stamps are constants of the snapshot), publishes
  it by one reference swap, and every reader until the next refresh is
  handed that same tuple: read-only, copy before changing an entry.
* **Single-flight coalescing** — N concurrent misses for one provider
  trigger exactly one ``provide()``; the other N-1 callers block on the
  in-flight refresh and share its result (``gris.cache.coalesced``).
* **Stale-while-revalidate** — with a serve window configured, a snapshot
  that outlived its TTL but not ``ttl + stale_while_revalidate`` is
  served immediately while one background refresh runs on the provider
  pool (``gris.cache.revalidations``).  Without a refresh runner (the
  inline/simulator configuration) the window degrades to a plain
  blocking refresh, keeping discrete-event runs deterministic.
* **Negative caching with exponential backoff** — a failing provider is
  not re-invoked until ``backoff_base * 2^(failures-1)`` (capped at
  ``backoff_max``) has elapsed; meanwhile callers get the stale snapshot
  if one exists, or an immediate :class:`ProviderError`
  (``gris.provider.backoff_skips``).  A dead script stops eating a pool
  slot on every query.

Failure still serves the stale snapshot when available (flagged) —
unavailable sources must "not interfere with other functions" (§2.2).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..ldap.entry import Entry
from ..net.clock import Clock
from ..obs.metrics import MetricsRegistry
from .provider import InformationProvider, ProviderError

__all__ = ["ProviderCache"]

# Submits a zero-argument refresh task for background execution; returns
# False when the pool refuses (saturated), in which case the cache
# refreshes inline instead.
RefreshRunner = Callable[[Callable[[], None]], bool]


class _CacheSlot(NamedTuple):  # one immutable snapshot; what get() returns
    entries: Tuple[Entry, ...]  # stamped, shared by every reader
    produced_at: float


class _Flight:
    """One in-progress refresh; coalesced waiters block on ``done``."""

    __slots__ = ("done", "slot", "error")

    def __init__(self):
        self.done = threading.Event()
        self.slot: Optional[_CacheSlot] = None
        self.error: Optional[ProviderError] = None


class _ProviderState:
    """Everything the cache tracks about one provider."""

    __slots__ = ("slot", "flight", "failures", "retry_at")

    def __init__(self):
        self.slot: Optional[_CacheSlot] = None
        self.flight: Optional[_Flight] = None
        self.failures = 0
        self.retry_at = 0.0


class ProviderCache:
    """Coalescing, stale-while-revalidate TTL cache over provider snapshots."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        stale_while_revalidate: float = 0.0,
        backoff_base: float = 1.0,
        backoff_max: float = 60.0,
        refresh_runner: Optional[RefreshRunner] = None,
    ):
        self.metrics = metrics or MetricsRegistry()
        # The counters cn=monitor publishes; tests read them there too.
        counter = self.metrics.counter
        self._hits = counter("gris.cache.hits")
        self._misses = counter("gris.cache.misses")
        self._failures = counter("gris.cache.failures")
        self._stale_served = counter("gris.cache.stale_served")
        self._coalesced = counter("gris.cache.coalesced")
        self._revalidations = counter("gris.cache.revalidations")
        self._backoff_skips = counter("gris.provider.backoff_skips")
        self.clock = clock
        self.stale_while_revalidate = stale_while_revalidate
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._runner = refresh_runner
        self._lock = threading.Lock()
        self._states: Dict[str, _ProviderState] = {}

    def get(
        self,
        provider: InformationProvider,
        now: float,
        serve_stale_on_failure: bool = True,
    ) -> Tuple[Tuple[Entry, ...], float]:
        """Return (entries, produced_at), refreshing when the TTL lapsed.

        Entries carry the production-time stamps so consumers can
        "explicitly model the currency ... of their information" (§2.1).
        They are the snapshot itself, not copies: the same read-only
        tuple goes to every caller until the next refresh replaces it.
        Concurrent misses coalesce onto one ``provide()``; a provider in
        failure backoff is not invoked at all.
        """
        name = provider.name
        ttl = provider.cache_ttl
        leader = False
        background = False
        with self._lock:
            state = self._states.setdefault(name, _ProviderState())
            slot = state.slot
            if slot is not None and ttl > 0 and now - slot.produced_at <= ttl:
                self._hits.inc()
                return slot
            stale_ok = (
                slot is not None
                and ttl > 0
                and self.stale_while_revalidate > 0
                and now - slot.produced_at <= ttl + self.stale_while_revalidate
            )
            if state.flight is not None:
                flight = state.flight
                if stale_ok:
                    # A refresh is already under way and the snapshot is
                    # within the serve window: answer from it now.
                    self._hits.inc()
                    return slot
                self._misses.inc()
                self._coalesced.inc()
            elif now < state.retry_at:
                # Negative cache: the provider failed recently; don't
                # burn a provider invocation (or a pool slot) on it.
                self._misses.inc()
                self._backoff_skips.inc()
                if slot is not None and serve_stale_on_failure:
                    self._stale_served.inc()
                    return slot
                raise ProviderError(
                    f"provider {name!r} backing off after "
                    f"{state.failures} consecutive failures"
                )
            else:
                flight = state.flight = _Flight()
                leader = True
                if stale_ok and self._runner is not None:
                    self._hits.inc()
                    self._revalidations.inc()
                    background = True
                else:
                    self._misses.inc()

        if leader:
            if background:
                # Stale-while-revalidate: serve the stale snapshot right
                # away; the refresh happens off this request's path.
                if not self._runner(lambda: self._refresh(provider, flight, now)):
                    self._refresh(provider, flight, now)  # pool saturated
                return slot
            self._refresh(provider, flight, now)
        else:
            flight.done.wait()

        if flight.error is not None:
            with self._lock:
                slot = self._states[name].slot
            if slot is not None and serve_stale_on_failure:
                self._stale_served.inc()
                return slot
            raise flight.error
        return flight.slot

    def ready(self, provider: InformationProvider, now: float) -> bool:
        """True when :meth:`get` would answer from the held snapshot at once.

        That is, without calling ``provide()`` or waiting on a flight:
        the snapshot is within its TTL, or within the stale-while-
        revalidate window and a refresh runner takes the refresh off the
        caller's thread.  Counts nothing; :meth:`get` counts the hit.
        """
        ttl = provider.cache_ttl
        with self._lock:
            state = self._states.get(provider.name)
            slot = state.slot if state is not None else None
        if slot is None or ttl <= 0:
            return False
        age = now - slot.produced_at
        return age <= ttl or (
            self._runner is not None and age <= ttl + self.stale_while_revalidate
        )

    def _refresh(
        self, provider: InformationProvider, flight: _Flight, now: float
    ) -> None:
        """Invoke ``provide()`` once and resolve *flight* (the leader path)."""
        name = provider.name
        try:
            entries = provider.provide()
            produced_at = self._now(now)
            ttl = provider.cache_ttl if provider.cache_ttl > 0 else None
            # Both stamps are constants of the snapshot: stamp once here,
            # not once per reader.
            slot = _CacheSlot(
                tuple(e.copy().stamp(now=produced_at, ttl=ttl) for e in entries),
                produced_at,
            )
        except Exception as exc:  # noqa: BLE001 - must resolve the flight
            error = (
                exc
                if isinstance(exc, ProviderError)
                else ProviderError(f"provider {name!r} failed: {exc}")
            )
            failed_at = self._now(now)
            self._failures.inc()
            with self._lock:
                state = self._states.setdefault(name, _ProviderState())
                state.failures += 1
                delay = min(
                    self.backoff_max,
                    self.backoff_base * (2 ** (state.failures - 1)),
                )
                state.retry_at = failed_at + delay
                state.flight = None
            flight.error = error
            flight.done.set()
            return
        with self._lock:
            state = self._states.setdefault(name, _ProviderState())
            state.slot = slot
            state.failures = 0
            state.retry_at = 0.0
            state.flight = None
        flight.slot = slot
        flight.done.set()

    def _now(self, fallback: float) -> float:
        return self.clock.now() if self.clock is not None else fallback

    def seed(
        self, provider_name: str, entries: Tuple[Entry, ...], produced_at: float
    ) -> None:
        """Install a snapshot without invoking the provider (warm restart).

        Used by durable GRIS recovery: entries replayed from storage
        stand in for the pre-crash ``provide()`` result.  They already
        carry the stamps of the original production time, and
        *produced_at* repeats it, so TTL expiry still measures real
        information age, not process uptime.  *entries* is served as
        given (the same tuple object comes back from :meth:`get`).
        Never overwrites a slot a live refresh already produced.
        """
        with self._lock:
            state = self._states.setdefault(provider_name, _ProviderState())
            if state.slot is None:
                state.slot = _CacheSlot(entries, produced_at)

    def invalidate(self, provider_name: str) -> None:
        """Drop the snapshot and failure history; keep any in-flight refresh."""
        with self._lock:
            state = self._states.get(provider_name)
            if state is not None:
                state.slot = None
                state.failures = 0
                state.retry_at = 0.0

    def clear(self) -> None:
        with self._lock:
            for state in self._states.values():
                state.slot = None
                state.failures = 0
                state.retry_at = 0.0

    def age(self, provider_name: str, now: float) -> Optional[float]:
        with self._lock:
            state = self._states.get(provider_name)
            slot = state.slot if state is not None else None
        return None if slot is None else now - slot.produced_at

    def in_backoff(self, provider_name: str, now: float) -> bool:
        """True while the negative cache is refusing to probe *provider_name*."""
        with self._lock:
            state = self._states.get(provider_name)
            return state is not None and now < state.retry_at
