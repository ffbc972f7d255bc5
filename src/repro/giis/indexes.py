"""Basic pluggable GIIS indexes (§3, §10.4).

* :class:`NameIndex` — backs the name-serving directory: "simply records
  the name of each entity for which a GRRP registration was recorded,
  and supports only name-resolution queries."
* :class:`PullIndex` — base class for indexes that follow up "each
  registration of a new entity with a GRIP query to determine its
  properties" (§3's relational directory pattern); subclasses store the
  pulled entries however they like.
* :class:`EntryCacheIndex` — a PullIndex that materializes pulled
  provider snapshots into an indexed :class:`~repro.ldap.dit.DIT`, so
  cached GIIS-side lookups go through the same posting lists and query
  planner as every other search.

All of these sit on the one shared index engine
(:class:`~repro.ldap.index.AttributeIndex`): the DIT keys it by entry
DN; registrant selection (``core.RegistrationSuffixIndex``) and the
name index key it by service URL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..grip.registry import Registration
from ..ldap.attributes import CASE_EXACT
from ..ldap.client import SearchResult
from ..ldap.dit import DIT, DitError, Scope
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filter import Filter, parse as parse_filter
from ..ldap.index import AttributeIndex
from ..ldap.protocol import SearchRequest
from .core import GiisBackend, GiisIndex

__all__ = ["NameIndex", "PullIndex", "EntryCacheIndex"]


class NameIndex(GiisIndex):
    """Entity name -> service URL, maintained purely from registrations.

    Cheap to maintain (no GRIP traffic) but answers only name-resolution
    queries — the low end of the §3 "power of an index vs. cost of
    maintaining it" tradeoff.  Postings live in the shared
    :class:`AttributeIndex` engine keyed by service URL; when several
    URLs register the same name the most recent registration wins,
    matching the historical dict-overwrite semantics.
    """

    NAME_ATTR = "regname"

    def __init__(self):
        self._index = AttributeIndex(
            (self.NAME_ATTR,), rules={self.NAME_ATTR: CASE_EXACT}
        )
        self._raw: Dict[str, str] = {}  # url -> name as registered
        self._order: Dict[str, int] = {}  # url -> registration recency
        self._tick = 0

    @staticmethod
    def _name_of(registration: Registration) -> str:
        return registration.message.metadata.get("name", registration.service_url)

    def on_register(self, registration: Registration) -> None:
        url = registration.service_url
        name = self._name_of(registration)
        self._index.discard(url)
        self._index.add(url, lambda a: (name,) if a == self.NAME_ATTR else ())
        self._raw[url] = name
        self._tick += 1
        self._order[url] = self._tick

    def on_refresh(self, registration: Registration) -> None:
        # A refresh may rename; recency is intentionally not bumped.
        url = registration.service_url
        if url in self._raw:
            tick = self._order[url]
            self.on_register(registration)
            self._tick -= 1
            self._order[url] = tick

    def on_expire(self, registration: Registration) -> None:
        url = registration.service_url
        self._index.discard(url)
        self._raw.pop(url, None)
        self._order.pop(url, None)

    def resolve(self, name: str) -> Optional[str]:
        urls = self._index.equality(self.NAME_ATTR, name)
        if not urls:
            return None
        return max(urls, key=lambda u: self._order.get(u, 0))

    def names(self) -> List[str]:
        return sorted(set(self._raw.values()))

    def __len__(self) -> int:
        return len(set(self._raw.values()))


class PullIndex(GiisIndex):
    """Follows registrations with GRIP pulls of the provider's subtree.

    Subclasses override :meth:`store` / :meth:`evict`.  Pulls are
    asynchronous; on the simulator they complete as virtual time
    advances.  A *refresh_interval* re-pulls periodically — one of the
    "specialized update strategies" of §5.2.
    """

    def __init__(
        self,
        filter_text: str = "(objectclass=*)",
        refresh_interval: Optional[float] = None,
    ):
        self.filter_text = filter_text
        self.refresh_interval = refresh_interval
        self.giis: Optional[GiisBackend] = None
        self.pulls = 0
        self.pull_failures = 0
        self._timers: Dict[str, object] = {}

    def attach(self, giis: GiisBackend) -> None:
        self.giis = giis

    # -- subclass API ------------------------------------------------------

    def store(self, registration: Registration, entries: List[Entry]) -> None:
        """Absorb a fresh snapshot of one provider's data."""
        raise NotImplementedError

    def evict(self, registration: Registration) -> None:
        """Drop everything learned from one provider."""
        raise NotImplementedError

    # -- registration callbacks ------------------------------------------------

    def on_register(self, registration: Registration) -> None:
        self.pull(registration)
        self._schedule_refresh(registration)

    def on_expire(self, registration: Registration) -> None:
        self._cancel_refresh(registration)
        self.evict(registration)

    # -- pulling ------------------------------------------------------------------

    def pull(self, registration: Registration) -> None:
        assert self.giis is not None, "index not attached"
        client = self.giis._client_for(registration.service_url)
        if client is None:
            self.pull_failures += 1
            return
        suffix = registration.message.metadata.get("suffix", "")
        req = SearchRequest(
            base=suffix,
            scope=Scope.SUBTREE,
            filter=parse_filter(self.filter_text),
        )
        self.pulls += 1

        def on_done(result: SearchResult, _error=None) -> None:
            if not result.result.ok:
                self.pull_failures += 1
                return
            self.store(registration, result.entries)

        try:
            client.search_async(req, on_done)
        except Exception:  # noqa: BLE001 - connection died: count and move on
            self.pull_failures += 1

    def _schedule_refresh(self, registration: Registration) -> None:
        if self.refresh_interval is None or self.giis is None:
            return
        url = registration.service_url

        def tick() -> None:
            if self.giis is None or not self.giis.registry.is_registered(url):
                self._timers.pop(url, None)
                return
            self.pull(registration)
            self._timers[url] = self.giis.clock.call_later(
                self.refresh_interval, tick
            )

        self._timers[url] = self.giis.clock.call_later(self.refresh_interval, tick)

    def _cancel_refresh(self, registration: Registration) -> None:
        timer = self._timers.pop(registration.service_url, None)
        if timer is not None:
            timer.cancel()


class EntryCacheIndex(PullIndex):
    """Pulled provider snapshots materialized into an indexed DIT.

    The §3 relational directory stores pulls as tables; this index keeps
    them in LDAP form instead, inside a :class:`~repro.ldap.dit.DIT`
    whose secondary indexes (and the :mod:`~repro.ldap.plan` planner)
    answer equality/presence lookups without scanning every cached
    entry.  Ownership is tracked per DN so re-pulls and expiry evict
    exactly one provider's contribution; when two providers publish the
    same DN the most recent pull wins, and eviction leaves foreign
    entries alone.

    ``index_attrs`` defaults to the owning GIIS's ``index_attrs`` at
    attach time, so one configuration knob drives both the GIIS and its
    caches.
    """

    def __init__(
        self,
        filter_text: str = "(objectclass=*)",
        refresh_interval: Optional[float] = None,
        index_attrs: Optional[Sequence[str]] = None,
    ):
        super().__init__(filter_text, refresh_interval)
        self._index_attrs = index_attrs
        self.dit = DIT(index_attrs=index_attrs or ())
        self._owned: Dict[str, List[DN]] = {}  # url -> DNs stored from it
        self._owner: Dict[DN, str] = {}  # dn -> owning url

    def attach(self, giis: GiisBackend) -> None:
        super().attach(giis)
        if self._index_attrs is None and getattr(giis, "index_attrs", ()):
            self.dit.set_index_attrs(giis.index_attrs)

    # -- PullIndex contract --------------------------------------------------

    def store(self, registration: Registration, entries: List[Entry]) -> None:
        self.evict(registration)
        url = registration.service_url
        owned: List[DN] = []
        for entry in sorted(entries, key=lambda e: len(e.dn)):
            self.dit.add(entry, replace=True)
            self._owner[entry.dn] = url
            owned.append(entry.dn)
        self._owned[url] = owned

    def evict(self, registration: Registration) -> None:
        url = registration.service_url
        # Deepest-first so children go before their parents.
        for dn in sorted(self._owned.pop(url, ()), key=len, reverse=True):
            if self._owner.get(dn) != url:
                continue  # overwritten by a later pull from another provider
            del self._owner[dn]
            try:
                self.dit.delete(dn)
            except DitError:
                # Another provider still holds entries beneath this DN;
                # leave the (stale) node rather than orphan its subtree.
                pass

    # -- queries -------------------------------------------------------------

    def search(
        self,
        base: DN | str,
        scope: Scope = Scope.SUBTREE,
        filt: Optional[Filter | str] = None,
        attrs: Optional[Sequence[str]] = None,
    ) -> List[Entry]:
        """Planner-driven search over the cached entries."""
        if isinstance(filt, str):
            filt = parse_filter(filt)
        try:
            return self.dit.search(base, scope, filt, attrs=attrs)
        except DitError:
            return []

    def __len__(self) -> int:
        return len(self.dit)
