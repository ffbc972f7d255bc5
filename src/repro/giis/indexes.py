"""Basic pluggable GIIS indexes (§3, §10.4).

* :class:`NameIndex` — backs the name-serving directory: "simply records
  the name of each entity for which a GRRP registration was recorded,
  and supports only name-resolution queries."
* :class:`PullIndex` — base class for indexes that follow up "each
  registration of a new entity with a GRIP query to determine its
  properties" (§3's relational directory pattern).  It owns the pulled
  entries; a subclass only says how to shape them for its queries.

The name index sits on the shared index engine
(:class:`~repro.ldap.index.AttributeIndex`) keyed by service URL.
Registrant selection is not a plugged index: the GIIS routes from a
table built from the registry's generation.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Tuple

from ..grip.registry import Registration
from ..ldap.attributes import CASE_EXACT
from ..ldap.client import SearchResult
from ..ldap.dit import Scope
from ..ldap.entry import Entry
from ..ldap.filter import parse as parse_filter
from ..ldap.index import AttributeIndex
from ..ldap.protocol import SearchRequest
from .core import GiisBackend, GiisIndex

__all__ = ["NameIndex", "PullIndex"]


class NameIndex(GiisIndex):
    """Entity name -> service URL, maintained purely from registrations.

    Cheap to maintain (no GRIP traffic) but answers only name-resolution
    queries — the low end of the §3 "power of an index vs. cost of
    maintaining it" tradeoff.  Postings live in the shared
    :class:`AttributeIndex` engine keyed by service URL; when several
    URLs register the same name the most recent registration
    (``Registration.seq``: kept across refreshes, new on rebirth) wins.
    """

    NAME_ATTR = "regname"

    def __init__(self):
        self._index = AttributeIndex(
            (self.NAME_ATTR,), rules={self.NAME_ATTR: CASE_EXACT}
        )
        self._known: Dict[str, Registration] = {}  # url -> latest record

    @staticmethod
    def _name_of(registration: Registration) -> str:
        return registration.message.metadata.get("name", registration.service_url)

    def on_register(self, registration: Registration) -> None:
        url = registration.service_url
        name = self._name_of(registration)
        self._index.discard(url)
        self._index.add(url, lambda a: (name,) if a == self.NAME_ATTR else ())
        self._known[url] = registration

    def on_refresh(self, registration: Registration) -> None:
        # A refresh may rename; it carries the seq it registered with.
        if registration.service_url in self._known:
            self.on_register(registration)

    def on_expire(self, registration: Registration) -> None:
        url = registration.service_url
        self._index.discard(url)
        self._known.pop(url, None)

    def resolve(self, name: str) -> Optional[str]:
        urls = self._index.equality(self.NAME_ATTR, name)
        if not urls:
            return None
        return max(urls, key=lambda u: self._known[u].seq)

    def _names(self) -> set:
        return {self._name_of(r) for r in self._known.values()}

    def names(self) -> List[str]:
        return sorted(self._names())

    def __len__(self) -> int:
        return len(self._names())


class PullIndex(GiisIndex):
    """Follows registrations with GRIP pulls of the provider's subtree.

    The one pulled store: service URL -> the entries of that provider's
    latest successful pull, most recently pulled provider last.  An
    answer is kept only while the registration it was asked for is the
    live one, and expiry drops the provider, so the store never knows a
    provider the registry has purged (§4.3).

    A directory subclasses this with :meth:`derive` — the shape its
    queries want, built from the whole store — and reads it through
    :meth:`view`, which rebuilds only after the store changed.

    Pulls are asynchronous; on the simulator they complete as virtual
    time advances.  A *refresh_interval* re-pulls periodically — one of
    the "specialized update strategies" of §5.2.
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
        self._asked: Dict[str, str] = {}  # url -> namespace its latest pull named
        # Written under the registry lock (answers check liveness there,
        # membership hooks fire there) and then this one; view() takes
        # only this one.
        self._lock = threading.Lock()
        self._pulled: Dict[str, Tuple[Entry, ...]] = {}
        self._changes = 0
        self._derived: Tuple[int, object] = (-1, None)  # (_changes then, view)

    def attach(self, giis: GiisBackend) -> None:
        self.giis = giis

    # -- subclass API ------------------------------------------------------

    def derive(self, pulled: Mapping[str, Tuple[Entry, ...]]) -> object:
        """Shape the pulled store for this directory's queries.  Called
        with the store locked; must not keep *pulled* itself."""
        raise NotImplementedError

    def view(self):
        """What :meth:`derive` makes of the store as it stands now."""
        with self._lock:
            if self._derived[0] != self._changes:
                self._derived = (self._changes, self.derive(self._pulled))
            return self._derived[1]

    # -- registration callbacks ------------------------------------------------

    def on_register(self, registration: Registration) -> None:
        self.pull(registration)
        self._schedule_refresh(registration.service_url)

    def on_refresh(self, registration: Registration) -> None:
        # A refresh may legitimately advertise a new suffix (§5.2): what
        # was pulled under the old one no longer describes the provider.
        asked = self._asked.get(registration.service_url)
        if asked is not None and asked != registration.suffix_text:
            self.pull(registration)

    def on_expire(self, registration: Registration) -> None:
        url = registration.service_url
        timer = self._timers.pop(url, None)
        if timer is not None:
            timer.cancel()
        self._asked.pop(url, None)
        with self._lock:
            if self._pulled.pop(url, None) is not None:
                self._changes += 1

    # -- pulling ------------------------------------------------------------------

    def pull(self, registration: Registration) -> None:
        assert self.giis is not None, "index not attached"
        registry = self.giis.registry
        url = registration.service_url
        seq, suffix = registration.seq, registration.suffix_text
        self._asked[url] = suffix
        client = self.giis._client_for(url)
        if client is None:
            self.pull_failures += 1
            return
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
            with registry.lock:
                live = registry.lookup(url)
                if live is None or live.seq != seq or live.suffix_text != suffix:
                    # Asked of a provider that has since left, or died
                    # and come back: no later event would evict it.  Or
                    # of a namespace it no longer advertises.
                    self.pull_failures += 1
                    return
                with self._lock:
                    self._pulled.pop(url, None)  # a re-pull moves it last
                    self._pulled[url] = tuple(result.entries)
                    self._changes += 1

        try:
            client.search_async(req, on_done)
        except Exception:  # noqa: BLE001 - connection died: count and move on
            self.pull_failures += 1

    def _schedule_refresh(self, url: str) -> None:
        if self.refresh_interval is None or self.giis is None:
            return
        giis = self.giis

        def tick() -> None:
            with giis.registry.lock:
                current = giis.registry.lookup(url)
                if current is None:
                    self._timers.pop(url, None)
                    return
                self.pull(current)
                self._timers[url] = giis.clock.call_later(
                    self.refresh_interval, tick
                )

        self._timers[url] = giis.clock.call_later(self.refresh_interval, tick)
