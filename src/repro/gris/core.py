"""The GRIS backend: MDS-2's configurable information provider (§10.3).

"GRIS authenticates and parses each incoming GRIP request and then
dispatches those requests to one or more 'local' information providers,
depending [on] the type of information named in the request.  Results
are then merged back to the client.  To efficiently prune search
processing, a specific provider's results are only considered if the
provider's namespace intersects the query scope."

This backend plugs into the :class:`~repro.ldap.server.LdapServer`
front end (which owns authentication and authoritative result
filtering, §10.1/§10.3) and adds:

* namespace-pruned dispatch to registered providers: a probe the held
  snapshot answers is a read on the search thread, and only probes that
  may block (refreshes, per-request providers) go to the provider pool;
* per-provider TTL caching (:mod:`repro.gris.cache`);
* one shared, read-only *served form* per provider snapshot (rebased,
  keyed by DN, one encode-cache cell per entry), built once per
  refresh, with its own posting lists: an attribute's are built the
  first time a search plans over it (``index_attrs`` only builds them
  eagerly) and kept until the next refresh.  Each source plans its own
  candidates, so a search is O(providers) TTL checks plus matching
  what the postings leave, and ``(objectclass=*)`` stays a scan;
* optional durability: each served form is written to a storage engine,
  and a restarted GRIS serves it until its TTL lapses;
* robustness: a failing provider is skipped, not fatal (§2.2);
* polling subscriptions, so persistent search works over providers that
  only expose snapshots (MDS-2.1 lacked push; we implement it as the
  planned extension).
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..ldap.backend import (
    Backend,
    ChangeCallback,
    ChangeType,
    RequestContext,
    SearchOutcome,
    Subscription,
)
from ..ldap.attributes import normalize_attr_name
from ..ldap.dit import Scope, in_scope
from ..ldap.dn import DN, RDN
from ..ldap.entry import Entry, WireCache
from ..ldap.executor import RequestExecutor
from ..ldap.filter import Filter, compile_filter
from ..ldap.index import AttributeIndex
from ..ldap.plan import candidates_for
from ..ldap.protocol import LdapResult, ResultCode, SearchRequest
from ..ldap.storage import ChangeOp, StorageEngine
from ..net.clock import Clock, TimerHandle
from ..obs.metrics import MetricsRegistry
from .cache import ProviderCache
from .provider import FunctionProvider, InformationProvider, ProviderError

__all__ = ["GrisBackend"]

# Object class of the marker at the root of a durable snapshot branch.
_SNAPSHOT_CLASS = "grissnapshot"

# Currency stamps: constants of a snapshot, not part of an entry's payload.
_STAMPS = frozenset(("mds-timestamp", "mds-validto"))

# The candidates, in a source, of an attribute none of its entries holds.
_NONE: FrozenSet[DN] = frozenset()

# A source of fewer entries is matched whole and builds no postings.
# Against matching every entry, planning an equality or a two-clause
# conjunction over one source (postings built) cost 1.5-1.9x at one
# entry, 1.2-1.35x at 3 to 5, 1.1-1.2x at 6 to 10 (1 to 4 us a search)
# and broke even at 12 to 16 (CPython 3.11, one Xeon vCPU, in process).
# The floor keeps the one-entry provider snapshots of a per-host GRIS
# from planning; from 5 entries on, the loss is a few microseconds.
_PLAN_MIN_ENTRIES = 5

# Provider probes the fan-out pool queues beyond its busy workers.
PROVIDER_QUEUE_LIMIT = 64


def _branch(provider_name: str) -> DN:
    """The marker DN of a provider's durable branch, outside the suffix;
    its served entries are stored below it at their served DNs."""
    return DN((RDN.single("gris-view-provider", provider_name),))


class _Source:
    """One source's entries in served form: absolute DNs, keyed by DN.

    The first entry to name a DN wins, as in the cross-provider merge.
    *root* is the subtree the source serves (a provider's base); it is
    kept only when every entry lies in it, so a subtree search from at
    or above it needs no per-entry scope test.  Read-only once built and
    shared by every request; *origin* is the provider-cache tuple it was
    built from (another tuple = a refresh).

    A cached source of at least ``_PLAN_MIN_ENTRIES`` entries plans: the
    postings of an attribute its entries hold are built by :meth:`index`
    the first time a planned filter asks for it (the *eager* ones, the
    configured ``index_attrs``, here) and kept for the snapshot's life.
    An attribute no entry holds matches nothing and builds nothing, so
    the postings a snapshot keeps are bounded by its own attributes.
    Smaller sources and ``eager=None``, an answer a provider gave for
    one request, are matched linearly.
    """

    __slots__ = ("name", "origin", "produced_at", "root", "by_dn", "plannable", "_held",
                 "_indexes")

    def __init__(
        self, entries: Iterable[Entry], root: Optional[DN] = None, name=None, origin=None,
        produced_at=0.0, eager: Optional[Sequence[str]] = None,
    ):
        self.name = name
        self.origin = origin
        self.produced_at = produced_at
        self.by_dn: Dict[DN, Entry] = {}
        for entry in entries:
            self.by_dn.setdefault(entry.dn, entry)
        if root is not None and not all(dn.is_within(root) for dn in self.by_dn):
            root = None
        self.root = root
        self.plannable = eager is not None and len(self.by_dn) >= _PLAN_MIN_ENTRIES
        self._held: FrozenSet[str] = frozenset(
            normalize_attr_name(attr)
            for entry in self.by_dn.values() for attr in entry.attribute_names()
        ) if self.plannable else frozenset()
        self._indexes: Dict[str, AttributeIndex] = {}
        for attr in eager or ():
            self.index(attr)

    def index(self, attr: str) -> Optional[AttributeIndex]:
        """The postings of *attr* over this source, built on first use;
        None when no entry holds *attr* or the source does not plan.

        No lock: the entries never change, so two racing builders build
        equal postings and either one may be kept.
        """
        attr = normalize_attr_name(attr)
        index = self._indexes.get(attr)
        if index is None and attr in self._held:
            index = AttributeIndex((attr,))
            for dn, entry in self.by_dn.items():
                index.add(dn, entry.get, discardable=False)
            self._indexes[attr] = index
        return index

    # The two lookups repro.ldap.plan.candidates_for makes.

    def equality(self, attr: str, value: str) -> Set[DN]:
        index = self.index(attr)
        return _NONE if index is None else index.equality(attr, value)

    def presence(self, attr: str) -> Optional[Set[DN]]:
        if normalize_attr_name(attr) == "objectclass":
            return None  # every entry has one: (objectclass=*) selects all, so scan
        index = self.index(attr)
        return _NONE if index is None else index.presence(attr)


def _shared(entry: Entry, dn: DN) -> Entry:
    """A copy of *entry* at *dn* with a fresh encode-cache cell, to be shared read-only."""
    out = entry.with_dn(dn)
    out._wire = WireCache()
    return out


def _first(sources: Sequence[_Source], dn: DN) -> Optional[Entry]:
    """The entry the merge serves at *dn*: the first source naming it wins."""
    for source in sources:
        entry = source.by_dn.get(dn)
        if entry is not None:
            return entry
    return None


def _plan(filt: Optional[Filter], source: _Source) -> Optional[Set[DN]]:
    """The DNs of *source* that may match *filt*, or None to examine all:
    a per-request answer, a source under ``_PLAN_MIN_ENTRIES`` entries,
    or a filter the postings cannot narrow (a substring,
    ``(objectclass=*)``, ...).  Postings are built on first use.
    """
    return candidates_for(filt, source) if source.plannable else None


def _select(
    sources: Sequence[_Source], base: DN, scope: Scope, filt: Optional[Filter]
) -> Tuple[List[Entry], int, bool]:
    """The merged answer in DN order, the number of entries whose match
    ran, and whether postings narrowed any source.

    Each source plans its own candidates, and a match is dropped when
    an earlier source names its DN (the first source wins).
    """
    match = compile_filter(filt)
    if scope == Scope.BASE:
        entry = _first(sources, base)
        if entry is None:
            return [], 0, False
        return [entry] if match(entry) else [], 1, False
    found: List[Entry] = []
    examined = 0
    planned = False
    for rank, source in enumerate(sources):
        by_dn = source.by_dn
        candidates = _plan(filt, source)
        if candidates is None:
            entries = by_dn.values()
        else:
            planned = True
            entries = [by_dn[dn] for dn in candidates]
        root = source.root
        if scope != Scope.SUBTREE or root is None or not root.is_within(base):
            entries = [e for e in entries if in_scope(e.dn, base, scope)]
        examined += len(entries)
        matched = list(filter(match, entries))
        if rank and matched:
            earlier = [s.by_dn for s in sources[:rank]]
            matched = [e for e in matched if not any(e.dn in d for d in earlier)]
        found += matched
    found.sort(key=lambda e: e.dn.sort_key)
    return found, examined, planned


class GrisBackend(Backend):
    """A Grid Resource Information Service backend."""

    def __init__(
        self,
        suffix: DN | str,
        clock: Clock,
        poll_interval: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        provider_workers: int = 0,
        stale_while_revalidate: float = 0.0,
        index_attrs: Optional[Iterable[str]] = None,
        storage: Optional[StorageEngine] = None,
    ):
        self.suffix = DN.of(suffix)
        self.clock = clock
        self.poll_interval = poll_interval
        self.metrics = metrics or MetricsRegistry()
        # Bounded provider pool (§10.3 fan-out).  workers=0 keeps probes
        # inline on the calling thread, which the discrete-event
        # simulator needs for determinism; workers>0 makes a cold
        # collect cost max(provider latency) instead of the sum.
        self._pool = RequestExecutor(
            workers=provider_workers,
            queue_limit=PROVIDER_QUEUE_LIMIT,
            metrics=self.metrics,
            clock=clock,
            name="gris-provider",
            metric_prefix="gris.executor",
        )
        self.cache = ProviderCache(
            self.metrics,
            clock=clock,
            stale_while_revalidate=stale_while_revalidate,
            refresh_runner=None if self._pool.inline else self._pool.submit,
        )
        self._providers: Dict[str, InformationProvider] = {}
        self._bases: Dict[str, DN] = {}
        self._provider_seconds: Dict[str, object] = {}
        self._suffix_source: Optional[_Source] = None
        # Served form per cached provider (see _publish): read without
        # a lock, written under _publish_lock together with storage.
        self._served: Dict[str, _Source] = {}
        self._publish_lock = threading.Lock()
        # Built eagerly by every cached source; any other attribute a
        # planned filter names is built on first use.
        self.index_attrs: tuple = tuple(index_attrs or ())
        self._subs: Dict[int, "_PollingSubscription"] = {}
        self._next_sub = 0
        self._provider_errors = self.metrics.counter("gris.provider.errors")
        self._dispatches = self.metrics.counter("gris.provider.dispatches")
        self._pruned = self.metrics.counter("gris.provider.pruned")
        self._cancelled_collects = self.metrics.counter("gris.collect.cancelled")
        self._collect_seconds = self.metrics.histogram("gris.collect.seconds")
        self.metrics.gauge_fn("gris.providers", lambda: len(self._providers))
        self.metrics.gauge_fn("gris.subscriptions", lambda: len(self._subs))
        # Durability only: searches never read the engine.  A memory
        # engine would hold a second copy for nothing and is not written.
        self.storage = storage
        self._durable = storage is not None and storage.backend_name != "memory"
        self.recovered_providers = 0
        if self._durable:
            self._recover()
        self._search_indexed = self.metrics.counter("gris.search.indexed")
        self._search_scanned = self.metrics.counter("gris.search.scanned")
        self._search_examined = self.metrics.counter("gris.search.examined")

    def shutdown(self, wait: bool = True) -> None:
        """Stop the provider pool threads and flush the durable snapshots."""
        self._pool.shutdown(wait=wait)
        if self.storage is not None:
            self.storage.close()

    # -- configuration ("dynamically or statically", §10.3) -------------------

    def add_provider(self, provider: InformationProvider) -> None:
        if provider.name in self._providers:
            raise ValueError(f"duplicate provider {provider.name!r}")
        name = provider.name
        # Absolute DN of the subtree the provider serves (§10.3 pruning).
        self._bases[name] = DN(provider.namespace.rdns + self.suffix.rdns)
        self._providers[name] = provider
        self._provider_seconds[name] = self.metrics.histogram(
            "gris.provider.seconds", labels={"provider": name}
        )
        # Live cache-age gauge per provider: consumers of cn=monitor can
        # judge snapshot currency (§2.1) without probing the provider.
        self.metrics.gauge_fn(
            "gris.cache.age",
            lambda: self.cache.age(name, self.clock.now()) or 0.0,
            labels={"provider": name},
        )

    def enable_self_monitor(self, health, cache_ttl: float = 1.0) -> None:
        """Register the internal self-provider (§6 meta-monitoring).

        The server becomes one of its own information sources: an
        in-process provider owning the ``mds-server-name=<id>`` branch
        under the suffix, publishing the ``Mds-Server-*`` health rollup
        from *health* (an :class:`~repro.obs.health.HealthModel`).  The
        entries flow through the ordinary provider cache and chaining
        paths, so a monitoring GIIS aggregates fleet health with plain
        GRIP — no side channel.  *cache_ttl* bounds how often the rollup
        is recomputed under query load.
        """
        server_id = health.server_id or "gris"
        namespace = DN((RDN.single("mds-server-name", server_id),))
        self.add_provider(
            FunctionProvider(
                "mds-self-monitor",
                lambda: [health.entry(namespace)],
                namespace=namespace,
                cache_ttl=cache_ttl,
            )
        )

    def remove_provider(self, name: str) -> None:
        if self._providers.pop(name, None) is not None:
            # Drop the per-provider instruments registered by
            # add_provider, or cn=monitor keeps serving the ghosts.
            labels = {"provider": name}
            self.metrics.unregister("gris.cache.age", labels=labels)
            self.metrics.unregister("gris.provider.seconds", labels=labels)
            self._provider_seconds.pop(name, None)
            self._bases.pop(name, None)
        self.cache.invalidate(name)
        with self._publish_lock:
            self._persist(name, self._served.pop(name, None), None)

    # -- served forms and their durable branches -----------------------------------

    def _publish(self, name: str, origin: Tuple[Entry, ...], produced_at: float) -> _Source:
        """Build and publish the served form of one provider snapshot.

        Once per refresh, by whichever search first sees the new cache
        tuple.  The form carries its own postings, so a search holding it
        plans over generation N or N+1 whole, never a mixture.
        """
        with self._publish_lock:
            old = self._served.get(name)
            if old is not None and (old.origin is origin or produced_at < old.produced_at):
                return old  # built meanwhile, or the caller holds an older one
            suffix = self.suffix.rdns
            rebased = (_shared(e, DN(e.dn.rdns + suffix)) for e in origin)
            served = _Source(rebased, self._bases.get(name), name, origin, produced_at,
                             self.index_attrs)
            if name in self._providers:  # else removed while the probe ran
                self._served[name] = served
                self._persist(name, old, served)
            return served

    def _persist(self, name: str, old: Optional[_Source], new: Optional[_Source]) -> None:
        """Move provider *name*'s durable branch from form *old* to *new*.

        The caller holds ``_publish_lock``.  The marker is deleted first
        and written last, so a crash part-way leaves a branch without
        one, which recovery discards: a restart never serves a mixture
        of two generations.
        """
        if not self._durable:
            return
        branch = _branch(name)
        apply = self.storage.apply
        if old is not None:
            apply(ChangeOp.delete(branch))
        kept = new.by_dn if new is not None else {}
        for dn in old.by_dn if old is not None else ():
            if dn not in kept:
                apply(ChangeOp.delete(DN(dn.rdns + branch.rdns)))
        for dn, entry in kept.items():
            apply(ChangeOp.put(entry.with_dn(DN(dn.rdns + branch.rdns))))
        if new is not None:
            attrs = {"gris-view-provider": name, "objectclass": _SNAPSHOT_CLASS,
                     "viewversion": repr(new.produced_at)}
            apply(ChangeOp.put(Entry(branch, attrs)))

    def _recover(self) -> None:
        """Warm restart: rebuild the served forms from the stored branches.

        A branch whose root is a well-formed marker holds one provider's
        pre-crash served form, stamps included.  Un-rebased it seeds the
        provider cache at the original production time, so searches
        serve the pre-crash results until TTLs lapse (§2.1: the stamps
        still say when the data was actually produced).  Every other
        stored entry (a branch a crash cut short, data in another
        layout) is deleted, and its provider re-probes cold.
        """
        self.storage.replay()
        stored = self.storage.entries
        branches: Dict[DN, Tuple[str, float, List[Entry]]] = {}
        for dn, entry in stored.items():
            name = entry.first("gris-view-provider")
            if name and entry.is_a(_SNAPSHOT_CLASS) and dn == _branch(name):
                try:
                    branches[dn] = (name, float(entry.first("viewversion", "")), [])
                except ValueError:
                    pass
        for dn, entry in list(stored.items()):
            if dn in branches:
                continue
            branch = branches.get(DN(dn.rdns[-1:]))
            served = DN(dn.rdns[:-1])
            if branch is not None and served.is_within(self.suffix):
                branch[2].append(_shared(entry, served))
            else:
                self.storage.apply(ChangeOp.delete(dn))
        for name, version, entries in branches.values():
            origin = tuple(e.with_dn(DN(e.dn.relative_to(self.suffix))) for e in entries)
            self._served[name] = _Source(entries, self.suffix, name, origin, version,
                                         self.index_attrs)
            self.cache.seed(name, origin, version)
            self.recovered_providers += 1

    def providers(self) -> List[InformationProvider]:
        return list(self._providers.values())

    def set_suffix_entry(self, entry: Entry) -> None:
        """The entry published at the GRIS suffix itself."""
        self._suffix_source = _Source([_shared(entry, self.suffix)], self.suffix,
                                      eager=self.index_attrs)

    def _observe_provider(
        self, provider: InformationProvider, started: float, span, failed: bool = False
    ) -> None:
        seconds = self._provider_seconds.get(provider.name)
        if seconds is not None:  # None: removed while this probe ran
            seconds.observe(self.clock.now() - started)
        if span is not None:
            if failed:
                span.tag("failed", True)
            span.finish()

    # -- namespace math ---------------------------------------------------------

    @staticmethod
    def _intersects(pbase: DN, base: DN, scope: Scope) -> bool:
        """Conservative namespace/scope intersection test (§10.3 pruning).

        *pbase* is a provider's subtree, *base* and *scope* the search's.
        May admit a provider whose entries all fall outside the scope —
        generic scope filtering removes them — but never prunes one that
        could contribute.
        """
        if scope == Scope.BASE:
            return base.is_within(pbase)
        return pbase.is_within(base) or base.is_within(pbase)

    # -- search ------------------------------------------------------------------

    def naming_contexts(self):
        return [str(self.suffix)]

    def _search_impl(self, req: SearchRequest, ctx: RequestContext) -> SearchOutcome:
        try:
            base = req.base_dn()
        except Exception:
            return SearchOutcome(
                result=LdapResult(ResultCode.PROTOCOL_ERROR, message="bad base DN")
            )
        if not (base.is_within(self.suffix) or self.suffix.is_within(base)):
            return SearchOutcome(
                result=LdapResult(
                    ResultCode.NO_SUCH_OBJECT, matched_dn=str(self.suffix)
                )
            )
        span = ctx.trace.child("gris.collect") if ctx.trace is not None else None
        sources = self._collect(req, trace=span, token=ctx.token)
        if span is not None:
            span.tag("entries", sum(len(s.by_dn) for s in sources)).finish()
        found, examined, planned = _select(sources, base, req.scope, req.filter)
        (self._search_indexed if planned else self._search_scanned).inc()
        self._search_examined.inc(examined)
        if req.scope == Scope.BASE and not found:
            return SearchOutcome(
                result=LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=req.base)
            )
        return SearchOutcome(entries=found)

    def _collect(self, req: SearchRequest, trace=None, token=None) -> List[_Source]:
        """Gather the sources relevant to *req*, in merge order.

        The suffix entry, then one source per provider that answered,
        in registration order whatever order the probes completed in;
        the first source to name a DN serves it.  A cached provider
        contributes its shared served form (nothing is copied, stamped,
        rebased or re-keyed per request), a filter-aware one its answer.

        A probe the cache can answer from the snapshot it holds is a
        read and runs on the calling thread.  Every other probe may
        block — a miss, a lapsed or TTL-0 snapshot, a provider in
        backoff, a provider that answers per request — and goes to the
        provider pool when it has workers, so the providers that must
        be refreshed for one search are refreshed concurrently (the
        search waits for the slowest, not the sum).  Inline mode probes
        every provider in order, which keeps the simulator deterministic.

        A cancelled *token* aborts the fan-out: the requester is gone
        or past its time limit, so outstanding probes are wasted work.
        The partial list is returned; the front end discards it.
        """
        now = self.clock.now()
        base = req.base_dn()
        eligible: List[InformationProvider] = []
        for name, provider in self._providers.items():
            if self._intersects(self._bases[name], base, req.scope):
                eligible.append(provider)
            else:
                self._pruned.inc()
        results = self._probe_all(eligible, req, now, trace, token)
        if token is not None and token.cancelled:
            self._cancelled_collects.inc()
        sources = [self._suffix_source] if self._suffix_source is not None else []
        sources.extend(source for source in results if source is not None)
        self._collect_seconds.observe(self.clock.now() - now)
        return sources

    def _probe_one(
        self, provider: InformationProvider, req: SearchRequest, now, trace, token
    ) -> Optional[_Source]:
        """Probe one provider; its source, or None (failed/cancelled)."""
        if token is not None and token.cancelled:
            return None
        self._dispatches.inc()
        span = (
            trace.child("gris.provider", provider=provider.name)
            if trace is not None
            else None
        )
        started = self.clock.now()
        direct = provider.search(req, self.suffix)
        if direct is not None:
            self._observe_provider(provider, started, span)
            # Filter-aware providers answer outside the cache: a
            # one-request source, matched linearly (see _plan).
            return _Source(direct)
        try:
            entries, produced_at = self.cache.get(provider, now)
        except ProviderError:
            self._provider_errors.inc()
            self._observe_provider(provider, started, span, failed=True)
            return None  # robustness: skip the failed source (§2.2)
        self._observe_provider(provider, started, span)
        served = self._served.get(provider.name)
        if served is None or served.origin is not entries:
            served = self._publish(provider.name, entries, produced_at)
        return served

    def _probe_all(
        self, eligible: List[InformationProvider], req, now, trace, token
    ) -> List[Optional[_Source]]:
        """Probe *eligible*: one result per provider, in the same order.

        Reads of a held snapshot run here.  Probes that may block are
        submitted to the pool first, so they overlap the reads, and
        waited for last (or until *token* is cancelled).
        """
        results: List[Optional[_Source]] = [None] * len(eligible)
        ready: List[int] = []
        blocking: List[int] = []
        for index, provider in enumerate(eligible):
            reads = self._pool.inline or (
                type(provider).search is InformationProvider.search
                and self.cache.ready(provider, now)
            )
            (ready if reads else blocking).append(index)
        if blocking:
            remaining = [len(blocking)]
            lock = threading.Lock()
            done = threading.Event()

            def probe_at(index: int) -> None:
                out = None
                try:
                    out = self._probe_one(eligible[index], req, now, trace, token)
                finally:
                    with lock:
                        results[index] = out
                        remaining[0] -= 1
                        if remaining[0] == 0:
                            done.set()

            if token is not None:
                # Abandon/deadline releases the wait below immediately;
                # outstanding probes see the cancelled token and no-op.
                token.on_cancel(done.set)
            for index in blocking:
                if not self._pool.submit(functools.partial(probe_at, index)):
                    probe_at(index)  # pool saturated: probe here
        for index in ready:
            results[index] = self._probe_one(eligible[index], req, now, trace, token)
        if blocking:
            done.wait()
            with lock:  # a cancelled search's late probes still write
                results = list(results)
        return results

    def snapshot(self, req: Optional[SearchRequest] = None) -> List[Entry]:
        """The merged view (diagnostics); shared entries, read-only."""
        req = req or SearchRequest(base=str(self.suffix), scope=Scope.SUBTREE)
        return _select(self._collect(req), req.base_dn(), req.scope, None)[0]

    # -- polling subscriptions ------------------------------------------------------

    def subscribe(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        push: ChangeCallback,
        change_types: int = ChangeType.ALL,
    ) -> Subscription:
        self._next_sub += 1
        key = self._next_sub
        sub = _PollingSubscription(self, req, push, change_types)
        self._subs[key] = sub
        sub.start()

        def cancel() -> None:
            inner = self._subs.pop(key, None)
            if inner is not None:
                inner.stop()

        return Subscription(cancel)

    def subscription_count(self) -> int:
        return len(self._subs)


class _PollingSubscription:
    """Diffs successive GRIS snapshots into change notifications."""

    def __init__(
        self,
        backend: GrisBackend,
        req: SearchRequest,
        push: ChangeCallback,
        change_types: int,
    ):
        self.backend = backend
        self.req = req
        self.push = push
        self.change_types = change_types
        self._timer: Optional[TimerHandle] = None
        self._stopped = False
        self._last: Dict[DN, Entry] = self._matching()

    def _matching(self) -> Dict[DN, Entry]:
        sources = self.backend._collect(self.req)
        found, _, _ = _select(sources, self.req.base_dn(), self.req.scope, self.req.filter)
        return {entry.dn: entry for entry in found}

    def start(self) -> None:
        self._timer = self.backend.clock.call_later(
            self.backend.poll_interval, self._tick
        )

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _emit(self, entry: Entry, change: int) -> None:
        # A push may cancel this subscription: nothing goes out after it.
        if self.change_types & change and not self._stopped:
            self.push(entry.copy(), change)

    def _tick(self) -> None:
        if self._stopped:
            return
        current = self._matching()
        previous, self._last = self._last, current
        for dn, entry in current.items():
            if dn not in previous:
                self._emit(entry, ChangeType.ADD)
            elif previous[dn] is not entry and not entry.same_attrs(
                previous[dn], ignoring=_STAMPS
            ):  # the same shared object is the same generation: unchanged
                self._emit(entry, ChangeType.MODIFY)
        for dn, entry in previous.items():
            if dn not in current:
                self._emit(entry, ChangeType.DELETE)
        if not self._stopped:
            self.start()
