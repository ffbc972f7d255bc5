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
  keyed by DN, one encode-cache cell per entry), built once per refresh:
  a search is O(providers) TTL checks plus O(candidates) matching;
* robustness: a failing provider is skipped, not fatal (§2.2);
* polling subscriptions, so persistent search works over providers that
  only expose snapshots (MDS-2.1 lacked push; we implement it as the
  planned extension).
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ldap.backend import (
    Backend,
    ChangeCallback,
    ChangeType,
    RequestContext,
    SearchOutcome,
    Subscription,
)
from ..ldap.dit import DIT, DitError, Scope, in_scope
from ..ldap.dn import DN, RDN
from ..ldap.entry import Entry, WireCache
from ..ldap.executor import RequestExecutor
from ..ldap.filter import compile_filter
from ..ldap.protocol import LdapResult, ResultCode, SearchRequest
from ..ldap.storage import StorageEngine
from ..net.clock import Clock, TimerHandle
from ..obs.metrics import MetricsRegistry
from .cache import ProviderCache
from .provider import FunctionProvider, InformationProvider, ProviderError

__all__ = ["GrisBackend"]

# Object class of the per-provider bookkeeping entries a durable view
# stores alongside the mirrored snapshots (see _sync_view).
_VIEW_META_CLASS = "grisviewmeta"

# Currency stamps: constants of a snapshot, not part of an entry's payload.
_STAMPS = frozenset(("mds-timestamp", "mds-validto"))


def _view_marker_dn(provider_name: str) -> DN:
    """Where provider *provider_name*'s view-metadata entry lives.

    A top-level branch separate from the GRIS suffix, so markers never
    collide with (or leak into) the mirrored provider namespace.
    """
    return DN((RDN.single("gris-view-provider", provider_name),))


class _Source:
    """One source's entries in served form: absolute DNs, keyed by DN.

    The first entry to name a DN wins, as in the cross-provider merge.
    Read-only once built and shared by every request; *origin* is the
    provider-cache tuple it was built from (another tuple = a refresh).
    """

    __slots__ = ("name", "origin", "produced_at", "by_dn")

    def __init__(self, entries: Iterable[Entry], name=None, origin=None, produced_at=0.0):
        self.name = name
        self.origin = origin
        self.produced_at = produced_at
        self.by_dn: Dict[DN, Entry] = {}
        for entry in entries:
            self.by_dn.setdefault(entry.dn, entry)


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


def _scan(
    sources: Sequence[_Source], base: DN, scope: Scope, match: Callable[[Entry], bool]
) -> List[Entry]:
    """Linear match over the merged sources, shadowed duplicates dropped."""
    return [
        entry
        for rank, source in enumerate(sources)
        for earlier in [sources[:rank]]
        for entry in source.by_dn.values()
        if in_scope(entry.dn, base, scope)
        and match(entry)
        and not any(entry.dn in other.by_dn for other in earlier)
    ]


class GrisBackend(Backend):
    """A Grid Resource Information Service backend."""

    def __init__(
        self,
        suffix: DN | str,
        clock: Clock,
        poll_interval: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        provider_workers: int = 0,
        provider_queue_limit: int = 64,
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
            queue_limit=provider_queue_limit,
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
        # a lock, written under _view_lock together with the view.
        self._served: Dict[str, _Source] = {}
        self._subs: Dict[int, "_PollingSubscription"] = {}
        self._next_sub = 0
        self._provider_errors = self.metrics.counter("gris.provider.errors")
        self._dispatches = self.metrics.counter("gris.provider.dispatches")
        self._pruned = self.metrics.counter("gris.provider.pruned")
        self._cancelled_collects = self.metrics.counter("gris.collect.cancelled")
        self._collect_seconds = self.metrics.histogram("gris.collect.seconds")
        self.metrics.gauge_fn("gris.providers", lambda: len(self._providers))
        self.metrics.gauge_fn("gris.subscriptions", lambda: len(self._subs))
        # Materialized view: the served forms mirrored into an indexed
        # DIT so plannable filters probe posting lists instead of
        # filter-matching every merged entry.  It holds what the merge
        # serves (first provider to name a DN wins) and only yields
        # candidate DNs; answers are the shared entries in _served.
        # None = linear matching.
        self._view: Optional[DIT] = None
        self._view_lock = threading.Lock()
        self.index_attrs: tuple = tuple(index_attrs or ())
        self.recovered_view_providers = 0
        if self.index_attrs or storage is not None:
            self._view = DIT(
                index_attrs=self.index_attrs,
                metrics=self.metrics,
                name="gris-view",
                storage=storage,
            )
            if storage is not None:
                self._recover_view()
        self._search_indexed = self.metrics.counter("gris.search.indexed")
        self._search_scanned = self.metrics.counter("gris.search.scanned")

    def shutdown(self, wait: bool = True) -> None:
        """Stop the provider pool threads and flush durable view state."""
        self._pool.shutdown(wait=wait)
        if self._view is not None:
            self._view.storage.close()

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
        with self._view_lock:
            self._sync_view(name, self._served.pop(name, None), None)

    # -- served forms and the materialized view ----------------------------------

    def _publish(self, name: str, origin: Tuple[Entry, ...], produced_at: float) -> _Source:
        """Build and publish the served form of one provider snapshot.

        Once per refresh, by whichever search first sees the new cache
        tuple.  The view moves with it under one lock: a search sees a
        provider's generation N or N+1 whole, never a mixture.
        """
        with self._view_lock:
            old = self._served.get(name)
            if old is not None and (old.origin is origin or produced_at < old.produced_at):
                return old  # built meanwhile, or the caller holds an older one
            suffix = self.suffix.rdns
            served = _Source(
                (_shared(e, DN(e.dn.rdns + suffix)) for e in origin),
                name,
                origin,
                produced_at,
            )
            if name in self._providers:  # else removed while the probe ran
                self._served[name] = served
                self._sync_view(name, old, served)
            return served

    def _sync_view(self, name: str, old: Optional[_Source], new: Optional[_Source]) -> None:
        """Move the view from provider *name*'s generation *old* to *new*.

        The caller holds ``_view_lock`` and has updated ``_served``.  The
        view keeps, per DN, the entry the merge serves: a DN this
        provider dropped falls to the next provider naming it, or leaves.
        """
        if self._view is None:
            return
        sources = [self._served[n] for n in list(self._providers) if n in self._served]
        kept = new.by_dn if new is not None else {}
        touched = set(kept).union(old.by_dn if old is not None else ())
        for dn in sorted(touched, key=len, reverse=True):
            winner = _first(sources, dn)
            try:
                if winner is None:
                    self._view.delete(dn)
                elif winner is kept.get(dn) or dn not in kept:
                    self._view.add(winner, replace=True)
            except DitError:
                pass  # glue ancestor of entries still in the view
        if self._view.storage.backend_name == "memory":
            return  # a marker exists to be read back after a restart
        # With a durable engine underneath, (version, mirrored DNs) must
        # survive restart beside the mirrored entries, or recovery could
        # not tell which snapshots the persisted view corresponds to.
        marker = _view_marker_dn(name)
        if new is not None:
            attrs = {
                "gris-view-provider": name,
                "objectclass": [_VIEW_META_CLASS],
                "viewversion": repr(new.produced_at),
                "viewdn": [str(dn) for dn in kept],
            }
            self._view.replace(Entry(marker, attrs=attrs))
        elif self._view.exists(marker):
            self._view.delete(marker)

    def _recover_view(self) -> None:
        """Warm restart: rebuild the served forms from replayed markers.

        Each marker yields a provider's snapshot version and the DNs it
        mirrored: the pre-crash served form, stamps included.  Un-rebased
        it seeds the provider cache at the original production time, so
        searches serve the pre-crash results until TTLs lapse (§2.1: the
        stamps still say when the data was actually produced).
        """
        strip = len(self.suffix.rdns)
        for entry in self._view.dump():
            name = entry.first("gris-view-provider")
            if not entry.is_a(_VIEW_META_CLASS) or not name:
                continue
            try:
                version = float(entry.first("viewversion", ""))
                dns = [DN.of(s) for s in entry.get("viewdn")]
            except ValueError:
                continue  # malformed marker: provider re-probes cold
            stored = [self._view.get(dn) for dn in dns if self._view.exists(dn)]
            origin = tuple(
                e.with_dn(DN(e.dn.rdns[: len(e.dn.rdns) - strip])) for e in stored
            )
            self._served[name] = _Source(stored, name, origin, version)
            self.cache.seed(name, origin, version)
            self.recovered_view_providers += 1

    def _plan(self, req: SearchRequest, sources: List[_Source]) -> Optional[Set[DN]]:
        """Candidate DNs for *sources*, or None to match them linearly.

        None when (a) no view is configured, (b) a source is not the
        generation the view indexes — a provider answered per-request,
        or a concurrent refresh moved the view on — or (c) the filter
        is not index-answerable.
        """
        if self._view is None:
            return None
        with self._view_lock:
            for source in sources:
                if (
                    source is not self._suffix_source
                    and self._served.get(source.name) is not source
                ):
                    return None
            return self._view.candidates(req.filter)

    def providers(self) -> List[InformationProvider]:
        return list(self._providers.values())

    def set_suffix_entry(self, entry: Entry) -> None:
        """The entry published at the GRIS suffix itself."""
        self._suffix_source = _Source([_shared(entry, self.suffix)])

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
        match = compile_filter(req.filter)
        if req.scope == Scope.BASE:
            self._search_scanned.inc()
            entry = _first(sources, base)
            if entry is None or not match(entry):
                return SearchOutcome(
                    result=LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=req.base)
                )
            return SearchOutcome(entries=[entry])
        candidates = self._plan(req, sources)
        if candidates is None:
            self._search_scanned.inc()
            found = _scan(sources, base, req.scope, match)
        else:
            self._search_indexed.inc()
            # The suffix entry never enters the view (it is not a cached
            # provider snapshot): verify it like any other candidate.
            candidates.add(self.suffix)
            found = [
                entry
                for entry in (_first(sources, dn) for dn in candidates)
                if entry is not None  # None: a posting outside this collect
                and in_scope(entry.dn, base, req.scope)
                and match(entry)
            ]
        found.sort(key=lambda e: e.dn.sort_key)
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
            # Filter-aware providers answer outside the cache: a source
            # the materialized view cannot vouch for (see _plan).
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
        return _scan(self._collect(req), req.base_dn(), req.scope, lambda e: True)

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
        self._last: Dict[DN, Entry] = self._matching()

    def _matching(self) -> Dict[DN, Entry]:
        sources = self.backend._collect(self.req)
        match = compile_filter(self.req.filter)
        found = _scan(sources, self.req.base_dn(), self.req.scope, match)
        return {entry.dn: entry for entry in found}

    def start(self) -> None:
        self._timer = self.backend.clock.call_later(
            self.backend.poll_interval, self._tick
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        current = self._matching()
        previous, self._last = self._last, current
        for dn, entry in current.items():
            if dn not in previous:
                if self.change_types & ChangeType.ADD:
                    self.push(entry.copy(), ChangeType.ADD)
            elif previous[dn] is not entry and not entry.same_attrs(
                previous[dn], ignoring=_STAMPS
            ):  # the same shared object is the same generation: unchanged
                if self.change_types & ChangeType.MODIFY:
                    self.push(entry.copy(), ChangeType.MODIFY)
        for dn, entry in previous.items():
            if dn not in current and self.change_types & ChangeType.DELETE:
                self.push(entry.copy(), ChangeType.DELETE)
        self.start()
