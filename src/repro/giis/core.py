"""The GIIS backend: MDS-2's aggregate directory framework (§10.4).

"The GIIS framework comprises three major components: generic GRRP
handling, pluggable index construction, and pluggable search handling."

* **GRRP handling** — AddRequests carrying ``giisregistration`` entries
  are decoded as GRRP messages and fed to a
  :class:`~repro.grip.registry.SoftStateRegistry`; "these actions
  comprise little more than management of a list of active providers."
* **Pluggable indexes** — objects implementing :class:`GiisIndex` get
  registration/expiry callbacks; the relational directory
  (:mod:`repro.giis.relational`) uses them to pull provider state with
  follow-up GRIP queries.
* **Search handling** — the default is *chaining*: "GRIP requests
  directed to the GIIS are simply forwarded on to the appropriate
  information provider for response", merged, and returned.  A referral
  mode instead "return[s] the name of the information provider directly
  to the client in the form of a LDAP URL"; per-query result caching is
  available as in the framework.

The GIIS is itself an information provider: it serves its own suffix
entry plus one entry per active registration, so hierarchical discovery
(Figure 5) and name services can enumerate VO members with plain GRIP.

**Per-message work and per-search work are kept apart.**  The registry
builds what a search needs of a registration (entry with encode-cache
cell, parsed namespace, referral URL) when its GRRP message arrives and
publishes an immutable :class:`~repro.grip.registry.Generation`; the
membership hooks and a refresh's fan-out run under the registry's lock
in mutation order, so indexes and write-ahead log see the membership
move in one order.  A search takes the generation by reference and
takes no lock: a DN-map probe below the suffix, the compiled filter
over the shared entries at or above it, and its providers from a route
table built from the generation on the first search after its
*membership* moved (the counter that moves on register, unregister,
expiry, rebirth and a changed suffix, not on a refresh), which the
query cache keys on too.  A cached answer is what the search forwarded,
child frames still undecoded, replayed by later identical searches.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..grip.messages import GrrpError, GrrpMessage, NotificationType
from ..grip.registry import Applied, Generation, Registration, SoftStateRegistry
from ..ldap.backend import (
    Backend,
    ChangeCallback,
    ChangeType,
    RequestContext,
    SearchHandle,
    SearchOutcome,
    Subscription,
    SubscriptionTable,
    stream_outcome,
)
from ..ldap import ber
from ..ldap.dit import Scope, in_scope
from ..ldap.filter import compile_filter
from ..ldap.client import LdapClient, SearchResult
from ..ldap.pool import LdapClientPool
from ..ldap.dn import DN, DNError, RDN
from ..ldap.entry import Entry, WireCache
from ..ldap.protocol import (
    AddRequest,
    Control,
    LdapResult,
    RawEntry,
    ResultCode,
    SearchRequest,
)
from ..ldap.storage import ChangeOp, StorageEngine
from ..ldap.url import LdapUrl
from ..net.clock import Clock
from ..net.transport import Connection, ConnectionClosed, TransportError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import parse_traceparent

__all__ = [
    "GiisIndex",
    "GiisBackend",
    "Connector",
    "CHAIN_DEPTH_OID",
    "MALFORMED_CHAIN_DEPTH",
]

# Dial a provider by its service URL; raises ConnectionClosed on failure.
Connector = Callable[[LdapUrl], Connection]

# Private control carrying the chaining hop count, so misconfigured
# directory cycles (A registered with B registered with A) terminate
# instead of recursing until every timeout fires.
CHAIN_DEPTH_OID = "1.3.6.1.4.1.57264.1.1"

# Depth reported for an unparseable depth control.  Malformed controls
# must fail *closed* (as if already at the limit): treating them as a
# fresh query would let every hop around a cycle reset the count to
# zero, recursing forever on any peer that garbles the control.
MALFORMED_CHAIN_DEPTH = 1 << 30

# Seconds the self-monitor entry is held before it is recomputed (the
# GRIS bounds the same entry the same way).
_SELF_MONITOR_TTL = 1.0

# Warm sockets pooled per child, and concluded answers the query cache
# holds before it evicts the least recently used.
POOL_SIZE = 2
MAX_QUERY_CACHE = 256


def _read_chain_depth(controls) -> int:
    for control in controls:
        if getattr(control, "oid", None) == CHAIN_DEPTH_OID:
            try:
                return ber.decode_integer(ber.decode_tlv(control.value)[1])
            except Exception:  # noqa: BLE001
                return MALFORMED_CHAIN_DEPTH
    return 0


@functools.lru_cache(maxsize=64)
def _chain_depth_control(depth: int) -> Control:
    """The depth control for one hop; depths are few, so each is built once."""
    return Control(CHAIN_DEPTH_OID, False, ber.encode_integer(depth))


class GiisIndex:
    """Interface for pluggable index construction (§10.4)."""

    def attach(self, giis: "GiisBackend") -> None:
        """Called once when plugged into a GIIS."""

    def on_register(self, registration: Registration) -> None:
        """A new provider joined."""

    def on_refresh(self, registration: Registration) -> None:
        """An existing registration was refreshed."""

    def on_expire(self, registration: Registration) -> None:
        """A registration timed out (soft-state purge)."""

    def on_unregister(self, registration: Registration) -> None:
        """A provider explicitly left; handled as an expiry unless overridden."""
        self.on_expire(registration)


class _Routes(NamedTuple):
    """Registrant selection for one membership, built from its generation.

    Keys are normalized DN tuples (leaf first, so an ancestor's key is a
    tail of its descendant's); values are service URLs in membership
    order.  Never mutated once built.
    """

    membership: int
    rank: Dict[str, int]  # service URL -> place in membership order
    exact: Dict[tuple, List[str]]  # suffix -> registrations advertising it
    within: Dict[tuple, List[str]]  # DN -> registrations whose suffix is at/below it

    @classmethod
    def build(cls, gen: Generation) -> "_Routes":
        exact: Dict[tuple, List[str]] = {}
        within: Dict[tuple, List[str]] = {}
        for url, record in gen.by_url.items():
            if record.suffix_dn is None:  # malformed suffix: never a target
                continue
            key = record.suffix_dn.normalized()
            exact.setdefault(key, []).append(url)
            for cut in range(len(key) + 1):
                within.setdefault(key[cut:], []).append(url)
        rank = {url: place for place, url in enumerate(gen.by_url)}
        return cls(gen.membership, rank, exact, within)

    def targets(self, base: DN) -> List[str]:
        """Service URLs whose suffix contains *base* or is within it,
        in membership order; read-only."""
        key = base.normalized()
        found = self.within.get(key, [])
        # Suffixes strictly above *base*: disjoint from those at or below.
        for cut in range(1, len(key) + 1):
            above = self.exact.get(key[cut:])
            if above:
                found = sorted(found + above, key=self.rank.__getitem__)
        return found


class _QueryCacheSlot:
    __slots__ = ("outcome", "created_at")

    def __init__(self, outcome: SearchOutcome, created_at: float):
        self.outcome = outcome
        self.created_at = created_at


class GiisBackend(Backend):
    """A Grid Index Information Service."""

    def __init__(
        self,
        suffix: DN | str,
        clock: Clock,
        connector: Optional[Connector] = None,
        url: Optional[LdapUrl] = None,
        mode: str = "chain",  # 'chain' or 'referral'
        child_timeout: float = 5.0,
        cache_ttl: float = 0.0,
        registration_grace: float = 0.0,
        purge_interval: Optional[float] = None,
        accept: Optional[Callable[[GrrpMessage, Optional[str]], bool]] = None,
        vo_name: str = "",
        credential=None,
        max_chain_depth: int = 8,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        storage: Optional[StorageEngine] = None,
    ):
        if mode not in ("chain", "referral"):
            raise ValueError(f"unknown GIIS mode {mode!r}")
        self.suffix = DN.of(suffix)
        self.clock = clock
        self.connector = connector
        self.url = url
        self.mode = mode
        self.child_timeout = child_timeout
        self.cache_ttl = cache_ttl
        self.vo_name = vo_name or str(self.suffix)
        # §10.4: "the GIIS can also bind using a trusted server
        # credential, [so] each GRIS may export some data that it trusts
        # the GIIS to handle properly."  When set, every child
        # connection is opened with a GSI bind as this credential.
        self.credential = credential
        self.max_chain_depth = max_chain_depth
        self.tracer = tracer
        # Chaining fan-out instrumentation.
        self.metrics = metrics or MetricsRegistry()
        self._chained = self.metrics.counter("giis.chained")
        self._child_errors = self.metrics.counter("giis.child.errors")
        self._child_timeouts = self.metrics.counter("giis.child.timeouts")
        self._depth_limited = self.metrics.counter("giis.depth_limited")
        self._qcache_hits = self.metrics.counter("giis.query_cache.hits")
        self._qcache_misses = self.metrics.counter("giis.query_cache.misses")
        self._qcache_evictions = self.metrics.counter("giis.query_cache.evictions")
        self.metrics.gauge_fn("giis.query_cache.size", lambda: len(self._query_cache))
        self._chain_cancelled = self.metrics.counter("giis.chain.cancelled")
        self._relay_entries = self.metrics.counter("giis.relay.entries")
        self._child_abandoned = self.metrics.counter("giis.child.abandoned")
        self._child_latency = self.metrics.histogram("giis.child.seconds")
        self._fanout = self.metrics.histogram(
            "giis.fanout", buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
        )
        self.registry = SoftStateRegistry(
            clock,
            grace=registration_grace,
            purge_interval=purge_interval,
            on_register=lambda r: self._fan("on_register", r, ChangeType.ADD),
            on_expire=lambda r: self._fan("on_expire", r, ChangeType.DELETE),
            on_unregister=lambda r: self._fan("on_unregister", r, ChangeType.DELETE),
            accept=accept,
            metrics=self.metrics,
            suffix=self.suffix,
        )
        self.indexes: List[GiisIndex] = []
        # Registrant selection reads the generation, not a hook: _route
        # swaps in a table rebuilt from it when the membership moved.
        self._routes = _Routes.build(self.registry.generation())
        # Persistent child connections: chained queries pipeline over a
        # few warm sockets per child instead of dialing per query.
        self.pool = LdapClientPool(self._dial_child, size=POOL_SIZE, metrics=self.metrics)
        # LRU over query outcomes: most-recently-hit keys live at the
        # tail, eviction pops the head.  Lookups run on executor
        # workers and stores on child receive threads, so every access
        # holds the lock.
        self._query_cache: "OrderedDict[Tuple, _QueryCacheSlot]" = OrderedDict()
        self._query_cache_lock = threading.Lock()
        self._subscriptions = SubscriptionTable()
        # Durable registration state: every membership change is
        # mirrored into the engine as the registration *entry* (the
        # same post-image the GIIS serves), so a restart replays the
        # membership list instead of waiting a full soft-state refresh
        # cycle to repopulate.
        self.storage = storage
        self._recovering = False
        self.replayed_registrations = 0
        # Self-monitoring (§6 meta-monitoring): when a HealthModel is
        # attached, the local view carries this GIIS's own
        # Mds-Server-* entry, so a parent directory aggregates it
        # through the same GRIP chaining as any resource data.
        self._self_monitor = None
        self._monitor_held: Optional[Tuple[float, Entry]] = None
        self._suffix_entry = self._build_suffix_entry()
        if self.storage is not None:
            self._recover_registrations()

    # -- index plumbing --------------------------------------------------------

    def add_index(self, index: GiisIndex) -> None:
        self.indexes.append(index)
        index.attach(self)

    def _fan(self, event: str, registration: Registration, change: int) -> None:
        """One membership hook.  The registry calls it under its lock, in
        mutation order: indexes, log and subscribers see one history."""
        for index in self.indexes:
            getattr(index, event)(registration)
        entry = registration.entry
        gone = change == ChangeType.DELETE
        self._persist(ChangeOp.delete(entry.dn) if gone else ChangeOp.put(entry))
        self._subscriptions.notify(entry, change)

    # -- durable registration state --------------------------------------------

    def _persist(self, op: ChangeOp) -> None:
        if self.storage is not None and not self._recovering:
            self.storage.apply(op)

    def _recover_registrations(self) -> None:
        """Warm restart: replay persisted registrations into the registry.

        Each stored entry is decoded back to its GRRP message and pushed
        through the normal ``registry.apply`` intake, so VO membership
        policy and expiry both re-run: entries whose lifetime lapsed
        while the server was down are rejected there and purged from
        storage — soft-state semantics hold across restarts.  The
        ``_recovering`` guard keeps the register hooks from writing the
        very entries being replayed back to disk.
        """
        self._recovering = True
        try:
            self.storage.replay()
            for entry in list(self.storage.entries.values()):
                if not GrrpMessage.is_registration_entry(entry):
                    self.storage.apply(ChangeOp.delete(entry.dn))
                    continue
                try:
                    message = GrrpMessage.from_entry(entry)
                except GrrpError:
                    self.storage.apply(ChangeOp.delete(entry.dn))
                    continue
                identity = entry.first("regsource")
                if identity == "unknown":
                    identity = None
                if self.registry.apply(message, identity):
                    self.replayed_registrations += 1
                else:
                    self.storage.apply(ChangeOp.delete(entry.dn))
        finally:
            self._recovering = False

    # -- GRRP intake (the write path) --------------------------------------------

    def add(self, req: AddRequest, ctx: RequestContext) -> LdapResult:
        entry = req.to_entry()
        if not GrrpMessage.is_registration_entry(entry):
            return LdapResult(
                ResultCode.UNWILLING_TO_PERFORM,
                message="GIIS accepts only GRRP registration entries",
            )
        try:
            message = GrrpMessage.from_entry(entry)
        except GrrpError as exc:
            return LdapResult(ResultCode.PROTOCOL_ERROR, message=str(exc))
        return self.apply_grrp(message, ctx.identity)

    def apply_grrp(
        self, message: GrrpMessage, identity: Optional[str] = None
    ) -> LdapResult:
        """GRRP intake independent of transport (datagram or LDAP Add)."""
        span = None
        if self.tracer is not None:
            # REGISTER messages triggered by an invitation carry the
            # inviter's trace context, correlating intake with cause.
            remote = (
                parse_traceparent(message.trace_context)
                if message.trace_context
                else None
            )
            span = self.tracer.start(
                "grrp.intake",
                remote=remote,
                url=message.service_url,
                type=message.notification_type,
            )
        try:
            result = self._apply_grrp(message, identity)
            if span is not None:
                span.tag("code", result.code)
            return result
        finally:
            if span is not None:
                span.finish()

    def _apply_grrp(
        self, message: GrrpMessage, identity: Optional[str] = None
    ) -> LdapResult:
        # The registry fires the membership hooks under its lock; taking
        # it here puts a refresh's fan-out in that same total order.
        with self.registry.lock:
            applied = self.registry.apply(message, identity)
            if applied.kind == Applied.REFRESHED:
                for index in self.indexes:
                    index.on_refresh(applied.record)
                # Refreshes extend valid_until; without re-persisting,
                # recovery would resurrect the stale lifetime and purge
                # a registrant that was alive moments before the crash.
                self._persist(ChangeOp.put(applied.record.entry))
        stranger = applied.kind == Applied.REFUSED and applied.record is None
        if stranger and message.notification_type == NotificationType.REGISTER:
            return LdapResult(
                ResultCode.INSUFFICIENT_ACCESS_RIGHTS,
                message="registration refused by VO membership policy",
            )
        return LdapResult()

    def handle_grrp_datagram(self, source, payload: bytes) -> None:
        """Datagram-transport GRRP intake (bind to ``node.on_datagram``)."""
        try:
            message = GrrpMessage.from_bytes(payload)
        except GrrpError:
            return
        self.apply_grrp(message)

    # -- local view ---------------------------------------------------------------

    def _build_suffix_entry(self) -> Entry:
        entry = Entry(
            self.suffix,
            objectclass=["organization"] if self.suffix.rdns else ["top"],
        )
        if self.suffix.rdns:
            entry.put(self.suffix.rdn.attr, self.suffix.rdn.value)
        entry.put("description", f"GIIS for {self.vo_name}")
        if self.url is not None:
            entry.add_value("objectclass", "service")
            entry.put("url", str(self.url))
        entry._wire = WireCache()
        return entry

    def _heads(self) -> List[Entry]:
        """The local entries that are not registrations: suffix, self-monitor."""
        health = self._self_monitor
        if health is None:
            return [self._suffix_entry]
        now = self.clock.now()
        held = self._monitor_held
        if held is None or now - held[0] > _SELF_MONITOR_TTL:
            rdn = RDN.single("mds-server-name", health.server_id or self.vo_name)
            entry = health.entry(DN((rdn,) + self.suffix.rdns))
            entry._wire = WireCache()
            held = self._monitor_held = (now, entry)
        return [self._suffix_entry, held[1]]

    def local_entries(self) -> List[Entry]:
        """The entries the GIIS itself serves: suffix + registrations —
        the served objects, shared with every search: read, never mutate."""
        records = self.registry.generation().by_url.values()
        return self._heads() + [record.entry for record in records]

    def _local(
        self, gen: Generation, base: DN, scope: Scope, match: Callable[[Entry], bool]
    ) -> List[Entry]:
        """The local entries inside (*base*, *scope*) that *match*;
        *base* is within the suffix or above it."""
        heads = self._heads()
        below = len(base) - len(self.suffix)
        if below > 0:
            # Strictly below the suffix at most one local entry is in scope.
            url = gen.by_dn.get(base)
            heads = heads[1:] if url is None else [gen.by_url[url].entry]
        out = [e for e in heads if in_scope(e.dn, base, scope) and match(e)]
        # Every registration sits one level under the suffix, so the
        # first one's DN decides for the whole tier.
        first = next(iter(gen.by_url.values()), None)
        if below <= 0 and first is not None and in_scope(first.entry.dn, base, scope):
            out.extend(r.entry for r in gen.by_url.values() if match(r.entry))
        return out

    def enable_self_monitor(self, health) -> None:
        """Publish this GIIS's own health as a local entry.

        *health* is an :class:`~repro.obs.health.HealthModel`; its
        ``mds-server-name=<id>`` entry joins the registration entries
        this GIIS serves, so fleet health rolls up the Figure-5
        hierarchy through ordinary chained searches.  The entry is
        rebuilt at most once a second, as the GRIS's self-provider is.
        """
        self._self_monitor = health

    def children(self) -> List[Registration]:
        return self.registry.active()

    # -- search handling -------------------------------------------------------------

    def _route(self, base: DN) -> Tuple[Generation, List[Registration]]:
        """The current generation and its registrations whose advertised
        namespace intersects *base*, in membership order (chaining
        fan-out and merge precedence depend on it)."""
        gen = self.registry.generation()
        routes = self._routes
        if routes.membership != gen.membership:
            # A refresh keeps the membership and so the service URLs; two
            # searches racing here build equal tables, the last one kept.
            routes = self._routes = _Routes.build(gen)
        by_url = gen.by_url
        return gen, [by_url[url] for url in routes.targets(base)]

    def naming_contexts(self):
        return [str(self.suffix)]

    def submit_search_stream(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        on_entry: Callable[[object], None],
        on_done: Callable[[SearchOutcome], None],
    ) -> SearchHandle:
        """Answer one search: the local view, then every chained child.

        The local view (suffix, self-monitor and registration entries)
        streams first, on the calling thread.  In chain mode each
        registered provider whose namespace intersects the base is then
        searched and its answer forwarded as it arrives, first writer
        winning on a DN seen twice; ``on_done`` fires once the last
        child has answered, failed or timed out (failures and timeouts
        cost only that child's entries, §2.2).  Referral mode, a request
        at the chaining depth limit and a search no provider covers
        conclude at once — with the providers' URLs as referrals in
        referral mode.

        A transparent request (``ctx.transparent``) is relayed: child
        frames are forwarded as undecoded
        :class:`~repro.ldap.protocol.RawEntry` objects, and without a
        query cache the parent's size limit is forwarded to the
        children.  With a query cache (``cache_ttl > 0``) what was
        forwarded is recorded, stored when every child answered, and
        replayed by later identical searches without touching a child.
        """
        token = ctx.token
        handle = SearchHandle(token)
        try:
            base = req.base_dn()
        except DNError:
            on_done(
                SearchOutcome(
                    result=LdapResult(ResultCode.PROTOCOL_ERROR, message="bad base DN")
                )
            )
            return handle
        if not (base.is_within(self.suffix) or self.suffix.is_within(base)):
            on_done(
                SearchOutcome(
                    result=LdapResult(
                        ResultCode.NO_SUCH_OBJECT, matched_dn=str(self.suffix)
                    )
                )
            )
            return handle

        gen, targets = self._route(base)
        cache_key = None
        if self.cache_ttl > 0:
            # A membership change makes every older answer unreachable;
            # a refresh does not (it is most of the GRRP traffic).
            cache_key = (str(base).lower(), int(req.scope), str(req.filter), gen.membership)
            cached = self._cached_outcome(cache_key)
            if cached is not None:
                if ctx.trace is not None:
                    ctx.trace.child("giis.cache", hit=True).finish()
                return stream_outcome(cached, ctx, self._replayer(ctx, on_entry), on_done)

        local = SearchOutcome(
            entries=self._local(gen, base, req.scope, compile_filter(req.filter))
        )
        depth = _read_chain_depth(ctx.controls)
        chain = False
        if self.mode == "referral":
            local.referrals = [registration.referral for registration in targets]
        elif depth >= self.max_chain_depth:
            # Cycle or pathological hierarchy: answer with the local
            # view instead of recursing (partial results, §2.2).
            self._depth_limited.inc()
        else:
            chain = bool(targets) and self.connector is not None
        if not chain:
            return stream_outcome(local, ctx, on_entry, on_done)

        self._fanout.observe(len(targets))
        collector = _StreamCollector(
            self, len(targets), on_entry, on_done, ctx, cache_key
        )
        # Relaying means no parent-side projection or ACL can drop a
        # child entry, so the parent's size budget is safe to forward;
        # children at their budget answer sizeLimitExceeded, treated as
        # partial success.  A caching GIIS never forwards it: a
        # truncated answer must not satisfy later, larger queries (the
        # cache key carries no size limit).
        budget = req.size_limit if ctx.transparent and cache_key is None else 0
        # Abandon/Unbind/disconnect/deadline/size limit all land here:
        # stop waiting on children, cancel their timers, Abandon whatever
        # is still in flight, and never call on_done.
        token.on_cancel(collector.abort)
        collector.start(local)
        for registration in targets:
            if collector.finished:
                break  # aborted (or size budget met) while fanning out
            self._chain_to(registration, req, collector, depth + 1, budget)
        return handle

    def _chain_to(
        self,
        registration: Registration,
        req: SearchRequest,
        collector: "_StreamCollector",
        depth: int,
        size_budget: int,
    ) -> None:
        """Search one child, streaming its frames into *collector*."""
        url = registration.service_url
        client = self._client_for(url)
        if client is None:
            self._child_errors.inc()
            collector.child_failed(url)
            return
        self._chained.inc()
        span = (
            collector.span.child("giis.child", url=url)
            if collector.span is not None
            else None
        )
        started = self.clock.now()
        # Forward without attribute selection: the parent front end
        # filters and projects authoritatively on full entries (a
        # projected entry could no longer match the filter upstream).
        # *size_budget* is the parent's size limit when the caller
        # proved per-child truncation safe, else 0 (unlimited).  The
        # time limit is re-stamped below from this hop's own budget.
        req = replace(req, attributes=(), size_limit=size_budget, time_limit=0)

        def on_timeout() -> None:
            if span is not None:
                span.tag("timeout", True).finish()
            collector.child_timed_out(url)

        # The per-child timeout never exceeds the request's remaining
        # deadline budget: a child answer arriving after the front end
        # already said TIME_LIMIT_EXCEEDED is useless.
        child_timeout = collector.token.clamp(started, self.child_timeout)
        timer = self.clock.call_later(child_timeout, on_timeout)
        collector.own_timer(url, timer)

        def on_done(result: SearchResult, _error=None) -> None:
            timer.cancel()
            self._child_latency.observe(self.clock.now() - started)
            # A child that filled its forwarded size budget answers
            # sizeLimitExceeded over a *partial entry set* — that is the
            # budget working, not a failure (§2.2 partial results).
            ok = (
                result.result.ok
                or result.result.code == ResultCode.SIZE_LIMIT_EXCEEDED
            )
            if span is not None:
                span.tag("ok", ok).finish()
            if ok:
                collector.child_done(url, result)
            else:
                self._child_errors.inc()
                collector.child_failed(url)

        try:
            msg_id = client.search_async(
                req,
                on_done,
                controls=(_chain_depth_control(depth),),
                deadline=child_timeout,
                trace=span,
                on_entry=lambda raw: collector.child_entry(url, raw),
            )
        except Exception:  # noqa: BLE001 - connection died under us
            timer.cancel()
            if span is not None:
                span.tag("error", "send failed").finish()
            self.pool.discard(url, client)
            self._child_errors.inc()
            collector.child_failed(url)
            return
        collector.own_child(url, client, msg_id)

    def _client_for(self, service_url: str) -> Optional[LdapClient]:
        return self.pool.client_for(service_url)

    def _dial_child(self, service_url: str) -> Optional[LdapClient]:
        """Pool dialer: connect and (when configured) GSI-bind."""
        if self.connector is None:
            return None
        try:
            url = LdapUrl.parse(service_url)
            conn = self.connector(url)
        except (ConnectionClosed, TransportError, ValueError):
            return None
        client = LdapClient(conn)
        if self.credential is not None:
            # Ordered delivery guarantees the bind is processed before
            # any search we send on this connection afterwards.
            from ..security.gsi import make_token

            token = make_token(self.credential, service_url, self.clock.now())
            try:
                client.bind_async(
                    lambda outcome, error: None, mechanism="GSI", credentials=token
                )
            except Exception:  # noqa: BLE001 - connection died already
                # Release the freshly dialed socket and don't hand the
                # half-bound client to the pool, or every retry against
                # a flaky child leaks one connection.
                try:
                    client.unbind()
                except Exception:  # noqa: BLE001 - already torn down
                    pass
                return None
        return client

    def shutdown(self) -> None:
        """Release child connections and flush durable state."""
        self.pool.close()
        if self.storage is not None:
            self.storage.close()

    # -- query cache --------------------------------------------------------------------

    def _cached_outcome(self, key) -> Optional[SearchOutcome]:
        """The live answer cached under *key*, or None; shared, read-only.

        A miss also evicts TTL-expired slots: without that, distinct
        one-off queries (and answers keyed on a membership that has
        moved on) accumulate dead slots, and sweeping on the miss path
        keeps the hit path a single dict probe.
        """
        now = self.clock.now()
        with self._query_cache_lock:
            slot = self._query_cache.get(key)
            if slot is None or now - slot.created_at > self.cache_ttl:
                self._qcache_misses.inc()
                dead = [
                    k
                    for k, s in self._query_cache.items()
                    if now - s.created_at > self.cache_ttl
                ]
                for k in dead:
                    del self._query_cache[k]
                return None
            self._query_cache.move_to_end(key)
            self._qcache_hits.inc()
        return slot.outcome

    def _replayer(self, ctx: RequestContext, on_entry: Callable[[object], None]):
        """*on_entry* for a cached answer: a recorded child frame is
        relayed as is, or decoded for a request that is not transparent."""

        def replay(item) -> None:
            if isinstance(item, RawEntry):
                if not ctx.transparent:
                    item = item.to_entry()
                else:
                    self._relay_entries.inc()
            on_entry(item)

        return replay

    def _store_query_result(self, key, slot: _QueryCacheSlot) -> None:
        """Cache one concluded answer, holding the cache to MAX_QUERY_CACHE.

        The cache is an LRU: hits and (re)inserts move the key to the
        tail, so eviction pops the least-recently-used head in O(1).
        """
        with self._query_cache_lock:
            self._query_cache[key] = slot
            self._query_cache.move_to_end(key)
            while len(self._query_cache) > MAX_QUERY_CACHE:
                self._query_cache.popitem(last=False)
                self._qcache_evictions.inc()

    # -- subscriptions over the membership view -----------------------------------------

    def subscribe(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        push: ChangeCallback,
        change_types: int = ChangeType.ALL,
    ) -> Subscription:
        """Notify on VO membership changes (registration add/expiry)."""
        return self._subscriptions.subscribe(req, push, change_types)


class _StreamCollector:
    """The merge behind one chained search.

    Forwards entries to the front end as they arrive — local view
    first, then children in arrival order — with the first writer
    winning on a DN seen twice, and calls ``on_done`` exactly once, when
    the last child has answered, failed or timed out.  :meth:`abort`
    (wired to the request's :class:`~repro.ldap.executor.CancelToken`)
    ends it early: outstanding child timers are cancelled, in-flight
    child searches Abandoned, late answers dropped, and neither
    callback fires again.  An answer headed for the query cache
    (*cache_key*) is recorded as it is forwarded — child frames as
    detached :class:`RawEntry` objects, local entries as the served
    objects — and stored on conclusion, never on abort nor when a child
    failed or timed out.

    Child connections deliver on independent receive threads, so every
    callback serializes under one lock — reentrant, because forwarding
    an entry can trip the front end's size limit, which cancels the
    request token and re-enters :meth:`abort` on this same stack.
    """

    def __init__(
        self,
        giis: GiisBackend,
        pending: int,
        on_entry: Callable[[object], None],
        on_done: Callable[[SearchOutcome], None],
        ctx: RequestContext,
        cache_key,
    ):
        self.giis = giis
        self.on_entry = on_entry
        self.on_done = on_done
        self.token = ctx.token
        self.cache_key = cache_key
        # Forward child frames undecoded: the front end serves them verbatim.
        self.relay = ctx.transparent
        self.span = (
            ctx.trace.child("giis.chain", fanout=pending, relay=self.relay)
            if ctx.trace is not None
            else None
        )
        self.pending = pending
        self.finished = False
        self.seen: Set[DN] = set()
        # What was forwarded, bound for the query cache; None once the
        # answer is not to be stored (no cache, or a child is missing).
        self.recorded: Optional[List[object]] = [] if cache_key is not None else None
        self.referrals: List[str] = []
        self.truncated = False
        self.responded: set = set()
        self._timers: Dict[str, object] = {}
        self._children: Dict[str, Tuple[LdapClient, int]] = {}
        self._lock = threading.RLock()

    def start(self, local: SearchOutcome) -> None:
        """Stream the local view, seeding DN de-duplication."""
        with self._lock:
            self.referrals.extend(local.referrals)
            for entry in local.entries:
                if self.finished or self.token.cancelled:
                    return
                self._forward(entry)

    def own_timer(self, url: str, timer) -> None:
        """Track one child's timeout timer so abort() can cancel it."""
        with self._lock:
            if self.finished:
                timer.cancel()
            else:
                self._timers[url] = timer

    def own_child(self, url: str, client: LdapClient, msg_id: int) -> None:
        """Track one in-flight child search so abort() can Abandon it."""
        with self._lock:
            if self.finished and url not in self.responded:
                self._abandon_child(url, client, msg_id)
            else:
                self._children[url] = (client, msg_id)

    def _abandon_child(self, url: str, client: LdapClient, msg_id: int) -> None:
        self.giis._child_abandoned.inc()
        try:
            client.abandon(msg_id)
        except Exception:  # noqa: BLE001 - connection already gone
            self.giis.pool.discard(url, client)

    def abort(self) -> None:
        with self._lock:
            if self.finished:
                return
            self.finished = True
            self.giis._chain_cancelled.inc()
            timers, self._timers = self._timers, {}
            for timer in timers.values():
                timer.cancel()
            children, self._children = self._children, {}
            for url, (client, msg_id) in children.items():
                if url not in self.responded:
                    self._abandon_child(url, client, msg_id)
            if self.span is not None:
                self.span.tag("cancelled", self.token.reason or True).finish()

    def _forward(self, item) -> None:
        """Dedup one entry by DN and hand it to the front end.

        Caller holds the lock.  A relayed :class:`RawEntry` costs one
        DN-peek parse; otherwise a child frame pays one full decode.
        """
        raw = isinstance(item, RawEntry)
        key = DN.parse(item.dn) if raw else item.dn
        if key in self.seen:
            return
        self.seen.add(key)
        if self.recorded is not None:
            self.recorded.append(item.detach() if raw else item)
        if raw:
            if self.relay:
                self.giis._relay_entries.inc()
            else:
                item = item.to_entry()
        self.on_entry(item)

    def child_entry(self, url: str, item) -> None:
        """One streamed child frame, straight off the receive path."""
        with self._lock:
            if self.finished or url in self.responded:
                return
            self._forward(item)

    def child_done(self, url: str, result: SearchResult) -> None:
        with self._lock:
            if self.finished or url in self.responded:
                return
            self.responded.add(url)
            self._children.pop(url, None)
            if result.result.code == ResultCode.SIZE_LIMIT_EXCEEDED:
                # Partial success (§2.2): the child truncated at its
                # forwarded size budget (or its own limits), so the
                # merged answer is partial and the final result must
                # carry sizeLimitExceeded.
                self.truncated = True
            self.referrals.extend(result.referrals)
            self._decrement()

    def child_failed(self, url: str) -> None:
        with self._lock:
            if self.finished or url in self.responded:
                return
            self.responded.add(url)
            self._children.pop(url, None)
            self.recorded = None  # an answer short of a child: never cached
            self._decrement()

    def child_timed_out(self, url: str) -> None:
        with self._lock:
            if self.finished or url in self.responded:
                return
            self.responded.add(url)
            self.giis._child_timeouts.inc()
            self.recorded = None
            # The child is still grinding on a query nobody will read —
            # tell it to stop before giving up the slot.
            child = self._children.pop(url, None)
            if child is not None:
                self._abandon_child(url, *child)
            self._decrement()

    def _decrement(self) -> None:
        if self.finished:
            return
        self.pending -= 1
        if self.pending > 0:
            return
        self.finished = True
        if self.span is not None:
            self.span.finish()
        outcome = SearchOutcome(
            referrals=self.referrals,
            result=(
                LdapResult(ResultCode.SIZE_LIMIT_EXCEEDED)
                if self.truncated
                else LdapResult()
            ),
        )
        if self.recorded is not None:
            cached = SearchOutcome(self.recorded, list(self.referrals), outcome.result)
            self.giis._store_query_result(
                self.cache_key, _QueryCacheSlot(cached, self.giis.clock.now())
            )
        self.on_done(outcome)
