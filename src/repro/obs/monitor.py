"""The ``cn=monitor`` subtree: a service's own health, served over GRIP.

MDS-2's central idea is one uniform query surface for *all* Grid
information — so the information service dogfoods GRIP to publish its
own operational state, exactly as OpenLDAP's ``back-monitor`` does for
slapd.  :class:`MonitorBackend` renders a live
:class:`~repro.obs.metrics.MetricsRegistry` as LDAP entries under
``cn=monitor``; :class:`MonitoredBackend` composes it with any data
backend (GRIS or GIIS) so one server answers both::

    # what resources exist?
    client.search("o=Grid", Scope.SUBTREE, "(objectclass=computer)")
    # and how is the server itself doing?
    client.search("cn=monitor", Scope.SUBTREE, "(mdsmetrictype=histogram)")

Entries regenerate from the registry on every search, so repeated
queries observe counters moving — the monitoring semantics of §6
applied to the service itself.  Standard filters, scopes, attribute
selection, and access control all apply: the front end treats monitor
entries like any others.

Naming: each instrument becomes ``mdsmetricname=<id>, cn=monitor``
where ``<id>`` is the metric name plus ``:key:value`` per label —
colon-separated because ``:`` needs no DN escaping, keeping the DNs
copy-pasteable into any LDAP client.  Labels are *also* exposed as
plain attributes, so ``(&(objectclass=mdsmetric)(op=search))`` works.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from ..ldap.backend import (
    Backend,
    ChangeCallback,
    ChangeType,
    RequestContext,
    SearchHandle,
    SearchOutcome,
    Subscription,
)
from ..ldap.dit import Scope, in_scope
from ..ldap.filter import compile_filter
from ..ldap.dn import DN, RDN
from ..ldap.entry import Entry
from ..ldap.protocol import (
    AddRequest,
    LdapResult,
    ModifyRequest,
    ResultCode,
    SearchRequest,
)
from .metrics import InstrumentSnapshot, MetricsRegistry
from .trace import SlowSpanLog, span_record

__all__ = [
    "MONITOR_SUFFIX",
    "SLOW_SUFFIX",
    "HEALTH_SUFFIX",
    "MonitorBackend",
    "MonitoredBackend",
]

MONITOR_SUFFIX = DN.parse("cn=monitor")
SLOW_SUFFIX = DN.parse("cn=slow,cn=monitor")
HEALTH_SUFFIX = DN.parse("cn=health,cn=monitor")


def _fmt(value: object) -> str:
    """Render numbers without noise: integral floats lose the ``.0``."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.9g}"
    return str(value)


def _dn_id(instrument) -> str:
    parts = [instrument.name]
    for key, value in instrument.labels:
        parts.append(key)
        parts.append(value)
    return ":".join(parts)


class MonitorBackend(Backend):
    """Serves a metrics registry as the ``cn=monitor`` subtree."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        server_name: str = "",
        suffix: DN | str = MONITOR_SUFFIX,
        slow_log: Optional[SlowSpanLog] = None,
        health=None,
    ):
        self.metrics = metrics
        self.server_name = server_name
        self.suffix = DN.of(suffix)
        self.slow_log = slow_log
        # Optional HealthModel: adds a cn=health entry carrying the
        # Mds-Server-* rollup, so one subtree search answers both "what
        # are the numbers" and "is this server OK".
        self.health = health

    # -- entry generation ----------------------------------------------------

    def _root_entry(self, metric_count: int) -> Entry:
        entry = Entry(
            self.suffix,
            objectclass=["top", "mdsmonitor"],
            description="live operational metrics (GRIP-queryable)",
        )
        entry.put(self.suffix.rdn.attr, self.suffix.rdn.value)
        entry.put("mdsmetriccount", metric_count)
        if self.server_name:
            entry.put("servername", self.server_name)
        return entry

    def _metric_entry(self, snap: InstrumentSnapshot) -> Entry:
        dn = self.suffix.child(RDN.single("mdsmetricname", _dn_id(snap)))
        entry = Entry(
            dn,
            objectclass=["top", "mdsmetric"],
            mdsmetricname=_dn_id(snap),
            mdsmetric=snap.name,
            mdsmetrictype=snap.kind,
        )
        for key, value in snap.labels:
            entry.put(key, value)
        data = snap.data
        if snap.kind in ("counter", "gauge"):
            entry.put("mdsvalue", _fmt(data["value"]))
        elif snap.kind == "histogram":
            entry.put("mdscount", _fmt(data["count"]))
            entry.put("mdssum", _fmt(float(data["sum"])))
            entry.put("mdsmean", _fmt(float(data["mean"])))
            if data["min"] is not None:
                entry.put("mdsmin", _fmt(float(data["min"])))
                entry.put("mdsmax", _fmt(float(data["max"])))
            for q in ("p50", "p95", "p99"):
                entry.put(f"mds{q}", _fmt(float(data[q])))
            for bound, cumulative in data["buckets"]:
                entry.put(f"mdsbucket-{_fmt(bound)}", cumulative)
        return entry

    def _health_entry(self) -> Entry:
        dn = self.suffix.child(RDN.single("cn", "health"))
        entry = Entry(
            dn,
            objectclass=["top", "mdsserverstatus"],
            cn="health",
        )
        for attr, value in self.health.attrs().items():
            entry.put(attr, value)
        return entry

    # -- slow-query subtree --------------------------------------------------

    @property
    def slow_suffix(self) -> DN:
        return self.suffix.child(RDN.single("cn", "slow"))

    def _slow_entries(self) -> List[Entry]:
        """``cn=slow``: one entry per captured slow span tree."""
        traces = self.slow_log.slow_traces() if self.slow_log is not None else []
        root_entry = Entry(
            self.slow_suffix,
            objectclass=["top", "mdsslowlog"],
            cn="slow",
            description="span trees whose root exceeded the slow-query threshold",
        )
        root_entry.put("mdsslowthresholdms", _fmt(
            self.slow_log.threshold_ms if self.slow_log is not None else 0.0
        ))
        root_entry.put("mdsslowcount", len(traces))
        out = [root_entry]
        for root, tree in traces:
            dn = self.slow_suffix.child(RDN.single("mdstraceid", root.trace_id))
            entry = Entry(
                dn,
                objectclass=["top", "mdsslowtrace"],
                mdstraceid=root.trace_id,
                mdsrootname=root.name,
            )
            entry.put("mdsrootms", _fmt(root.duration * 1000.0))
            entry.put("mdsspancount", len(tree))
            # One JSON span record per value: grid-info-trace consumes
            # these exactly like JSONL lines read from disk.
            entry.put(
                "mdsspan",
                [
                    json.dumps(span_record(span), sort_keys=True, default=str)
                    for span in tree
                ],
            )
            out.append(entry)
        return out

    def entries(self) -> List[Entry]:
        """The full monitor view, regenerated from one registry snapshot.

        A single :meth:`~repro.obs.metrics.MetricsRegistry.collect` pass
        captures every instrument before any entry is rendered; reading
        instruments one at a time interleaved with entry construction
        used to let a traffic burst land between two reads, so a single
        ``cn=monitor`` search could report ``hits > lookups``.
        """
        snapshot = self.metrics.collect()
        out = [self._root_entry(len(snapshot))]
        for snap in sorted(snapshot, key=lambda s: s.full_name):
            out.append(self._metric_entry(snap))
        if self.health is not None:
            out.append(self._health_entry())
        if self.slow_log is not None:
            out.extend(self._slow_entries())
        return out

    # -- Backend interface ---------------------------------------------------

    def naming_contexts(self) -> List[str]:
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
        match = compile_filter(req.filter)
        entries = [
            e
            for e in self.entries()
            if in_scope(e.dn, base, req.scope) and match(e)
        ]
        if req.scope == Scope.BASE and not entries:
            return SearchOutcome(
                result=LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=req.base)
            )
        return SearchOutcome(entries=entries)


class MonitoredBackend(Backend):
    """Any backend, plus a ``cn=monitor`` naming context alongside it.

    Reads under ``cn=monitor`` go to the monitor; everything else is
    delegated untouched (including writes, subscriptions, and async
    chaining).  A subtree search from the root sees both worlds merged.
    """

    def __init__(self, inner: Backend, monitor: MonitorBackend):
        self.inner = inner
        self.monitor = monitor

    def naming_contexts(self) -> List[str]:
        return list(self.inner.naming_contexts()) + self.monitor.naming_contexts()

    def _route(self, req: SearchRequest) -> str:
        try:
            base = req.base_dn()
        except Exception:
            return "inner"  # let the inner backend report the protocol error
        if base.is_within(self.monitor.suffix):
            return "monitor"
        if self.monitor.suffix.is_within(base) and req.scope != Scope.BASE:
            return "both"
        return "inner"

    def submit_search_stream(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        on_entry: Callable[[object], None],
        on_done: Callable[[SearchOutcome], None],
    ) -> SearchHandle:
        """Route one search to the backend(s) that hold its base.

        Data reads keep the inner backend's per-entry delivery — and
        with it the GIIS relay lane — untouched; ``cn=monitor`` reads
        are the monitor's own stream; a root subtree read streams the
        monitor's entries after the inner stream concludes.
        """
        route = self._route(req)
        if route == "inner":
            return self.inner.submit_search_stream(req, ctx, on_entry, on_done)
        if route == "monitor":
            return self.monitor.submit_search_stream(req, ctx, on_entry, on_done)

        def inner_done(outcome: SearchOutcome) -> None:
            # The monitor subtree still answers when the inner backend
            # had nothing under this base (partial results, §2.2).
            self.monitor.submit_search_stream(
                req,
                ctx,
                on_entry,
                lambda mon: on_done(
                    mon if mon.result.ok and not outcome.result.ok else outcome
                ),
            )

        return self.inner.submit_search_stream(req, ctx, on_entry, inner_done)

    # -- pass-through --------------------------------------------------------

    def _targets_monitor(self, dn: str) -> bool:
        try:
            return DN.parse(dn).is_within(self.monitor.suffix)
        except Exception:
            return False

    def add(self, req: AddRequest, ctx: RequestContext) -> LdapResult:
        if self._targets_monitor(req.dn):
            return LdapResult(
                ResultCode.UNWILLING_TO_PERFORM, message="cn=monitor is read-only"
            )
        return self.inner.add(req, ctx)

    def modify(self, req: ModifyRequest, ctx: RequestContext) -> LdapResult:
        if self._targets_monitor(req.dn):
            return LdapResult(
                ResultCode.UNWILLING_TO_PERFORM, message="cn=monitor is read-only"
            )
        return self.inner.modify(req, ctx)

    def delete(self, dn: str, ctx: RequestContext) -> LdapResult:
        if self._targets_monitor(dn):
            return LdapResult(
                ResultCode.UNWILLING_TO_PERFORM, message="cn=monitor is read-only"
            )
        return self.inner.delete(dn, ctx)

    def subscribe(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        push: ChangeCallback,
        change_types: int = ChangeType.ALL,
    ) -> Optional[Subscription]:
        if self._route(req) == "monitor":
            return None  # metrics have no change feed; poll instead
        return self.inner.subscribe(req, ctx, push, change_types)
