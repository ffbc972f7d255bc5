"""Pluggable server backends — the OpenLDAP-style extension point.

MDS-2 is built as "specialized backends ... plugged into a standard
protocol interpreter" (§10.1): the GRIS provider framework and the GIIS
aggregate directory are both backends behind the same LDAP front end.
A backend receives decoded, authenticated requests and returns entries
and results; the front end (:mod:`repro.ldap.server`) owns
authentication, access control, authoritative result filtering, and the
wire protocol.

:class:`DitBackend` is the reference implementation over a
:class:`~repro.ldap.dit.DIT`, with change notification hooks driving
persistent-search subscriptions; :class:`SubscriptionTable` is the one
subscriber list every notifying backend keeps.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .dit import (
    DIT,
    DitError,
    EntryExists,
    NoSuchEntry,
    Scope,
    SizeLimitExceeded,
    in_scope,
)
from .dn import DN
from .entry import Entry
from .executor import CancelToken
from .filter import Matcher, compile_filter
from .protocol import (
    AddRequest,
    LdapResult,
    ModifyRequest,
    RawEntry,
    ResultCode,
    SearchRequest,
)
from .schema import SchemaError

__all__ = [
    "RequestContext",
    "SearchOutcome",
    "SearchHandle",
    "stream_outcome",
    "ChangeType",
    "Subscription",
    "SubscriptionTable",
    "Backend",
    "DitBackend",
]


@dataclass
class RequestContext:
    """Who is asking, when, and with which request controls."""

    identity: str = "anonymous"
    now: float = 0.0
    peer: Optional[Tuple[str, int]] = None
    # Raw request controls, so backends can honor ones the front end
    # does not consume itself (e.g. the GIIS chaining-depth control).
    controls: Tuple = ()
    # Per-request trace span (repro.obs.trace.Span) when the front end
    # runs with a tracer; backends open children off it for their hops.
    trace: Optional[object] = None
    # Cancellation/deadline carrier; backends check it to stop in-flight
    # work on Abandon, Unbind, disconnect, or time limit expiry.  The
    # front end supplies one per search; any other caller gets a fresh
    # token nobody else can cancel.
    token: CancelToken = field(default_factory=CancelToken)
    # True when the front end will serve this request's results verbatim
    # (transparent access policy, no attribute selection, not typesOnly):
    # streaming backends may then emit undecoded
    # :class:`~repro.ldap.protocol.RawEntry` frames for the server to
    # relay without re-encoding.  False means every streamed result must
    # be a decoded :class:`~repro.ldap.entry.Entry`.
    transparent: bool = False

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled


@dataclass
class SearchOutcome:
    """How a search ended; ``entries`` is empty when they were streamed."""

    entries: List[Entry] = field(default_factory=list)
    referrals: List[str] = field(default_factory=list)
    result: LdapResult = field(default_factory=LdapResult)


class ChangeType:
    """Persistent-search change types (draft-ietf-ldapext-psearch)."""

    ADD = 1
    DELETE = 2
    MODIFY = 4
    ALL = ADD | DELETE | MODIFY


class Subscription:
    """Handle for one persistent-search registration."""

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self.active = True

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self._cancel()


# Signature of the push callback handed to Backend.subscribe: the backend
# calls it with (entry, change_type) for every matching change.
ChangeCallback = Callable[[Entry, int], None]


class SubscriptionTable:
    """The persistent searches open on one backend.

    Each subscription's base is parsed and its filter compiled once, when
    it is made.  :meth:`notify` pushes outside the table's lock, so a
    push may cancel its own subscription.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: Dict[int, Tuple[DN, Scope, Matcher, int, ChangeCallback]] = {}
        self._keys = itertools.count()

    def __len__(self) -> int:
        return len(self._subs)

    def subscribe(
        self, req: SearchRequest, push: ChangeCallback, change_types: int
    ) -> Subscription:
        try:
            base = req.base_dn()
        except ValueError:
            # Nothing is in scope of a base that does not parse (the
            # front end refuses one before it gets here).
            return Subscription(lambda: None)
        key = next(self._keys)
        with self._lock:
            self._subs[key] = (base, req.scope, compile_filter(req.filter), change_types, push)
        return Subscription(lambda: self._drop(key))

    def _drop(self, key: int) -> None:
        with self._lock:
            self._subs.pop(key, None)

    def notify(self, entry: Entry, change: int) -> None:
        with self._lock:
            subs = list(self._subs.values())
        for base, scope, match, change_types, push in subs:
            if not change_types & change or not in_scope(entry.dn, base, scope):
                continue
            # DELETE notifications match on scope only: the entry's final
            # attribute state is gone, so the filter cannot be applied.
            if change != ChangeType.DELETE and not match(entry):
                continue
            push(entry.copy(), change)


class SearchHandle:
    """Handle for one in-flight backend search.

    Returned by :meth:`Backend.submit_search_stream`; :meth:`cancel`
    aborts the work via the request's
    :class:`~repro.ldap.executor.CancelToken` (a GIIS stops waiting on
    chained children, a GRIS stops dispatching providers).  After
    cancellation neither callback fires again — cancellers must not
    wait for ``on_done``.
    """

    __slots__ = ("token",)

    def __init__(self, token: CancelToken):
        self.token = token

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    def cancel(self, reason: str = "cancelled") -> None:
        self.token.cancel(reason)


def stream_outcome(
    outcome: SearchOutcome,
    ctx: RequestContext,
    on_entry: Callable[[object], None],
    on_done: Callable[[SearchOutcome], None],
) -> SearchHandle:
    """Deliver an answer already in hand through the stream contract,
    on the calling thread; a cancelled ``ctx.token`` stops delivery."""
    token = ctx.token
    for entry in outcome.entries:
        if token.cancelled:
            break
        on_entry(entry)
    if not token.cancelled:
        on_done(SearchOutcome(referrals=outcome.referrals, result=outcome.result))
    return SearchHandle(token)


class Backend:
    """Interface every server backend implements.

    :meth:`submit_search_stream` is the one search contract: the front
    end, every router and every chaining parent call it and nothing
    else.  A backend that answers from local state implements the
    synchronous :meth:`_search_impl` hook and inherits a stream that
    runs it on the calling thread; one that gathers results from
    *remote* services (the GIIS chaining to its registered providers,
    §10.4) implements :meth:`submit_search_stream` itself.

    The default write/subscribe implementations refuse, so read-only
    information providers only implement the search hook.
    """

    def _search_impl(self, req: SearchRequest, ctx: RequestContext) -> SearchOutcome:
        """The whole answer at once, for the default stream to deliver;
        callers go through :meth:`submit_search_stream`."""
        raise NotImplementedError

    def naming_contexts(self) -> List[str]:
        """Suffixes this backend serves (advertised in the root DSE)."""
        return []

    def submit_search_stream(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        on_entry: Callable[[object], None],
        on_done: Callable[[SearchOutcome], None],
    ) -> SearchHandle:
        """Start one search, delivering results incrementally.

        Guarantees every implementation gives its caller:

        * *on_entry* fires once per result — an :class:`~.entry.Entry`,
          or a :class:`~repro.ldap.protocol.RawEntry` (an undecoded
          child frame) only when ``ctx.transparent`` allows it;
        * *on_done* fires exactly once, after the last entry, with the
          terminal outcome: result code and referrals, ``entries``
          empty.  It may fire before this method returns (local
          backends) or later on another thread (remote ones);
        * callbacks are serialized — a backend gathering results on
          several threads never invokes them concurrently;
        * cancelling ``ctx.token`` stops delivery: neither callback
          fires afterwards, and in-flight remote work is abandoned.
        """
        return stream_outcome(self._search_impl(req, ctx), ctx, on_entry, on_done)

    def search(self, req: SearchRequest, ctx: RequestContext) -> SearchOutcome:
        """Synchronous convenience: collect the stream into one outcome.

        Only a backend that concludes before
        :meth:`submit_search_stream` returns can be read this way; one
        with remote work still in flight is cancelled and answered
        ``BUSY`` rather than blocking the caller.
        """
        entries: List[Entry] = []
        done: List[SearchOutcome] = []
        self.submit_search_stream(
            req,
            ctx,
            lambda item: entries.append(
                item.to_entry() if isinstance(item, RawEntry) else item
            ),
            done.append,
        )
        if not done:
            ctx.token.cancel("synchronous caller cannot wait")
            return SearchOutcome(
                result=LdapResult(
                    ResultCode.BUSY,
                    message="backend did not conclude synchronously; "
                    "use submit_search_stream",
                )
            )
        return SearchOutcome(entries, done[0].referrals, done[0].result)

    def add(self, req: AddRequest, ctx: RequestContext) -> LdapResult:
        return LdapResult(ResultCode.UNWILLING_TO_PERFORM, message="read-only backend")

    def modify(self, req: ModifyRequest, ctx: RequestContext) -> LdapResult:
        return LdapResult(ResultCode.UNWILLING_TO_PERFORM, message="read-only backend")

    def delete(self, dn: str, ctx: RequestContext) -> LdapResult:
        return LdapResult(ResultCode.UNWILLING_TO_PERFORM, message="read-only backend")

    def subscribe(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        push: ChangeCallback,
        change_types: int = ChangeType.ALL,
    ) -> Optional[Subscription]:
        """Register for change notification; None = unsupported."""
        return None


class DitBackend(Backend):
    """A backend over an in-process DIT with change notification."""

    def __init__(self, dit: Optional[DIT] = None):
        # NB: an empty DIT is falsy (__len__), so test identity, not truth.
        self.dit = dit if dit is not None else DIT()
        self._subscriptions = SubscriptionTable()

    # -- reads ---------------------------------------------------------------

    def _search_impl(self, req: SearchRequest, ctx: RequestContext) -> SearchOutcome:
        try:
            base = req.base_dn()
        except Exception:
            return SearchOutcome(
                result=LdapResult(ResultCode.PROTOCOL_ERROR, message="bad base DN")
            )
        try:
            # The front end applies the authoritative filter after access
            # control; the backend pre-filters as an optimization but may
            # return supersets (e.g. cached providers, §10.3).
            entries = self.dit.search(
                base, req.scope, req.filter, attrs=None,
                size_limit=req.size_limit,
            )
        except NoSuchEntry:
            return SearchOutcome(
                result=LdapResult(
                    ResultCode.NO_SUCH_OBJECT, matched_dn=str(base)
                )
            )
        except SizeLimitExceeded as exc:
            # LDAP sizeLimitExceeded still delivers the first `limit`
            # entries; the DIT carries them on the exception.
            return SearchOutcome(
                entries=exc.partial,
                result=LdapResult(ResultCode.SIZE_LIMIT_EXCEEDED),
            )
        return SearchOutcome(entries=entries)

    # -- writes --------------------------------------------------------------

    def add(self, req: AddRequest, ctx: RequestContext) -> LdapResult:
        entry = req.to_entry()
        try:
            self.dit.add(entry)
        except EntryExists:
            return LdapResult(ResultCode.ENTRY_ALREADY_EXISTS, matched_dn=req.dn)
        except SchemaError as exc:
            return LdapResult(ResultCode.OBJECT_CLASS_VIOLATION, message=str(exc))
        except DitError as exc:
            return LdapResult(ResultCode.OTHER, message=str(exc))
        self._subscriptions.notify(entry, ChangeType.ADD)
        return LdapResult()

    def modify(self, req: ModifyRequest, ctx: RequestContext) -> LdapResult:
        def apply(entry: Entry) -> None:
            for kind, attr, values in req.changes:
                if kind == ModifyRequest.OP_ADD:
                    for v in values:
                        entry.add_value(attr, v)
                elif kind == ModifyRequest.OP_DELETE:
                    if values:
                        for v in values:
                            entry.remove_value(attr, v)
                    else:
                        entry.remove_attr(attr)
                elif kind == ModifyRequest.OP_REPLACE:
                    entry.put(attr, list(values))
                else:
                    raise DitError(f"unknown modify op {kind}")

        try:
            updated = self.dit.modify(DN.parse(req.dn), apply)
        except NoSuchEntry:
            return LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=req.dn)
        except SchemaError as exc:
            return LdapResult(ResultCode.OBJECT_CLASS_VIOLATION, message=str(exc))
        except DitError as exc:
            return LdapResult(ResultCode.OTHER, message=str(exc))
        self._subscriptions.notify(updated, ChangeType.MODIFY)
        return LdapResult()

    def delete(self, dn: str, ctx: RequestContext) -> LdapResult:
        try:
            parsed = DN.parse(dn)
            entry = self.dit.get(parsed)
            self.dit.delete(parsed)
        except NoSuchEntry:
            return LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=dn)
        except DitError as exc:
            return LdapResult(ResultCode.UNWILLING_TO_PERFORM, message=str(exc))
        self._subscriptions.notify(entry, ChangeType.DELETE)
        return LdapResult()

    # -- subscriptions ----------------------------------------------------------

    def subscribe(
        self,
        req: SearchRequest,
        ctx: RequestContext,
        push: ChangeCallback,
        change_types: int = ChangeType.ALL,
    ) -> Subscription:
        return self._subscriptions.subscribe(req, push, change_types)

    def subscription_count(self) -> int:
        return len(self._subscriptions)
