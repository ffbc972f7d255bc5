"""The LDAP server front end — MDS-2's "standard protocol interpreter".

Per §10.1 of the paper, "the interpreter handles all authentication,
data formatting, query interpretation, results filtering, network
connection management, and dispatch to the appropriate backend", and
per §10.3 result filtering "is not a performance optimization, but a
necessary step to ensure that the protocol's search semantics are
implemented correctly" — backends (cached providers especially) may
return supersets.

Responsibilities here:

* decode/encode LDAPMessages on any :class:`~repro.net.transport.Connection`;
* binds via a pluggable :class:`~repro.security.sasl.Authenticator`;
* per-request access control via an :class:`~repro.security.acl.AccessPolicy`
  (filter evaluation happens on the *policy-visible* entry, so restricted
  attributes are neither returned nor searchable — no oracle leaks);
* authoritative filter matching, attribute selection, size limits;
* persistent-search subscriptions and Abandon;
* dispatch of everything else to the :class:`~repro.ldap.backend.Backend`.

Execution model (the §10.1 interpreter under load): message decode and
connection state stay on the transport reader thread, but *search*
execution is submitted to a :class:`~repro.ldap.executor.RequestExecutor`
— a bounded worker pool.  Binds, unbinds, writes, and Abandons remain
serialized on the reader thread (so authentication state changes are
ordered with respect to the requests that follow them), while searches
on one connection run concurrently: a slow GIIS fan-out or GRIS provider
probe no longer head-of-line blocks the Abandon meant to cancel it.
Queue overflow answers ``BUSY`` (backpressure, not stalling); each
search carries a deadline derived from the LDAP ``timeLimit`` and the
server-wide default, answering ``TIME_LIMIT_EXCEEDED`` on expiry; and a
:class:`~repro.ldap.executor.CancelToken` threaded through the
:class:`~repro.ldap.backend.RequestContext` lets Abandon/Unbind/close
stop in-flight backend work instead of letting it run to completion.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..net.clock import Clock, WallClock
from ..net.transport import Connection, ConnectionClosed
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..security.acl import ANONYMOUS, AccessPolicy, open_policy
from ..security.gsi import AuthError
from ..security.sasl import AnonymousOnly, Authenticator
from .backend import Backend, ChangeType, RequestContext, Subscription
from .dit import Scope
from .dn import DN, DNError, intern_cache_stats
from .entry import Entry
from .executor import CancelToken, RequestExecutor
from .filter import compile_filter
from .protocol import (
    AbandonRequest,
    AddRequest,
    AddResponse,
    BindRequest,
    BindResponse,
    Control,
    DeleteRequest,
    DeleteResponse,
    ExtendedRequest,
    ExtendedResponse,
    LdapMessage,
    LdapResult,
    ModifyRequest,
    ModifyResponse,
    ProtocolError,
    RawEntry,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    SearchResultReference,
    TRACE_CONTEXT_OID,
    TraceContext,
    UnbindRequest,
    decode_message,
    encode_message,
    encode_message_id,
    encode_message_with_op,
    encode_search_entry,
)
from .psearch import EntryChangeNotification, PersistentSearchControl

__all__ = ["LdapServer", "WHOAMI_OID"]

WHOAMI_OID = "1.3.6.1.4.1.4203.1.11.3"
VENDOR_NAME = "repro-mds2"

# The response op that answers each request op that has one.
_RESPONSE_TO = {
    SearchRequest: SearchResultDone,
    BindRequest: BindResponse,
    AddRequest: AddResponse,
    ModifyRequest: ModifyResponse,
    DeleteRequest: DeleteResponse,
}


def _authz_id(identity: str) -> str:
    """The RFC 4513 authzId naming *identity*: "" for anonymous, else
    ``dn:`` before a distinguished name and ``u:`` before any other name."""
    if identity == ANONYMOUS:
        return ""
    try:
        return f"u:{identity}" if DN.parse(identity).is_root() else f"dn:{identity}"
    except DNError:
        return f"u:{identity}"


class LdapServer:
    """A transport-agnostic LDAP server.

    Attach to any listener via :meth:`handle_connection`::

        server = LdapServer(backend)
        node.listen(2135, server.handle_connection)       # simulator
        endpoint.listen(2135, server.handle_connection)   # real TCP
    """

    def __init__(
        self,
        backend: Backend,
        authenticator: Optional[Authenticator] = None,
        policy: Optional[AccessPolicy] = None,
        clock: Optional[Clock] = None,
        allow_anonymous_writes: bool = True,
        name: str = "ldap-server",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        executor: Optional[RequestExecutor] = None,
        default_time_limit: float = 0.0,
    ):
        self.backend = backend
        self.authenticator = authenticator or AnonymousOnly()
        self.policy = policy or open_policy()
        self.clock = clock or WallClock()
        self.allow_anonymous_writes = allow_anonymous_writes
        self.name = name
        # Server-side ceiling on search execution time (seconds); the
        # effective deadline is the tighter of this and the request's
        # own timeLimit.  0 = no server-imposed limit.
        self.default_time_limit = default_time_limit
        # Per-operation counters and latency histograms live on the
        # metrics registry (share one across components to aggregate a
        # whole process under cn=monitor).
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self._connections = self.metrics.counter("ldap.connections")
        self._protocol_errors = self.metrics.counter("ldap.protocol.errors")
        self._trace_malformed = self.metrics.counter("trace.context.malformed")
        self._entries_returned = self.metrics.counter("ldap.entries.returned")
        self._entries_suppressed = self.metrics.counter("ldap.entries.suppressed")
        self._requests = {
            op: self.metrics.counter("ldap.requests", {"op": op})
            for op in ("search", "bind", "add", "modify", "delete")
        }
        self._latency = {
            op: self.metrics.histogram("ldap.request.seconds", {"op": op})
            for op in ("search", "bind", "add", "modify", "delete")
        }
        # Search execution happens off the reader thread on this pool;
        # the default inline executor (workers=0) preserves synchronous
        # single-threaded semantics for the simulator and embedded use.
        self.executor = (
            executor
            if executor is not None
            else RequestExecutor(
                workers=0, metrics=self.metrics, clock=self.clock, name=name
            )
        )
        self._search_rejected = self.metrics.counter("ldap.search.rejected")
        self._search_expired = self.metrics.counter("ldap.search.deadline_expired")
        # Wire-path visibility: per-entry encode cache, codec traffic
        # and the DN intern cache.
        self._codec_messages = self.metrics.counter("ldap.codec.messages")
        self._codec_bytes = self.metrics.counter("ldap.codec.bytes")
        self._encode_hits = self.metrics.counter("ldap.encode.cache.hits")
        self._encode_misses = self.metrics.counter("ldap.encode.cache.misses")
        self._encode_uncached = self.metrics.counter("ldap.encode.cache.uncached")
        # Entries relayed as raw child frames (zero decode/re-encode) —
        # a subset of ldap.entries.returned.
        self._entries_relayed = self.metrics.counter("ldap.entries.relayed")
        for key in ("size", "hits", "misses", "evictions"):
            self.metrics.gauge_fn(
                f"ldap.dn.cache.{key}",
                lambda k=key: float(intern_cache_stats()[k]),
            )

    def observe_result(self, op: str, code: int, started: float) -> None:
        """Record one finished operation: result-code count + latency."""
        self.metrics.counter("ldap.results", {"op": op, "code": int(code)}).inc()
        self._latency[op].observe(self.clock.now() - started)

    def observe_cancelled(self, reason: str) -> None:
        """Count one in-flight search cancelled before completion."""
        self.metrics.counter("ldap.search.cancelled", {"reason": reason}).inc()

    def handle_connection(self, conn: Connection) -> None:
        self._connections.inc()
        _ServerConnection(self, conn)


class _InFlightSearch:
    """Conclude-once bookkeeping for one search being executed."""

    __slots__ = ("token", "started", "timer")

    def __init__(self, token: CancelToken, started: float):
        self.token = token
        self.started = started
        self.timer = None  # deadline TimerHandle, when armed


def _done_frame(msg_id: int, result: LdapResult) -> bytes:
    return encode_message(LdapMessage(msg_id, SearchResultDone(result)))


# An answer in hand is written early once its gathered frames reach
# this many bytes, so a long answer neither waits for its end nor piles
# up in memory.
_GATHER_BYTES = 64 * 1024

# How an entry's frame was made; indexes _Answer.batch and .tally.
_SLOW, _RELAYED, _HIT, _MISS, _UNCACHED = range(5)


class _Answer:
    """One search's response frames on their way to the wire.

    While the backend call that started the search runs, its answer is
    *in hand*: the first entry is written alone, so time to first entry
    does not wait for the rest; later frames are gathered and written
    with the references and the SearchResultDone in one ``send_all``
    once the search has claimed its conclusion (early, at
    ``_GATHER_BYTES``).  Frames offered after the call returned (chained
    children) are written as they come.  Frames still unwritten when
    another path concluded the search are dropped, so nothing follows
    that path's Done.

    A thread that finds no write in progress writes everything queued,
    in order, outside the lock; any other thread only queues.  Writes
    thus keep offer order across threads without a lock held over a
    socket write (whose failure runs the close handler).  The entries
    written are tallied by kind and reach the counters with counts: for
    an answer in hand once, just before its last write.
    """

    __slots__ = (
        "conn", "msg_id", "head", "lock", "frames", "size", "batch", "tally",
        "accepted", "gathering", "writing", "concluded",
    )

    def __init__(self, conn: "_ServerConnection", msg_id: int):
        self.conn = conn
        self.msg_id = msg_id
        self.head = encode_message_id(msg_id)
        self.lock = threading.Lock()
        self.frames: List[bytes] = []  # queued, not yet written
        self.size = 0  # bytes in frames
        self.batch = [0, 0, 0, 0, 0]  # entries in frames, by kind
        self.tally = [0, 0, 0, 0, 0]  # entries written, not yet counted
        self.accepted = 0  # entries offered, for the size limit
        self.gathering = True
        self.writing = False
        self.concluded = False

    def entry(self, frame: bytes, kind: int) -> None:
        """Offer one SearchResultEntry frame, made as *kind* says."""
        with self.lock:
            self.accepted += 1
            if not (self.writing or self.frames) and (
                self.accepted == 1 or not self.gathering
            ):
                # Nothing queued: the first entry in hand, or a late
                # one, is written alone and at once.
                if not (self.concluded or self.msg_id in self.conn._inflight):
                    return
                self.tally[kind] += 1
                if not self.gathering:
                    self._count()
                self.writing = True
                alone = [frame]
            else:
                self.frames.append(frame)
                self.size += len(frame)
                self.batch[kind] += 1
                if self.writing or (self.gathering and self.size < _GATHER_BYTES):
                    return
                self.writing = True
                alone = None
        if alone is not None:
            self.conn._send_all(alone)
        self._drain()

    def claim(self) -> bool:
        """Claim the search's conclusion for this answer; False when
        another path concluded it.  Claimed under the lock, so no write
        finds the search neither in flight nor concluded here and drops
        frames this answer still owes."""
        with self.lock:
            if self.conn._take_inflight(self.msg_id) is None:
                return False
            self.concluded = True
            return True

    def finish(self, frames: List[bytes]) -> None:
        """Write what is queued and then *frames*; the caller has
        :meth:`claim`-ed the search's conclusion."""
        with self.lock:
            self.frames += frames
            if self.writing:
                return
            self.writing = True
        self._drain()

    def returned(self) -> None:
        """The backend call returned: write what it left gathered."""
        with self.lock:
            self.gathering = False
            if self.writing:
                return
            if not self.frames:
                self._count()
                return
            self.writing = True
        self._drain()

    def _drain(self) -> None:
        """Write what is queued until nothing is; the caller set ``writing``."""
        while True:
            with self.lock:
                frames = self.frames
                if not frames:
                    self.writing = False
                    if not self.gathering:
                        self._count()
                    return
                live = self.concluded or self.msg_id in self.conn._inflight
                batch = self.batch
                self.frames, self.size, self.batch = [], 0, [0, 0, 0, 0, 0]
                if live:
                    tally = self.tally
                    for kind, count in enumerate(batch):
                        tally[kind] += count
                    if self.concluded or not self.gathering:
                        self._count()  # before the write a reader may wait on
            if live:
                self.conn._send_all(frames)

    def _count(self) -> None:
        """Move the tally to the counters; the caller holds the lock."""
        tally = self.tally
        total = sum(tally)
        if not total:
            return
        server = self.conn.server
        server._entries_returned.inc(total)
        if tally[_RELAYED]:
            server._entries_relayed.inc(tally[_RELAYED])
        if tally[_HIT]:
            server._encode_hits.inc(tally[_HIT])
        if tally[_MISS]:
            server._encode_misses.inc(tally[_MISS])
        if tally[_UNCACHED]:
            server._encode_uncached.inc(tally[_UNCACHED])
        self.tally = [0, 0, 0, 0, 0]


class _ServerConnection:
    """Per-connection protocol state machine.

    Threading: `_lock` serializes dispatch on the transport reader
    thread (decode order = processing order for bind/unbind/writes/
    Abandon).  Searches leave the reader thread via the server's
    executor, so `_ops_lock` guards the tables shared with worker
    threads and timer callbacks: in-flight searches and subscriptions.
    Each search concludes exactly once — whoever pops its record
    (completion, deadline expiry, Abandon, Unbind, or close) owns the
    response; everyone else drops theirs.
    """

    def __init__(self, server: LdapServer, conn: Connection):
        self.server = server
        self.conn = conn
        self.identity = ANONYMOUS
        self._lock = threading.Lock()  # serializes dispatch on TCP threads
        self._ops_lock = threading.Lock()  # guards the two tables below
        self._subscriptions: Dict[int, Subscription] = {}
        self._inflight: Dict[int, _InFlightSearch] = {}
        conn.set_close_handler(self._on_close)
        conn.set_receiver(self._on_message)

    # -- plumbing -----------------------------------------------------------

    def _send(self, message: LdapMessage) -> None:
        self._send_all([encode_message(message)])

    def _done(self, msg_id: int, code: int = ResultCode.SUCCESS, message: str = "") -> None:
        self._send_all([_done_frame(msg_id, LdapResult(code, message=message))])

    def _send_all(self, frames: List[bytes]) -> None:
        try:
            self.conn.send_all(frames)
        except ConnectionClosed:
            self._on_close()

    def _on_close(self) -> None:
        """Connection gone: drop subscriptions AND abandon in-flight work.

        Cancelling the in-flight tokens is what stops orphaned GIIS
        chain queries and GRIS provider dispatch for clients that
        disconnected mid-search.
        """
        with self._ops_lock:
            subscriptions = list(self._subscriptions.values())
            self._subscriptions.clear()
            inflight = list(self._inflight.values())
            self._inflight.clear()
        for sub in subscriptions:
            sub.cancel()
        for record in inflight:
            if record.timer is not None:
                record.timer.cancel()
            record.token.cancel("connection closed")
            self.server.observe_cancelled("disconnect")

    def _take_inflight(self, msg_id: int) -> Optional[_InFlightSearch]:
        """Claim the right to conclude *msg_id*; None = already concluded."""
        with self._ops_lock:
            record = self._inflight.pop(msg_id, None)
        if record is not None and record.timer is not None:
            record.timer.cancel()
        return record

    def _context(self, **request) -> RequestContext:
        return RequestContext(
            identity=self.identity,
            now=self.server.clock.now(),
            peer=self.conn.peer,
            **request,
        )

    def _on_message(self, raw: bytes) -> None:
        self.server._codec_messages.inc()
        self.server._codec_bytes.inc(len(raw))
        try:
            message = decode_message(raw)
        except ProtocolError:
            self.server._protocol_errors.inc()
            self.conn.close()
            self._on_close()
            return
        with self._lock:
            try:
                self._dispatch(message)
            except Exception as exc:  # noqa: BLE001 - never kill the server
                self._send_error_for(message, exc)

    def _send_error_for(self, message: LdapMessage, exc: Exception) -> None:
        response = _RESPONSE_TO.get(type(message.op))
        if response is not None:
            result = LdapResult(ResultCode.OTHER, message=f"internal error: {exc}")
            self._send(LdapMessage(message.message_id, response(result)))

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, message: LdapMessage) -> None:
        op = message.op
        if isinstance(op, BindRequest):
            self._handle_bind(message.message_id, op)
        elif isinstance(op, UnbindRequest):
            self._on_close()
            self.conn.close()
        elif isinstance(op, SearchRequest):
            self._handle_search(message.message_id, op, message.controls)
        elif isinstance(op, AddRequest):
            self._handle_write(
                message.message_id,
                AddResponse,
                lambda ctx: self.server.backend.add(op, ctx),
                "add",
            )
        elif isinstance(op, ModifyRequest):
            self._handle_write(
                message.message_id,
                ModifyResponse,
                lambda ctx: self.server.backend.modify(op, ctx),
                "modify",
            )
        elif isinstance(op, DeleteRequest):
            self._handle_write(
                message.message_id,
                DeleteResponse,
                lambda ctx: self.server.backend.delete(op.dn, ctx),
                "delete",
            )
        elif isinstance(op, AbandonRequest):
            self._abandon(op.message_id)
        elif isinstance(op, ExtendedRequest):
            self._handle_extended(message.message_id, op)
        else:
            # A response op arriving at a server is a protocol violation.
            self.server._protocol_errors.inc()
            self.conn.close()
            self._on_close()

    def _abandon(self, target_id: int) -> None:
        """Abandon a persistent search or an in-flight operation.

        No response in either case (RFC 4511 §4.11); cancelling the
        token makes the backend stop chaining/dispatching and makes the
        eventual completion callback a silent no-op.
        """
        with self._ops_lock:
            sub = self._subscriptions.pop(target_id, None)
        if sub is not None:
            sub.cancel()
            return
        record = self._take_inflight(target_id)
        if record is not None:
            record.token.cancel("abandoned")
            self.server.observe_cancelled("abandon")

    def _handle_bind(self, msg_id: int, op: BindRequest) -> None:
        self.server._requests["bind"].inc()
        started = self.server.clock.now()
        try:
            outcome = self.server.authenticator.authenticate(
                op.name, op.mechanism, op.credentials, self.server.clock.now()
            )
        except AuthError as exc:
            self.identity = ANONYMOUS
            code = ResultCode.INVALID_CREDENTIALS
            self.server.observe_result("bind", code, started)
            self._send(LdapMessage(msg_id, BindResponse(LdapResult(code, message=str(exc)))))
            return
        self.identity = outcome.identity
        self.server.observe_result("bind", ResultCode.SUCCESS, started)
        self._send(LdapMessage(msg_id, BindResponse(LdapResult(), outcome.server_credentials)))

    def _handle_write(
        self,
        msg_id: int,
        response_cls,
        action: Callable[[RequestContext], LdapResult],
        op: str,
    ) -> None:
        self.server._requests[op].inc()
        started = self.server.clock.now()
        if self.identity == ANONYMOUS and not self.server.allow_anonymous_writes:
            result = LdapResult(
                ResultCode.INSUFFICIENT_ACCESS_RIGHTS,
                message="writes require authentication",
            )
        else:
            result = action(self._context())
        self.server.observe_result(op, result.code, started)
        self._send(LdapMessage(msg_id, response_cls(result)))

    def _handle_extended(self, msg_id: int, op: ExtendedRequest) -> None:
        if op.oid == WHOAMI_OID:
            # RFC 4532: no responseName, and the authzId as the value.
            response = ExtendedResponse(value=_authz_id(self.identity).encode("utf-8"))
        else:
            unsupported = f"unsupported extended op {op.oid}"
            response = ExtendedResponse(LdapResult(ResultCode.PROTOCOL_ERROR, message=unsupported))
        self._send(LdapMessage(msg_id, response))

    # -- search ---------------------------------------------------------------

    def _visible(
        self, req: SearchRequest, entry: Entry, match=None
    ) -> Optional[Entry]:
        """Access control + authoritative filter + attribute selection.

        The filter is evaluated against the policy-visible entry so a
        query cannot probe values of attributes it may not read.
        *match* is the request's compiled filter when the caller holds
        one (the per-entry search loops); it falls back to the AST.
        """
        visible = self.server.policy.filter_entry(self.identity, entry)
        if visible is None:
            self.server._entries_suppressed.inc()
            return None
        if match is None:
            match = req.filter.matches
        if not match(visible):
            return None
        return visible.project(req.wants())

    def _root_dse(self) -> Entry:
        """The server-descriptive entry at the empty DN (RFC 4512 §5.1).

        Lets clients discover which suffixes a server holds — the
        automated end of the §9 configuration story.
        """
        from .psearch import PSEARCH_OID

        dse = Entry(DN.root(), objectclass=["top", "extensibleobject"])
        contexts = self.server.backend.naming_contexts()
        if contexts:
            dse.put("namingcontexts", contexts)
        dse.put("supportedcontrol", [PSEARCH_OID])
        dse.put("supportedextension", [WHOAMI_OID])
        dse.put("vendorname", VENDOR_NAME)
        dse.put("servername", self.server.name)
        return dse

    def _wire_entry(self, req: SearchRequest, entry: Entry) -> SearchResultEntry:
        sre = SearchResultEntry.from_entry(entry)
        if req.types_only:
            sre = SearchResultEntry(
                sre.dn, tuple((attr, ()) for attr, _ in sre.attributes)
            )
        return sre

    def _fast_lane(self, req: SearchRequest) -> bool:
        """Whether this search may serve cached whole-entry encodings.

        Eligible when the response is the entry verbatim: no attribute
        selection, no typesOnly, and a policy that is transparent for
        this identity (so the per-entry ACL rebuild is an identity
        transform).  The wire bytes are identical on both lanes; the
        fast lane just skips the per-client copy and re-encode.
        """
        return (
            not req.types_only
            and req.wants() is None
            and self.server.policy.is_transparent(self.identity)
        )

    def _deadline_for(self, req: SearchRequest, now: float) -> Optional[float]:
        """Absolute deadline: tighter of the request's timeLimit and the
        server default; None when neither bounds the search."""
        limits = [
            float(limit)
            for limit in (req.time_limit, self.server.default_time_limit)
            if limit and limit > 0
        ]
        return (now + min(limits)) if limits else None

    def _handle_search(
        self, msg_id: int, req: SearchRequest, controls: Tuple[Control, ...]
    ) -> None:
        """Admit one search: bookkeeping and executor hand-off.

        Runs on the reader thread and must stay cheap — the actual work
        happens in :meth:`_execute_search` on the executor (inline when
        the pool has no workers).  Three exits: queued/executed, BUSY on
        queue overflow, or TIME_LIMIT_EXCEEDED if the deadline timer
        wins the race before execution concludes.
        """
        self.server._requests["search"].inc()
        started = self.server.clock.now()
        token = CancelToken(deadline=self._deadline_for(req, started))
        ctx = self._context(controls=controls, token=token)
        record = _InFlightSearch(token, started)
        with self._ops_lock:
            self._inflight[msg_id] = record
        if token.deadline is not None:
            record.timer = self.server.clock.call_later(
                token.deadline - started,
                lambda: self._deadline_expired(msg_id),
            )
        accepted = self.server.executor.submit(
            lambda: self._run_search_safely(msg_id, req, ctx, started)
        )
        if not accepted:
            # Backpressure: refuse fast instead of stalling the client.
            record = self._take_inflight(msg_id)
            if record is None:
                return  # deadline fired first and already answered
            record.token.cancel("queue full")
            self.server._search_rejected.inc()
            self.server.observe_result("search", ResultCode.BUSY, started)
            self._done(msg_id, ResultCode.BUSY, "server busy: request queue full")

    def _run_search_safely(
        self, msg_id: int, req: SearchRequest, ctx: RequestContext, started: float
    ) -> None:
        """Executor entry point: a crashing search answers OTHER, never
        leaves the message id dangling or kills its worker."""
        try:
            self._execute_search(msg_id, req, ctx, started)
        except Exception as exc:  # noqa: BLE001 - never kill the server
            if self._take_inflight(msg_id) is None:
                return
            self.server.observe_result("search", ResultCode.OTHER, started)
            self._done(msg_id, ResultCode.OTHER, f"internal error: {exc}")

    def _deadline_expired(self, msg_id: int) -> None:
        record = self._take_inflight(msg_id)
        if record is None:
            return  # completed (or was abandoned) just in time
        record.token.cancel("time limit exceeded")
        self.server._search_expired.inc()
        code = ResultCode.TIME_LIMIT_EXCEEDED
        self.server.observe_result("search", code, record.started)
        self._done(msg_id, code, "search exceeded its time limit")

    def _execute_search(
        self,
        msg_id: int,
        req: SearchRequest,
        ctx: RequestContext,
        started: float,
    ) -> None:
        """Execute one admitted search (executor worker or inline).

        Every response path must first claim the in-flight record via
        :meth:`_take_inflight` (through :meth:`_Answer.claim` once the
        answer exists); a failed claim means the deadline timer, an
        Abandon, or a close already concluded this message id and the
        outcome is dropped.
        """
        token = ctx.token
        if token.cancelled:
            return  # cancelled while queued

        # Root DSE: BASE search at the empty DN describes the server.
        if req.scope == Scope.BASE and not req.base.strip():
            if self._take_inflight(msg_id) is None:
                return
            dse = self._root_dse()
            if req.filter.matches(dse):
                self.server._entries_returned.inc()
                self._send(
                    LdapMessage(
                        msg_id, self._wire_entry(req, dse.project(req.wants()))
                    )
                )
            self.server.observe_result("search", ResultCode.SUCCESS, started)
            self._done(msg_id)
            return
        try:
            psc = PersistentSearchControl.find(ctx.controls)
        except Exception:
            psc, refusal = None, "malformed persistent search control"
        else:
            refusal = None
            if psc is not None:
                # Refused before anything runs or is subscribed: a
                # changes-only search would never consult the backend.
                try:
                    req.base_dn()
                except ValueError:
                    refusal = "bad base DN"
        if refusal is not None:
            if self._take_inflight(msg_id) is None:
                return
            self.server.observe_result("search", ResultCode.PROTOCOL_ERROR, started)
            self._done(msg_id, ResultCode.PROTOCOL_ERROR, refusal)
            return

        span = None
        if self.server.tracer is not None:
            # Parent the root span on the remote caller when the request
            # carries a trace-context control; the control is
            # non-critical, so a malformed payload is counted and the
            # search proceeds with a fresh local trace.
            remote = None
            for control in ctx.controls or ():
                if control.oid == TRACE_CONTEXT_OID:
                    try:
                        tc = TraceContext.from_control(control)
                        remote = (tc.trace_id, tc.parent_span_id, tc.sampled)
                    except ProtocolError:
                        self.server._trace_malformed.inc()
                    break
            span = self.server.tracer.start(
                "ldap.search",
                remote=remote,
                base=req.base,
                scope=int(req.scope),
                filter=str(req.filter),
            )
            ctx.trace = span

        answer = _Answer(self, msg_id)

        def after_initial(tail: List[bytes]) -> None:
            """Conclude a claimed search: write *tail* after the entries,
            then the Done, or open the persistent search instead."""
            if psc is None:
                answer.finish(tail + [_done_frame(msg_id, LdapResult())])
                return
            answer.finish(tail)
            sub = self.server.backend.subscribe(
                req, ctx, self._pusher(msg_id, req, psc), psc.change_types
            )
            if sub is None:
                refused = LdapResult(
                    ResultCode.UNWILLING_TO_PERFORM,
                    message="subscriptions not supported by backend",
                )
                answer.finish([_done_frame(msg_id, refused)])
                return
            with self._ops_lock:
                self._subscriptions[msg_id] = sub
            if self.conn.closed:
                # Lost the race with a disconnect: _on_close may
                # already have swept the table before we registered.
                with self._ops_lock:
                    sub = self._subscriptions.pop(msg_id, None)
                if sub is not None:
                    sub.cancel()
            # No SearchResultDone: the search stays open until Abandon.

        def conclude(code: int) -> None:
            self.server.observe_result("search", code, started)
            if span is not None:
                span.tag("entries", answer.accepted).tag("code", code).finish()

        # Streaming delivery: the backend pushes results one at a time
        # into the answer, which writes the first entry at once and,
        # while the backend call runs, gathers the rest for one write
        # with the Done (see _Answer) — the first entry reaches the wire
        # before the backend finishes producing, and a chaining GIIS's
        # children are written as they answer.
        #
        # On the fast lane the ACL rebuild is an identity transform, so
        # only the (still authoritative) filter match runs per entry and
        # the encoded body can come from the entry's cache cell.  A
        # RawEntry is the relay case: its frame came verbatim from an
        # authoritative child that already ran this same filter and a
        # transparent policy, so it is re-framed under our message id
        # with zero decode and zero re-encode.  All lanes produce the
        # same bytes.
        fast = self._fast_lane(req)
        ctx.transparent = fast
        match = compile_filter(req.filter)
        head = answer.head

        def over_limit() -> bool:
            """Conclude with sizeLimitExceeded on the (limit+1)-th
            visible entry; cancelling the token afterwards makes a
            chaining backend Abandon its outstanding children."""
            if not req.size_limit or answer.accepted < req.size_limit:
                return False
            if answer.claim():
                conclude(ResultCode.SIZE_LIMIT_EXCEEDED)
                exceeded = LdapResult(ResultCode.SIZE_LIMIT_EXCEEDED)
                answer.finish([_done_frame(msg_id, exceeded)])
                token.cancel("size limit satisfied")
            return True

        def on_entry(item) -> None:
            if token.cancelled:
                return
            if isinstance(item, RawEntry):
                if fast:
                    if not over_limit():
                        answer.entry(encode_message_with_op(head, item.op_bytes), _RELAYED)
                    return
                # The front end must project/filter after all: decode.
                entry = item.to_entry()
            else:
                entry = item
            if not fast:
                visible = self._visible(req, entry, match)
                if visible is not None and not over_limit():
                    sre = self._wire_entry(req, visible)
                    answer.entry(encode_message(LdapMessage(msg_id, sre)), _SLOW)
                return
            if not match(entry) or over_limit():
                return
            cell = entry._wire
            if cell is None:
                # Not served from a cacheable store (provider-generated,
                # GIIS-merged, projected): encode per response.
                body, kind = encode_search_entry(entry), _UNCACHED
            elif cell.body is None:
                body = cell.body = encode_search_entry(entry)
                kind = _MISS
            else:
                body, kind = cell.body, _HIT
            answer.entry(encode_message_with_op(head, body), kind)

        def on_done(outcome) -> None:
            if not answer.claim():
                # Deadline/Abandon/close/size-limit answered first:
                # drop silently.
                if span is not None:
                    span.tag("dropped", token.reason or True).finish()
                return
            if not outcome.result.ok:
                # A non-ok outcome ends the stream with the backend's
                # code after the partial entry set (sizeLimitExceeded).
                conclude(outcome.result.code)
                answer.finish([_done_frame(msg_id, outcome.result)])
                return
            conclude(ResultCode.SUCCESS)
            after_initial(
                [
                    encode_message(LdapMessage(msg_id, SearchResultReference((uri,))))
                    for uri in outcome.referrals
                ]
            )

        if psc is not None and psc.changes_only:
            if not answer.claim():
                return
            conclude(ResultCode.SUCCESS)
            after_initial([])
            return
        try:
            self.server.backend.submit_search_stream(req, ctx, on_entry, on_done)
        finally:
            answer.returned()

    def _pusher(
        self, msg_id: int, req: SearchRequest, psc: PersistentSearchControl
    ):
        def push(entry: Entry, change: int) -> None:
            if change == ChangeType.DELETE:
                # Deletes can't be filter-matched; report DN visibility only.
                visible = self.server.policy.filter_entry(self.identity, entry)
                if visible is None:
                    return
                projected = visible.project(req.wants())
            else:
                projected = self._visible(req, entry)
                if projected is None:
                    return
            controls: Tuple[Control, ...] = ()
            if psc.return_ecs:
                controls = (EntryChangeNotification(change).to_control(),)
            try:
                self.conn.send(
                    encode_message(
                        LdapMessage(msg_id, self._wire_entry(req, projected), controls)
                    )
                )
            except ConnectionClosed:
                with self._ops_lock:
                    sub = self._subscriptions.pop(msg_id, None)
                if sub is not None:
                    sub.cancel()

        return push
