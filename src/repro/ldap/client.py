"""LDAP client: the consumer side of GRIP.

The client is callback-driven so the same code runs on the simulator
(single-threaded, virtual time) and over TCP (callbacks on the
reactor's loop thread).  Every async method takes one completion
callback with the uniform signature
``on_done(outcome, error)``: *outcome* is always the accumulated
:class:`SearchResult` (entries/referrals/result), and *error* is
``None`` on success or the :class:`LdapError` describing a non-success
result code or transport failure.  Blocking convenience wrappers
(:meth:`LdapClient.search`, etc.) are provided for real transports and
for simulator use via a *driver* — a callable that pumps the simulation
until the operation completes.

``search_async``/``bind_async`` accept an optional ``deadline`` (in
seconds): it is stamped onto the wire request as the LDAP ``timeLimit``
(searches) so deadline-aware servers stop working at expiry, and — when
the client was built with a ``clock`` — also enforced locally, failing
the pending operation with ``TIME_LIMIT_EXCEEDED`` even against a
server that never answers.

Subscriptions (persistent search) deliver
:class:`~repro.ldap.entry.Entry` changes until cancelled; cancel sends
an Abandon.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..net.clock import Clock
from ..net.transport import Connection, ConnectionClosed
from .backend import ChangeType
from .ber import TAG_SEQUENCE, BerError, Tag, TlvReader, decode_tlv
from .dit import Scope
from .dn import DN
from .entry import Entry
from .filter import Filter, parse as parse_filter
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
    TraceContext,
    UnbindRequest,
    decode_message,
    encode_message,
)
from .psearch import EntryChangeNotification, PersistentSearchControl

__all__ = [
    "LdapError",
    "SearchResult",
    "SubscriptionHandle",
    "LdapClient",
    "DoneCallback",
]


class LdapError(Exception):
    """A non-success LDAP result, or a transport failure."""

    def __init__(self, result: LdapResult):
        super().__init__(result.describe())
        self.result = result

    @classmethod
    def transport(cls, message: str) -> "LdapError":
        return cls(LdapResult(ResultCode.OTHER, message=message))


@dataclass
class SearchResult:
    """Everything one search returned."""

    entries: List[Entry] = field(default_factory=list)
    referrals: List[str] = field(default_factory=list)
    result: LdapResult = field(default_factory=LdapResult)

    @property
    def ok(self) -> bool:
        return self.result.ok

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class SubscriptionHandle:
    """A live persistent search; cancel() abandons it.

    ``active`` turns False either locally (:meth:`cancel`) or when the
    server side concludes the search — a ``SearchResultDone`` answer or
    a connection loss failing all pendings.  A cancel after that is a
    no-op: sending an Abandon for a message id the server already
    concluded could cancel an unrelated future operation.
    """

    def __init__(self, client: "LdapClient", msg_id: int):
        self._client = client
        self._msg_id = msg_id
        self.active = True

    def cancel(self) -> None:
        if not self.active:
            return
        self.active = False
        self._client._abandon(self._msg_id)


# Uniform completion signature for every async client method: the
# accumulated result plus None, or the result-so-far plus the LdapError
# explaining why it is not a success.
DoneCallback = Callable[[SearchResult, Optional[LdapError]], None]


class _Pending:
    """Server-reply bookkeeping for one outstanding message id.

    Conclude-once contract: a pending is concluded by whoever *pops* it
    out of ``LdapClient._pending`` under the client lock — server reply,
    local deadline expiry, or connection-death ``_fail_all``.  Only the
    popper may call ``_complete``; a contender that finds the id already
    gone drops its outcome.  This is what makes a server answer racing a
    deadline timer deliver exactly one ``on_done``.
    """

    __slots__ = ("kind", "acc", "on_done", "on_change", "on_entry", "event",
                 "timer", "handle")

    def __init__(self, kind: str, on_done: Optional[DoneCallback] = None,
                 on_change=None, on_entry=None):
        self.kind = kind
        self.acc = SearchResult()
        self.on_done = on_done
        self.on_change = on_change
        self.on_entry = on_entry  # streaming search: per-entry callback
        self.event: Optional[threading.Event] = None
        self.timer = None  # local deadline TimerHandle, when armed
        self.handle: Optional[SubscriptionHandle] = None  # subscribe only


# A driver pumps progress while a blocking wrapper waits: for the
# simulator pass e.g. ``sim.run_for`` bound to small steps; for TCP the
# default None blocks on a threading.Event.
Driver = Callable[[], None]


class LdapClient:
    """One LDAP connection with request/response correlation.

    *clock* is optional and only needed for client-side ``deadline``
    enforcement; without it a deadline still travels on the wire as the
    search ``timeLimit`` but a dead server is only detected by the
    blocking wrappers' own timeout.
    """

    def __init__(
        self,
        conn: Connection,
        driver: Optional[Driver] = None,
        clock: Optional[Clock] = None,
    ):
        self.conn = conn
        self.driver = driver
        self.clock = clock
        self._next_id = 0
        self._pending: Dict[int, _Pending] = {}
        self._lock = threading.Lock()
        self.identity: Optional[str] = None
        self.closed = False
        conn.set_close_handler(self._on_close)
        conn.set_receiver(self._on_message)

    # -- low-level ----------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Operations in flight — the pool's least-loaded signal."""
        with self._lock:
            return len(self._pending)

    def _allocate(self, pending: _Pending) -> int:
        with self._lock:
            self._next_id += 1
            self._pending[self._next_id] = pending
            return self._next_id

    def _send(self, message: LdapMessage) -> None:
        try:
            self.conn.send(encode_message(message))
        except ConnectionClosed as exc:
            self._fail_all(str(exc))
            raise LdapError.transport(str(exc)) from exc

    def _on_close(self) -> None:
        self._fail_all("connection closed")

    def _fail_all(self, why: str) -> None:
        self.closed = True
        with self._lock:
            pending, self._pending = dict(self._pending), {}
        failure = LdapResult(ResultCode.OTHER, message=why)
        for p in pending.values():
            p.acc.result = failure
            self._complete(p)

    def _complete(self, pending: _Pending) -> None:
        """Deliver one finished operation to its callback and waiter.

        Callers must have popped *pending* from ``_pending`` themselves
        (conclude-once): the pop is the claim, and exactly one claimant
        exists per message id.
        """
        if pending.timer is not None:
            pending.timer.cancel()
        if pending.handle is not None:
            # A concluded persistent search is dead server-side; a later
            # cancel() must not Abandon its (reusable) message id.
            pending.handle.active = False
        if pending.on_done:
            error = None if pending.acc.result.ok else LdapError(pending.acc.result)
            pending.on_done(pending.acc, error)
        if pending.event:
            pending.event.set()

    def _abandon(self, msg_id: int) -> None:
        with self._lock:
            self._pending.pop(msg_id, None)
        if not self.closed:
            try:
                self._send(LdapMessage(0, AbandonRequest(msg_id)))
            except LdapError:
                pass

    # Ops that conclude a pending operation; everything else streams.
    _TERMINAL_OPS = (
        SearchResultDone,
        BindResponse,
        AddResponse,
        ModifyResponse,
        DeleteResponse,
        ExtendedResponse,
    )

    # Identifier octet of a SearchResultEntry protocol op (APPLICATION 4,
    # constructed) — what the light peek below matches against.
    _ENTRY_OP_OCTET = Tag.application(SearchResultEntry.APP_TAG).octet

    def _on_message(self, raw: bytes) -> None:
        view = raw if type(raw) is memoryview else memoryview(raw)
        # Light peek: message id + op identifier octet, no payload
        # decode.  A SearchResultEntry headed for a *streaming* search
        # is handed over as an undecoded RawEntry — the zero-decode leg
        # of the GIIS relay lane.  Everything else falls through to the
        # full decoder.
        try:
            tag, body, end = decode_tlv(view)
            if end != len(view) or tag.octet != TAG_SEQUENCE:
                raise BerError("bad LDAPMessage framing")
            r = TlvReader(body)
            peek_id = r.read_integer()
            is_entry = not r.at_end() and r.peek_tag().octet == self._ENTRY_OP_OCTET
        except BerError:
            self.conn.close()
            return
        if is_entry:
            with self._lock:
                streaming = self._pending.get(peek_id)
            if streaming is None:
                return
            if streaming.kind == "search" and streaming.on_entry is not None:
                # The op bytes may alias a reused receive buffer: the
                # callback must detach() anything it retains.
                try:
                    streaming.on_entry(RawEntry(r.read_raw()))
                except BerError:
                    self.conn.close()
                return
        try:
            message = decode_message(view)
        except ProtocolError:
            self.conn.close()
            return
        op = message.op
        # Streaming ops (entries, references) accumulate without
        # concluding; they only need to observe the pending, not own it.
        if isinstance(op, SearchResultEntry):
            with self._lock:
                pending = self._pending.get(message.message_id)
            if pending is None:
                return
            if pending.kind == "subscribe" and pending.on_change is not None:
                ec = EntryChangeNotification.find(message.controls)
                change = ec.change_type if ec else 0  # 0 = initial state
                pending.on_change(op.to_entry(), change)
                return
            pending.acc.entries.append(op.to_entry())
            return
        if isinstance(op, SearchResultReference):
            with self._lock:
                pending = self._pending.get(message.message_id)
            if pending is None:
                return
            pending.acc.referrals.extend(op.uris)
            return
        if not isinstance(op, self._TERMINAL_OPS):
            return
        # Terminal op: conclude-once.  The pop under the lock is the
        # claim — if a deadline expiry or _fail_all got there first the
        # pending is gone and this (late) server answer is dropped,
        # never firing a second contradictory on_done.
        with self._lock:
            pending = self._pending.pop(message.message_id, None)
        if pending is None:
            return
        pending.acc.result = op.result
        if isinstance(op, BindResponse):
            pending.acc.referrals = [op.server_credentials.decode("latin-1")]
        elif isinstance(op, ExtendedResponse):
            pending.acc.referrals = [op.value.decode("utf-8", "replace")]
        self._complete(pending)

    # -- async API ------------------------------------------------------------
    #
    # Every method here takes one DoneCallback: on_done(outcome, error).

    def _arm_deadline(self, msg_id: int, deadline: Optional[float]) -> None:
        """Local deadline enforcement, when a clock is available."""
        if deadline is None or self.clock is None:
            return

        def expire() -> None:
            # Conclude-once: expiry claims the pending with the same pop
            # a server reply uses; whoever pops second gets None.
            with self._lock:
                pending = self._pending.pop(msg_id, None)
            if pending is None:
                return
            pending.acc.result = LdapResult(
                ResultCode.TIME_LIMIT_EXCEEDED,
                message=f"client deadline of {deadline}s expired",
            )
            self._complete(pending)

        timer = self.clock.call_later(max(0.0, deadline), expire)
        with self._lock:
            pending = self._pending.get(msg_id)
            if pending is not None:
                pending.timer = timer
        if pending is None:
            # Answered before the deadline was even armed; the timer
            # would fire into a no-op, but don't leave it ticking.
            timer.cancel()

    def bind_async(
        self,
        on_done: DoneCallback,
        name: str = "",
        mechanism: str = "simple",
        credentials: bytes = b"",
        deadline: Optional[float] = None,
    ) -> int:
        pending = _Pending("bind", on_done=on_done)
        msg_id = self._allocate(pending)
        self._send(LdapMessage(msg_id, BindRequest(3, name, mechanism, credentials)))
        self._arm_deadline(msg_id, deadline)
        return msg_id

    def search_async(
        self,
        req: SearchRequest,
        on_done: DoneCallback,
        controls: Tuple[Control, ...] = (),
        deadline: Optional[float] = None,
        trace=None,
        on_entry: Optional[Callable[[RawEntry], None]] = None,
    ) -> int:
        """Start one search.

        With *on_entry* the search **streams**: each result fires
        ``on_entry(raw_entry)`` as its frame arrives — an undecoded
        :class:`~repro.ldap.protocol.RawEntry` whose bytes may alias the
        receive buffer (``detach()`` anything retained past the
        callback) — and the final ``on_done`` outcome carries an empty
        entry list.  Without it the client accumulates decoded entries
        as before.
        """
        if deadline is not None and not req.time_limit:
            # Advertise the budget on the wire so deadline-aware servers
            # (and chained children) stop working when it expires.
            req = replace(req, time_limit=max(1, math.ceil(deadline)))
        if trace is not None:
            # Export the caller's span so the remote server parents its
            # root span on us instead of minting a disjoint trace.
            ctx = TraceContext(trace.trace_id, trace.span_id, trace.sampled)
            controls = tuple(controls) + (ctx.to_control(),)
            tracer = getattr(trace, "tracer", None)
            if tracer is not None:
                tracer.propagated()
        pending = _Pending("search", on_done=on_done, on_entry=on_entry)
        msg_id = self._allocate(pending)
        self._send(LdapMessage(msg_id, req, controls))
        self._arm_deadline(msg_id, deadline)
        return msg_id

    def abandon(self, msg_id: int) -> None:
        """Abandon an outstanding operation (RFC 4511 §4.11).

        Discards the pending record — its ``on_done`` will never fire —
        and tells the server to stop working on the request.  Used by
        the GIIS to cut off chained children once the parent's size
        budget is met.
        """
        self._abandon(msg_id)

    def add_async(self, entry: Entry, on_done: DoneCallback) -> int:
        pending = _Pending("add", on_done=on_done)
        msg_id = self._allocate(pending)
        self._send(LdapMessage(msg_id, AddRequest.from_entry(entry)))
        return msg_id

    def modify_async(
        self,
        dn: Union[DN, str],
        changes: Sequence[Tuple[int, str, Sequence[str]]],
        on_done: DoneCallback,
    ) -> int:
        pending = _Pending("modify", on_done=on_done)
        msg_id = self._allocate(pending)
        wire = tuple((k, a, tuple(vs)) for k, a, vs in changes)
        self._send(LdapMessage(msg_id, ModifyRequest(str(dn), wire)))
        return msg_id

    def delete_async(self, dn: Union[DN, str], on_done: DoneCallback) -> int:
        pending = _Pending("delete", on_done=on_done)
        msg_id = self._allocate(pending)
        self._send(LdapMessage(msg_id, DeleteRequest(str(dn))))
        return msg_id

    def extended_async(
        self, oid: str, value: bytes, on_done: DoneCallback
    ) -> int:
        pending = _Pending("extended", on_done=on_done)
        msg_id = self._allocate(pending)
        self._send(LdapMessage(msg_id, ExtendedRequest(oid, value)))
        return msg_id

    def subscribe(
        self,
        req: SearchRequest,
        on_change: Callable[[Entry, int], None],
        changes_only: bool = True,
        change_types: int = ChangeType.ALL,
    ) -> SubscriptionHandle:
        """Open a persistent search (GRIP push mode).

        *on_change* receives ``(entry, change_type)``; entries from the
        initial result set (when ``changes_only=False``) carry change
        type 0 since they are state, not changes.
        """
        pending = _Pending("subscribe", on_change=on_change)
        msg_id = self._allocate(pending)
        # Attach the handle before sending so however the pending
        # concludes — server SearchResultDone, disconnect, deadline —
        # _complete can flip it inactive.
        handle = SubscriptionHandle(self, msg_id)
        pending.handle = handle
        psc = PersistentSearchControl(
            change_types=change_types, changes_only=changes_only
        )
        self._send(LdapMessage(msg_id, req, (psc.to_control(),)))
        return handle

    # -- blocking wrappers ------------------------------------------------------

    def _blocking(self, starter, timeout: float) -> SearchResult:
        done = threading.Event()
        box: List[SearchResult] = []

        def on_done(result: SearchResult, _error: Optional[LdapError]) -> None:
            box.append(result)
            done.set()

        msg_id = starter(on_done)
        with self._lock:
            pending = self._pending.get(msg_id)
        if pending is not None:
            pending.event = done
        if self.driver is not None:
            for _ in range(1_000_000):
                if done.is_set():
                    break
                self.driver()
        if not done.wait(0 if self.driver is not None else timeout):
            raise LdapError.transport(f"timeout after {timeout}s")
        return box[0]

    def bind(
        self,
        name: str = "",
        mechanism: str = "simple",
        credentials: bytes = b"",
        timeout: float = 10.0,
    ) -> LdapResult:
        out = self._blocking(
            lambda cb: self.bind_async(cb, name, mechanism, credentials), timeout
        )
        if not out.result.ok:
            raise LdapError(out.result)
        return out.result

    def search(
        self,
        base: Union[DN, str],
        scope: Scope = Scope.SUBTREE,
        filter: Union[Filter, str] = "(objectclass=*)",
        attrs: Sequence[str] = (),
        size_limit: int = 0,
        timeout: float = 10.0,
        check: bool = True,
        controls: Tuple[Control, ...] = (),
        trace=None,
    ) -> SearchResult:
        filt = parse_filter(filter) if isinstance(filter, str) else filter
        req = SearchRequest(
            base=str(base),
            scope=scope,
            size_limit=size_limit,
            filter=filt,
            attributes=tuple(attrs),
        )
        out = self._blocking(
            lambda cb: self.search_async(req, cb, controls=controls, trace=trace),
            timeout,
        )
        if check and not out.result.ok:
            raise LdapError(out.result)
        return out

    def add(self, entry: Entry, timeout: float = 10.0) -> LdapResult:
        out = self._blocking(lambda cb: self.add_async(entry, cb), timeout)
        if not out.result.ok:
            raise LdapError(out.result)
        return out.result

    def modify(
        self,
        dn: Union[DN, str],
        changes: Sequence[Tuple[int, str, Sequence[str]]],
        timeout: float = 10.0,
    ) -> LdapResult:
        out = self._blocking(lambda cb: self.modify_async(dn, changes, cb), timeout)
        if not out.result.ok:
            raise LdapError(out.result)
        return out.result

    def delete(self, dn: Union[DN, str], timeout: float = 10.0) -> LdapResult:
        out = self._blocking(lambda cb: self.delete_async(dn, cb), timeout)
        if not out.result.ok:
            raise LdapError(out.result)
        return out.result

    def whoami(self, timeout: float = 10.0) -> str:
        from ..security.acl import ANONYMOUS  # security.acl imports repro.ldap
        from .server import WHOAMI_OID

        out = self._blocking(
            lambda cb: self.extended_async(WHOAMI_OID, b"", cb), timeout
        )
        if not out.result.ok:
            raise LdapError(out.result)
        # RFC 4532: "dn:<dn>" or "u:<name>", empty for anonymous.
        authz_id = out.referrals[0] if out.referrals else ""
        return authz_id.partition(":")[2] if authz_id else ANONYMOUS

    def unbind(self) -> None:
        if not self.closed:
            try:
                self.conn.send(encode_message(LdapMessage(0, UnbindRequest())))
            except ConnectionClosed:
                pass
        self.conn.close()
        self.closed = True
