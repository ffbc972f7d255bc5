"""Regression tests for the conclude-once sweep (PR 6 satellites).

Every pending client operation must be concluded by exactly one of its
contenders — server reply, local deadline expiry, or connection-death
``_fail_all`` — no matter how they interleave.  The race tests here
drive the exact interleaving deterministically by hooking the client's
lock, so they don't rely on sleeps or thread timing.
"""

import itertools
import sys
import threading

from repro.ldap.backend import (
    Backend,
    DitBackend,
    SearchHandle,
    SearchOutcome,
    stream_outcome,
)
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT
from repro.ldap.entry import Entry
from repro.ldap.executor import RequestExecutor
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import (
    AbandonRequest,
    LdapMessage,
    LdapResult,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    SearchResultEntry,
    decode_message,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.clock import Clock, TimerHandle
from repro.obs.metrics import MetricsRegistry

from .wire import ber_seq

import time


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class FakeConn:
    """Connection double: collects sent frames, delivers on demand."""

    def __init__(self):
        self.sent = []  # every message, in order
        self.writes = []  # the messages of each send / send_all call
        self.closed = False
        self.receiver = None
        self.close_handler = None
        self.peer = ("fake", 0)
        self.local = ("fake", 1)

    def send(self, message: bytes) -> None:
        self.sent.append(message)
        self.writes.append([message])

    def send_all(self, messages) -> None:
        self.sent.extend(messages)
        self.writes.append(list(messages))

    def set_receiver(self, callback) -> None:
        self.receiver = callback

    def set_close_handler(self, callback) -> None:
        self.close_handler = callback

    def close(self) -> None:
        self.closed = True


class ManualClock(Clock):
    """Records timers; the test decides when (and whether) they fire."""

    def __init__(self):
        self.timers = []

    def now(self) -> float:
        return 0.0

    def call_later(self, delay, fn) -> TimerHandle:
        handle = TimerHandle(lambda: None)
        self.timers.append((delay, fn, handle))
        return handle


class TriggerLock:
    """A lock that fires a hook right after its Nth release.

    This pins down a cross-thread interleaving deterministically: the
    hook runs at the exact moment the code under test has just dropped
    the lock, exactly where a rival thread could be scheduled.
    """

    def __init__(self, fire_after: int):
        self._lock = threading.Lock()
        self._releases = 0
        self._fire_after = fire_after
        self.hook = None

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        self._releases += 1
        if self._releases == self._fire_after and self.hook is not None:
            hook, self.hook = self.hook, None
            hook()
        return False


def _done_frame(msg_id: int, code: int = ResultCode.SUCCESS) -> bytes:
    return encode_message(
        LdapMessage(msg_id, SearchResultDone(LdapResult(code)))
    )


class TestDeadlineVsReplyRace:
    def test_reply_racing_expiry_delivers_exactly_one_on_done(self):
        """A deadline expiring mid-reply must not double-complete.

        The hooked lock schedules the expiry callback at the first
        release inside ``_on_message`` — the precise window where the
        old code had done a ``get`` but not yet its (result-ignored)
        ``pop``, so both paths called ``_complete``.  Conclude-once
        code delivers exactly one outcome: the reply's, since it pops
        first.
        """
        conn = FakeConn()
        clock = ManualClock()
        client = LdapClient(conn, clock=clock)
        # Releases 1 and 2 are _allocate and _arm_deadline; release 3
        # is the first lock exit inside _on_message.
        lock = TriggerLock(fire_after=3)
        client._lock = lock

        calls = []
        msg_id = client.search_async(
            SearchRequest(base="o=Grid"),
            lambda result, error: calls.append((result, error)),
            deadline=5.0,
        )
        assert len(clock.timers) == 1
        _delay, expire, _handle = clock.timers[0]
        lock.hook = expire  # the deadline fires in the race window

        client._on_message(_done_frame(msg_id))

        assert len(calls) == 1, "pending completed more than once"
        result, error = calls[0]
        assert error is None and result.result.ok  # the reply won

    def test_expiry_then_late_reply_is_dropped(self):
        conn = FakeConn()
        clock = ManualClock()
        client = LdapClient(conn, clock=clock)

        calls = []
        msg_id = client.search_async(
            SearchRequest(base="o=Grid"),
            lambda result, error: calls.append((result, error)),
            deadline=5.0,
        )
        _delay, expire, _handle = clock.timers[0]
        expire()
        client._on_message(_done_frame(msg_id))  # server answered too late

        assert len(calls) == 1
        result, error = calls[0]
        assert error is not None
        assert result.result.code == ResultCode.TIME_LIMIT_EXCEEDED

    def test_disconnect_then_late_reply_is_dropped(self):
        conn = FakeConn()
        client = LdapClient(conn)

        calls = []
        msg_id = client.search_async(
            SearchRequest(base="o=Grid"),
            lambda result, error: calls.append((result, error)),
        )
        conn.close_handler()  # transport died: _fail_all concludes
        client._on_message(_done_frame(msg_id))  # stale buffered reply

        assert len(calls) == 1
        result, error = calls[0]
        assert error is not None and not result.result.ok

    def test_deadline_armed_after_conclusion_cancels_timer(self):
        """_arm_deadline finding the pending gone must not leave a
        live timer ticking toward a no-op."""
        conn = FakeConn()
        clock = ManualClock()
        client = LdapClient(conn, clock=clock)
        client._pending.clear()  # simulate: concluded before arming
        client._arm_deadline(99, 5.0)
        assert clock.timers[0][2].cancelled


class TestSubscriptionHandleConcludes:
    def test_server_done_deactivates_handle(self):
        conn = FakeConn()
        client = LdapClient(conn)
        handle = client.subscribe(
            SearchRequest(base="o=Grid"), lambda entry, change: None
        )
        assert handle.active
        frames_before = len(conn.sent)

        client._on_message(_done_frame(handle._msg_id))
        assert not handle.active
        # cancel() after the server concluded must not Abandon: the
        # message id is dead and could be reused by a future operation.
        handle.cancel()
        assert len(conn.sent) == frames_before

    def test_disconnect_deactivates_handle(self):
        conn = FakeConn()
        client = LdapClient(conn)
        handle = client.subscribe(
            SearchRequest(base="o=Grid"), lambda entry, change: None
        )
        conn.close_handler()
        assert not handle.active
        frames_before = len(conn.sent)
        handle.cancel()
        assert len(conn.sent) == frames_before

    def test_local_cancel_still_abandons(self):
        conn = FakeConn()
        client = LdapClient(conn)
        handle = client.subscribe(
            SearchRequest(base="o=Grid"), lambda entry, change: None
        )
        frames_before = len(conn.sent)
        handle.cancel()
        assert not handle.active
        assert len(conn.sent) == frames_before + 1  # the Abandon


def _host_dit(n: int) -> DIT:
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for h in range(n):
        dit.add(Entry(f"hn=host{h}, o=Grid", objectclass="computer", hn=f"host{h}"))
    return dit


class _HookedBackend(Backend):
    """A DIT answer in hand whose delivery runs *hook* after the
    *after*-th entry: a rival concluding the search mid-delivery."""

    def __init__(self, dit: DIT, after: int):
        self.inner = DitBackend(dit)
        self.after = after
        self.hook = None

    def submit_search_stream(self, req, ctx, on_entry, on_done):
        delivered = []

        def entry(item):
            on_entry(item)
            delivered.append(item)
            if len(delivered) == self.after:
                self.hook()

        return stream_outcome(self.inner._search_impl(req, ctx), ctx, entry, on_done)


def _ops(frames):
    return [decode_message(frame).op for frame in frames]


class TestGatheredAnswerConcludesOnce:
    """An answer in hand is gathered after its first entry and written
    with its Done; a rival that concludes the search meanwhile drops the
    gathered frames, so nothing follows the rival's outcome."""

    REQ = SearchRequest(base="o=Grid", filter=parse_filter("(objectclass=computer)"))

    def _serve(self, backend, clock=None, executor=None):
        conn = FakeConn()
        LdapServer(backend, clock=clock, executor=executor).handle_connection(conn)
        return conn

    def test_deadline_during_delivery_leaves_one_done_and_nothing_after(self):
        clock = ManualClock()
        backend = _HookedBackend(_host_dit(10), after=4)
        conn = self._serve(backend, clock=clock)
        backend.hook = lambda: clock.timers[0][1]()  # the deadline fires
        req = SearchRequest(base="o=Grid", filter=self.REQ.filter, time_limit=5)
        conn.receiver(encode_message(LdapMessage(1, req)))

        ops = _ops(conn.sent)
        dones = [op for op in ops if isinstance(op, SearchResultDone)]
        assert len(dones) == 1 and ops[-1] is dones[0]
        assert dones[0].result.code == ResultCode.TIME_LIMIT_EXCEEDED
        # The first entry went out alone; the gathered ones were dropped.
        assert [type(op) for op in ops] == [SearchResultEntry, SearchResultDone]

    def test_abandon_during_delivery_writes_nothing_after_it(self):
        backend = _HookedBackend(_host_dit(10), after=4)
        executor = RequestExecutor(workers=1)
        conn = self._serve(backend, executor=executor)
        at_abandon = []

        def abandon():
            at_abandon.append(len(conn.sent))
            conn.receiver(encode_message(LdapMessage(2, AbandonRequest(1))))

        backend.hook = abandon
        conn.receiver(encode_message(LdapMessage(1, self.REQ)))
        executor.shutdown(wait=True)

        assert at_abandon == [1]
        assert len(conn.sent) == 1  # the first entry, and nothing since
        assert not any(isinstance(op, SearchResultDone) for op in _ops(conn.sent))

    def test_close_during_delivery_writes_nothing_after_it(self):
        backend = _HookedBackend(_host_dit(10), after=4)
        conn = self._serve(backend)
        at_close = []

        def close():
            at_close.append(len(conn.sent))
            conn.closed = True
            conn.close_handler()

        backend.hook = close
        conn.receiver(encode_message(LdapMessage(1, self.REQ)))

        assert at_close == [1] and len(conn.sent) == 1

    def test_size_limit_writes_the_limit_then_done_in_two_writes(self):
        conn = self._serve(DitBackend(_host_dit(10)))
        req = SearchRequest(base="o=Grid", filter=self.REQ.filter, size_limit=3)
        conn.receiver(encode_message(LdapMessage(1, req)))

        ops = _ops(conn.sent)
        assert [type(op) for op in ops] == [SearchResultEntry] * 3 + [SearchResultDone]
        assert ops[-1].result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        assert len(conn.writes) <= 2
        assert len(conn.writes[0]) == 1  # the first entry alone

    def test_a_long_answer_is_flushed_in_bounded_writes(self):
        from repro.ldap.server import _GATHER_BYTES

        dit = _host_dit(0)
        for h in range(300):
            dit.add(Entry(f"hn=host{h}, o=Grid", objectclass="computer",
                          hn=f"host{h}", note="x" * 1000))
        conn = self._serve(DitBackend(dit))
        conn.receiver(encode_message(LdapMessage(1, self.REQ)))

        ops = _ops(conn.sent)
        assert len(ops) == 301 and isinstance(ops[-1], SearchResultDone)
        sizes = [sum(map(len, write)) for write in conn.writes]
        assert 3 <= len(sizes) <= 10
        frame = max(map(len, conn.sent))
        assert all(size < _GATHER_BYTES + frame for size in sizes)


class _RacingBackend(Backend):
    """Like a chaining GIIS: *local* entries on the calling thread, then
    0, 1 or 5 more and the Done from another thread, racing the call's
    return."""

    def __init__(self, local: int):
        self.local = local
        self.remotes = itertools.cycle([0, 1, 5])
        self.sizes = []
        self.threads = []

    def submit_search_stream(self, req, ctx, on_entry, on_done):
        def entry(i):
            return Entry(f"hn=host{i}, o=Grid", objectclass="computer", hn=f"host{i}")

        size = self.local + next(self.remotes)
        self.sizes.append(size)
        for i in range(self.local):
            on_entry(entry(i))

        def rest():
            for i in range(self.local, size):
                on_entry(entry(i))
            on_done(SearchOutcome())

        thread = threading.Thread(target=rest)
        self.threads.append(thread)
        thread.start()
        return SearchHandle(ctx.token)


def test_entries_racing_the_call_return_are_written_once_before_the_done():
    backend = _RacingBackend(local=3)
    executor = RequestExecutor(workers=4)
    server = LdapServer(backend, executor=executor)
    conn = FakeConn()
    server.handle_connection(conn)
    searches = 60
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for msg_id in range(1, searches + 1):
            conn.receiver(encode_message(LdapMessage(msg_id, TestGatheredAnswerConcludesOnce.REQ)))
        executor.shutdown(wait=True)
        for thread in backend.threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)

    by_id = {}
    for frame in conn.sent:
        message = decode_message(frame)
        by_id.setdefault(message.message_id, []).append(message.op)
    assert sorted(by_id) == list(range(1, searches + 1))
    sizes = []
    for ops in by_id.values():
        assert isinstance(ops[-1], SearchResultDone) and ops[-1].result.ok
        sizes.append(len(ops) - 1)
        assert sorted(op.dn for op in ops[:-1]) == sorted(
            f"hn=host{i}, o=Grid" for i in range(sizes[-1]))
    assert sorted(sizes) == sorted(backend.sizes)
    assert server.metrics.counter("ldap.entries.returned").value == sum(sizes)
    assert server.metrics.counter("ldap.encode.cache.uncached").value == sum(sizes)


class TestUdpCloseVsSend:
    def test_send_after_close_is_noop(self):
        ep = ReactorEndpoint()
        ep.send_datagram(("127.0.0.1", 9), b"x")  # lazily creates socket
        assert ep._udp_send is not None
        ep.close()
        assert ep._udp_send is None
        # A late sender must neither crash nor resurrect the socket.
        ep.send_datagram(("127.0.0.1", 9), b"y")
        assert ep._udp_send is None

    def test_concurrent_senders_racing_close(self):
        ep = ReactorEndpoint()
        errors = []
        stop = threading.Event()

        def spam():
            while not stop.is_set():
                try:
                    ep.send_datagram(("127.0.0.1", 9), b"spam")
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        ep.close()
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert errors == []
        assert ep._udp_send is None


class TestAcceptLoopRobustness:
    def test_handler_error_does_not_kill_listener(self):
        metrics = MetricsRegistry()
        ep = ReactorEndpoint(metrics=metrics)
        accepted = []

        def handler(conn):
            accepted.append(conn)
            if len(accepted) == 1:
                raise RuntimeError("bad handshake")
            conn.set_receiver(lambda m: conn.send(ber_seq(b"ok:" + m)))

        port = ep.listen(0, handler)
        first = ep.connect(("127.0.0.1", port))
        assert wait_for(
            lambda: metrics.counter("tcp.accept.handler_errors").value == 1
        )
        # The failed handler's connection was dropped server-side...
        assert wait_for(lambda: accepted and accepted[0].closed)
        # ...but the listener survived and serves the next client.
        second = ep.connect(("127.0.0.1", port))
        got = []
        second.set_receiver(got.append)
        second.send(ber_seq(b"hi"))
        assert wait_for(lambda: got == [ber_seq(b"ok:" + ber_seq(b"hi"))])
        first.close()
        second.close()
        ep.close()
