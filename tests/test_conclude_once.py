"""Regression tests for the conclude-once sweep (PR 6 satellites).

Every pending client operation must be concluded by exactly one of its
contenders — server reply, local deadline expiry, or connection-death
``_fail_all`` — no matter how they interleave.  The race tests here
drive the exact interleaving deterministically by hooking the client's
lock, so they don't rely on sleeps or thread timing.
"""

import threading

from repro.ldap.client import LdapClient
from repro.ldap.protocol import (
    LdapMessage,
    LdapResult,
    ResultCode,
    SearchRequest,
    SearchResultDone,
    encode_message,
)
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
        self.sent = []
        self.closed = False
        self.receiver = None
        self.close_handler = None
        self.peer = ("fake", 0)
        self.local = ("fake", 1)

    def send(self, message: bytes) -> None:
        self.sent.append(message)

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
