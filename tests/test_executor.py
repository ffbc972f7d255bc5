"""Request-executor semantics: cancellation tokens, the bounded worker
pool, per-request deadlines, Abandon, disconnect, and backpressure."""

import threading
import time

import pytest

from repro.giis.core import GiisBackend
from repro.gris.core import GrisBackend
from repro.gris.provider import FunctionProvider
from repro.ldap.backend import (
    Backend,
    RequestContext,
    SearchHandle,
    SearchOutcome,
)
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.entry import Entry
from repro.ldap.executor import CancelToken, RequestExecutor
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import (
    RawEntry,
    ResultCode,
    SearchRequest,
    encode_search_entry,
)
from repro.ldap.server import LdapServer
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork
from repro.net.reactor import ReactorEndpoint
from repro.obs.metrics import MetricsRegistry
from repro.testbed.vo import GridTestbed


class TestCancelToken:
    def test_cancel_is_sticky_and_idempotent(self):
        fired = []
        token = CancelToken()
        token.on_cancel(lambda: fired.append("a"))
        assert not token.cancelled and token.reason == ""
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"
        assert fired == ["a"]

    def test_late_observer_fires_immediately(self):
        token = CancelToken()
        token.cancel()
        fired = []
        token.on_cancel(lambda: fired.append(1))
        assert fired == [1]

    def test_observer_exception_does_not_break_cancel(self):
        token = CancelToken()
        fired = []
        token.on_cancel(lambda: 1 / 0)
        token.on_cancel(lambda: fired.append(1))
        token.cancel()
        assert token.cancelled and fired == [1]

    def test_deadline_arithmetic(self):
        token = CancelToken(deadline=10.0)
        assert not token.expired(9.9)
        assert token.expired(10.0)
        assert token.remaining(4.0) == 6.0
        assert token.remaining(12.0) == 0.0
        assert token.clamp(4.0, 100.0) == 6.0
        assert token.clamp(4.0, 2.0) == 2.0

    def test_unbounded_token(self):
        token = CancelToken()
        assert not token.expired(1e9)
        assert token.remaining(0.0) is None
        assert token.clamp(0.0, 7.0) == 7.0

    def test_request_context_cancelled_property(self):
        ctx = RequestContext()
        assert not ctx.cancelled  # a fresh token of its own
        assert ctx.token is not RequestContext().token
        ctx.token.cancel()
        assert ctx.cancelled

    def test_search_handle_cancels_through_token(self):
        token = CancelToken()
        handle = SearchHandle(token)
        assert not handle.cancelled
        handle.cancel("client went away")
        assert handle.cancelled and token.reason == "client went away"


class TestRequestExecutor:
    def test_inline_runs_on_submitting_thread(self):
        metrics = MetricsRegistry()
        ex = RequestExecutor(workers=0, metrics=metrics, name="t")
        threads = []
        assert ex.inline
        assert ex.submit(lambda: threads.append(threading.current_thread()))
        assert threads == [threading.current_thread()]
        assert metrics.counter("ldap.executor.submitted", {"pool": "t"}).value == 1
        assert metrics.counter("ldap.executor.completed", {"pool": "t"}).value == 1

    def test_inline_task_exception_is_counted_not_raised(self):
        metrics = MetricsRegistry()
        ex = RequestExecutor(workers=0, metrics=metrics, name="t")
        assert ex.submit(lambda: 1 / 0)
        assert metrics.counter("ldap.executor.errors", {"pool": "t"}).value == 1
        assert metrics.counter("ldap.executor.completed", {"pool": "t"}).value == 1

    def test_pool_runs_tasks_on_worker_threads(self):
        ex = RequestExecutor(workers=2, name="pool")
        try:
            done = threading.Event()
            names = []

            def task():
                names.append(threading.current_thread().name)
                done.set()

            assert not ex.inline
            assert ex.submit(task)
            assert done.wait(5.0)
            assert names and names[0].startswith("pool-exec-")
        finally:
            ex.shutdown()

    def test_queue_overflow_rejects(self):
        metrics = MetricsRegistry()
        ex = RequestExecutor(workers=1, queue_limit=1, metrics=metrics, name="t")
        release = threading.Event()
        started = threading.Event()
        try:

            def block():
                started.set()
                release.wait(10.0)

            assert ex.submit(block)
            assert started.wait(5.0)  # the lone worker is now busy
            assert ex.submit(lambda: None)  # fills the queue
            assert not ex.submit(lambda: None)  # overflows
            assert (
                metrics.counter("ldap.executor.rejected", {"pool": "t"}).value == 1
            )
        finally:
            release.set()
            ex.shutdown()

    def test_shutdown_refuses_new_work(self):
        ex = RequestExecutor(workers=1, name="t")
        ex.shutdown()
        assert not ex.submit(lambda: None)

    def test_bad_sizing_rejected(self):
        with pytest.raises(ValueError):
            RequestExecutor(workers=-1)
        with pytest.raises(ValueError):
            RequestExecutor(workers=1, queue_limit=0)


class SlowBackend(Backend):
    """Completes searches after a virtual-time delay (a slow provider).

    Honors the cancellation token: cancelled work never completes and is
    never counted, mirroring a backend that stopped mid-collection.
    """

    def __init__(self, clock, delay: float):
        self.clock = clock
        self.delay = delay
        self.completed = 0
        self.ignore_token = False

    def submit_search_stream(self, req, ctx, on_entry, on_done):
        token = ctx.token
        delay = self.delay if "slow" in req.base else 0.0

        def finish():
            if token.cancelled and not self.ignore_token:
                return
            self.completed += 1
            on_entry(Entry(req.base, objectclass="organization"))
            on_done(SearchOutcome())

        if delay:
            self.clock.call_later(delay, finish)
        else:
            finish()
        return SearchHandle(token)


def sim_stack(delay=30.0, **server_kwargs):
    sim = Simulator(seed=7)
    net = SimNetwork(sim)
    server_node = net.add_node("server")
    client_node = net.add_node("client")
    backend = SlowBackend(sim, delay)
    server = LdapServer(backend, clock=sim, **server_kwargs)
    server_node.listen(389, server.handle_connection)
    client = LdapClient(client_node.connect(("server", 389)), driver=sim.step)
    return sim, client, server, backend


class TestDeadlines:
    def test_time_limit_exceeded_on_slow_backend(self):
        sim, client, server, backend = sim_stack(delay=30.0)
        results = []
        client.search_async(
            SearchRequest(base="o=slow", scope=Scope.SUBTREE, time_limit=2),
            lambda r, _e: results.append(r),
        )
        sim.run_for(60.0)
        assert len(results) == 1
        assert results[0].result.code == ResultCode.TIME_LIMIT_EXCEEDED
        assert server.metrics.counter("ldap.search.deadline_expired").value == 1
        assert backend.completed == 0  # the token stopped the work

    def test_late_completion_after_deadline_is_dropped(self):
        """A backend that ignores cancellation still cannot answer twice:
        the conclude-once protocol drops its late outcome."""
        sim, client, server, backend = sim_stack(delay=30.0)
        backend.ignore_token = True
        results = []
        client.search_async(
            SearchRequest(base="o=slow", scope=Scope.SUBTREE, time_limit=2),
            lambda r, _e: results.append(r),
        )
        sim.run_for(60.0)
        assert backend.completed == 1  # it did finish, eventually
        assert len(results) == 1  # but the client saw exactly one answer
        assert results[0].result.code == ResultCode.TIME_LIMIT_EXCEEDED

    def test_server_default_time_limit_applies(self):
        sim, client, server, backend = sim_stack(
            delay=30.0, default_time_limit=2.0
        )
        results = []
        client.search_async(  # note: no client-side time limit at all
            SearchRequest(base="o=slow", scope=Scope.SUBTREE),
            lambda r, _e: results.append(r),
        )
        sim.run_for(60.0)
        assert len(results) == 1
        assert results[0].result.code == ResultCode.TIME_LIMIT_EXCEEDED

    def test_fast_requests_answered_while_slow_one_pending(self):
        sim, client, server, backend = sim_stack(delay=30.0)
        order = []
        client.search_async(
            SearchRequest(base="o=slow", scope=Scope.SUBTREE, time_limit=5),
            lambda r, _e: order.append(("slow", r.result.code)),
        )
        client.search_async(
            SearchRequest(base="o=fast", scope=Scope.SUBTREE),
            lambda r, _e: order.append(("fast", r.result.code)),
        )
        sim.run_for(60.0)
        # the fast search completed first, despite being sent second on
        # the same connection
        assert order[0] == ("fast", int(ResultCode.SUCCESS))
        assert order[1] == ("slow", int(ResultCode.TIME_LIMIT_EXCEEDED))


class TestCancellation:
    def test_abandon_cancels_inflight_search(self):
        sim, client, server, backend = sim_stack(delay=30.0)
        results = []
        msg_id = client.search_async(
            SearchRequest(base="o=slow", scope=Scope.SUBTREE),
            lambda r, _e: results.append(r),
        )
        client._abandon(msg_id)
        sim.run_for(60.0)
        assert results == []  # RFC 4511: no response to an abandoned op
        assert backend.completed == 0
        assert (
            server.metrics.counter(
                "ldap.search.cancelled", {"reason": "abandon"}
            ).value
            == 1
        )

    def test_unbind_cancels_inflight_search(self):
        sim, client, server, backend = sim_stack(delay=30.0)
        client.search_async(
            SearchRequest(base="o=slow", scope=Scope.SUBTREE),
            lambda r, _e: None,
        )
        sim.run_for(1.0)  # the search reaches the server and is pending
        client.unbind()
        sim.run_for(60.0)
        assert backend.completed == 0
        assert (
            server.metrics.counter(
                "ldap.search.cancelled", {"reason": "disconnect"}
            ).value
            == 1
        )

    def test_abandon_stops_giis_chaining_fanout(self):
        """Abandoning a chained GIIS query aborts the collector: child
        timers die, late child answers are dropped, done() never fires."""
        tb = GridTestbed(seed=5)
        giis = tb.add_giis("giis", "o=Grid", child_timeout=5.0)
        for i in range(3):
            gris = tb.standard_gris(f"r{i}", f"hn=r{i}, o=Grid")
            tb.register(gris, giis, name=f"r{i}")
        tb.run(1.0)
        client = tb.client("u", giis)
        results = []
        msg_id = client.search_async(
            SearchRequest(
                base="o=Grid", filter=parse_filter("(objectclass=computer)")
            ),
            lambda r, _e: results.append(r),
        )
        client._abandon(msg_id)
        tb.run(20.0)
        assert results == []
        assert giis.backend.metrics.counter("giis.chain.cancelled").value == 1
        assert (
            giis.server.metrics.counter(
                "ldap.search.cancelled", {"reason": "abandon"}
            ).value
            == 1
        )
        # the same query still works for a live client afterwards
        out = tb.client("u2", giis).search(
            "o=Grid", filter="(objectclass=computer)"
        )
        assert len(out.entries) == 3

    def test_cancelled_token_stops_gris_provider_loop(self):
        sim = Simulator()
        gris = GrisBackend("o=G", clock=sim)
        token = CancelToken()
        calls = []

        def first():
            calls.append("first")
            token.cancel("test")
            return []

        def second():
            calls.append("second")
            return []

        gris.add_provider(FunctionProvider("first", first))
        gris.add_provider(FunctionProvider("second", second))
        ctx = RequestContext(token=token)
        gris.search(SearchRequest(base="o=G", scope=Scope.SUBTREE), ctx)
        assert calls == ["first"]  # loop stopped between providers
        assert gris.metrics.counter("gris.collect.cancelled").value == 1

    def test_sync_shim_answers_busy_for_incomplete_backend(self):
        class Never(Backend):
            def submit_search_stream(self, req, ctx, on_entry, on_done):
                on_entry(Entry("o=G", objectclass="organization"))
                return SearchHandle(ctx.token)  # work never concludes

        ctx = RequestContext()
        out = Never().search(SearchRequest(base="o=G", scope=Scope.SUBTREE), ctx)
        assert out.result.code == ResultCode.BUSY and not out.entries
        assert ctx.token.reason == "synchronous caller cannot wait"

    def test_sync_search_collects_raw_entries_decoded(self):
        entry = Entry("hn=a, o=G", objectclass="computer", hn="a")

        class Relaying(Backend):
            def submit_search_stream(self, req, ctx, on_entry, on_done):
                on_entry(RawEntry(encode_search_entry(entry)))
                on_done(SearchOutcome(referrals=["ldap://x/"]))
                return SearchHandle(ctx.token)

        out = Relaying().search(
            SearchRequest(base="o=G", scope=Scope.SUBTREE), RequestContext()
        )
        assert out.result.ok and out.referrals == ["ldap://x/"]
        assert out.entries == [entry] and type(out.entries[0]) is Entry

    def test_giis_sync_shim_serves_local_view(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        out = giis.search(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE), RequestContext()
        )
        assert out.result.ok  # local entries, no chaining, no BUSY


def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestBackpressureOverTcp:
    def test_queue_overflow_answers_busy(self):
        release = threading.Event()
        started = threading.Event()

        class Gated(Backend):
            def _search_impl(self, req, ctx):
                started.set()
                release.wait(10.0)
                return SearchOutcome()

        metrics = MetricsRegistry()
        executor = RequestExecutor(
            workers=1, queue_limit=1, metrics=metrics, name="tcp"
        )
        server = LdapServer(Gated(), metrics=metrics, executor=executor)
        endpoint = ReactorEndpoint(metrics=metrics)
        try:
            port = endpoint.listen(0, server.handle_connection)
            client = LdapClient(endpoint.connect(("127.0.0.1", port)))
            codes = []
            done = threading.Event()

            def collect(result, _error):
                codes.append(int(result.result.code))
                if len(codes) == 3:
                    done.set()

            req = SearchRequest(base="o=G", scope=Scope.SUBTREE)
            client.search_async(req, collect)
            assert started.wait(5.0)  # the lone worker is now occupied
            client.search_async(req, collect)  # sits in the queue
            client.search_async(req, collect)  # overflows: BUSY
            assert _wait_until(lambda: codes.count(int(ResultCode.BUSY)) == 1)
            release.set()
            assert done.wait(10.0)
            assert sorted(codes) == sorted(
                [
                    int(ResultCode.SUCCESS),
                    int(ResultCode.SUCCESS),
                    int(ResultCode.BUSY),
                ]
            )
            assert metrics.counter("ldap.search.rejected").value == 1
        finally:
            release.set()
            endpoint.close()
            executor.shutdown()

    def test_endpoint_close_cancels_inflight(self):
        """Closing the client's endpoint propagates: the server connection
        closes and in-flight work is cancelled, not leaked."""

        class Hang(Backend):
            def submit_search_stream(self, req, ctx, on_entry, on_done):
                return SearchHandle(ctx.token)  # never concludes

        metrics = MetricsRegistry()
        server = LdapServer(Hang(), metrics=metrics)
        server_ep = ReactorEndpoint(metrics=metrics)
        client_ep = ReactorEndpoint()
        try:
            port = server_ep.listen(0, server.handle_connection)
            client = LdapClient(client_ep.connect(("127.0.0.1", port)))
            client.search_async(
                SearchRequest(base="o=G", scope=Scope.SUBTREE),
                lambda r, _e: None,
            )
            assert _wait_until(lambda: server.metrics.counter("ldap.requests", {"op": "search"}).value == 1)
            client_ep.close()  # closes the dialed connection too
            assert _wait_until(
                lambda: metrics.counter(
                    "ldap.search.cancelled", {"reason": "disconnect"}
                ).value
                == 1
            )
        finally:
            client_ep.close()
            server_ep.close()
