"""E15 — §10.1 under load: the bounded request executor.

The paper's protocol interpreter must stay responsive while backends
dispatch to slow information providers (§10.3) and chain to remote
directories (§10.4).  This bench measures, over real TCP loopback, what
the worker-pool executor buys and what its backpressure costs:

* **pipelining** — one connection sends a slow search followed by fast
  ones; inline execution (workers=0) head-of-line blocks the fast
  queries behind the slow one, the pool answers them immediately;
* **backpressure** — flooding a small pool answers ``busy(51)`` fast
  instead of silently queueing unbounded work;
* **deadlines** — a server-side time limit converts a stuck provider
  into a prompt ``timeLimitExceeded(3)`` answer.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import threading
import time

from repro.ldap.backend import Backend, SearchOutcome
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.entry import Entry
from repro.ldap.executor import RequestExecutor
from repro.ldap.protocol import ResultCode, SearchRequest
from repro.ldap.server import LdapServer
from repro.net.reactor import ReactorEndpoint
from repro.testbed.metrics import fmt_table

SLOW_S = 0.5  # simulated provider stall
FAST_N = 8  # fast queries pipelined behind the slow one


class SlowFastBackend(Backend):
    """Sleeps for searches under ``cn=slow``; instant everywhere else."""

    def __init__(self, slow_s=SLOW_S):
        self.slow_s = slow_s

    def _search_impl(self, req, ctx):
        if "slow" in req.base:
            time.sleep(self.slow_s)
        return SearchOutcome(
            entries=[Entry(req.base or "o=G", objectclass="organization")]
        )


def serve(backend, workers, queue_limit=64, default_time_limit=0.0):
    executor = RequestExecutor(workers=workers, queue_limit=queue_limit)
    server = LdapServer(
        backend, executor=executor, default_time_limit=default_time_limit
    )
    endpoint = ReactorEndpoint()
    port = endpoint.listen(0, server.handle_connection)
    return endpoint, port, server


def pipelined_fast_latency(workers):
    """Seconds until all fast answers arrive, slow query sent first."""
    endpoint, port, _server = serve(SlowFastBackend(), workers=workers)
    try:
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        fast_done = threading.Event()
        answered = []

        def on_fast(result, _error):
            answered.append(result.result.code)
            if len(answered) == FAST_N:
                fast_done.set()

        started = time.perf_counter()
        client.search_async(
            SearchRequest(base="cn=slow", scope=Scope.BASE),
            lambda r, _e: None,
        )
        req = SearchRequest(base="o=G", scope=Scope.BASE)
        for _ in range(FAST_N):
            client.search_async(req, on_fast)
        assert fast_done.wait(SLOW_S * 4 + 5.0)
        elapsed = time.perf_counter() - started
        assert all(code == ResultCode.SUCCESS for code in answered)
        return elapsed
    finally:
        endpoint.close()


def flood(workers, queue_limit, requests):
    """(busy_count, first_busy_latency_s, total_s) for a request flood."""
    endpoint, port, server = serve(
        SlowFastBackend(slow_s=0.1), workers=workers, queue_limit=queue_limit
    )
    try:
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        all_done = threading.Event()
        first_busy = []
        codes = []

        def on_done(result, _error):
            codes.append(int(result.result.code))
            if result.result.code == ResultCode.BUSY and not first_busy:
                first_busy.append(time.perf_counter())
            if len(codes) == requests:
                all_done.set()

        started = time.perf_counter()
        req = SearchRequest(base="cn=slow", scope=Scope.BASE)
        for _ in range(requests):
            client.search_async(req, on_done)
        assert all_done.wait(30.0)
        total = time.perf_counter() - started
        busy = codes.count(int(ResultCode.BUSY))
        busy_at = (first_busy[0] - started) if first_busy else float("nan")
        assert busy == int(server.metrics.counter("ldap.search.rejected").value)
        return busy, busy_at, total
    finally:
        endpoint.close()


def deadline_latency(default_time_limit, stall):
    """Seconds until a stuck search is answered, and the result code."""
    endpoint, port, _server = serve(
        SlowFastBackend(slow_s=stall),
        workers=2,
        default_time_limit=default_time_limit,
    )
    try:
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        started = time.perf_counter()
        out = client.search("cn=slow", Scope.BASE, check=False)
        return time.perf_counter() - started, int(out.result.code)
    finally:
        endpoint.close()


def test_concurrent_clients(benchmark, report):
    def run():
        inline_s = pipelined_fast_latency(workers=0)
        pooled_s = pipelined_fast_latency(workers=4)
        busy, busy_at, flood_s = flood(workers=2, queue_limit=4, requests=16)
        tle_s, tle_code = deadline_latency(default_time_limit=0.3, stall=2.0)
        return inline_s, pooled_s, busy, busy_at, flood_s, tle_s, tle_code

    inline_s, pooled_s, busy, busy_at, flood_s, tle_s, tle_code = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    report(
        "E15_concurrent_clients",
        f"{FAST_N} fast queries pipelined behind one {SLOW_S}s-slow query "
        "(single TCP connection)\n"
        + fmt_table(
            ["executor", "time to all fast answers (s)"],
            [
                ("inline (workers=0)", round(inline_s, 3)),
                ("pool (workers=4)", round(pooled_s, 3)),
            ],
        )
        + "\n\nflood of 16 slow queries at a pool of 2 with queue limit 4\n"
        + fmt_table(
            ["busy answers", "first busy after (s)", "flood total (s)"],
            [(busy, round(busy_at, 3), round(flood_s, 3))],
        )
        + f"\n\nstuck provider (2s) under a 0.3s server time limit: "
        f"answered code={tle_code} in {tle_s:.3f}s"
        + "\n\nClaim check (§10.1): the interpreter stays responsive under"
        "\nslow backends — the pool removes head-of-line blocking, queue"
        "\noverflow fails fast with busy(51), and the deadline converts a"
        "\nstuck provider into a prompt timeLimitExceeded(3).",
    )
    # the pool answers fast queries while the slow one is still running
    assert inline_s >= SLOW_S
    assert pooled_s < SLOW_S / 2
    # overflow is refused quickly, not queued behind the stalled pool
    assert busy >= 1
    assert busy_at < 0.1
    # the deadline answers long before the provider returns
    assert tle_code == ResultCode.TIME_LIMIT_EXCEEDED
    assert tle_s < 1.0
