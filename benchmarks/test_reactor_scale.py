"""E19 — the event-loop transport at VO scale, and pooled GIIS chaining.

The MDS performance studies (Zhang, Freschl & Schopf; PAPERS.md) ran
directory servers against hundreds-to-thousands of concurrent users.
This bench measures, over real loopback sockets:

* **concurrency ladder** — N clients each open a connection and run one
  search; the server must sustain 5k concurrent clients on one
  event-loop thread;
* **pooled chaining** — a GIIS front end chaining to child servers over
  warm pooled connections vs dialing each child per query (the pre-pool
  behavior, emulated by clearing the pool between queries).

Set ``E19_QUICK=1`` (the CI smoke mode) for a small ladder and fewer
rounds.  Full runs write machine-readable results to ``BENCH_E19.json``
at the repo root.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import json
import os
import pathlib
import statistics
import threading
import time

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.executor import RequestExecutor
from repro.ldap.protocol import SearchRequest
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.clock import WallClock
from repro.net.transport import ConnectionClosed
from repro.testbed.metrics import fmt_table

QUICK = bool(os.environ.get("E19_QUICK"))
LADDER = [256] if QUICK else [1000, 5000]
TARGET = LADDER[-1]  # the ladder rung the reactor must fully sustain
POOL_ROUNDS = 20 if QUICK else 200
N_CHILDREN = 4
WAIT_S = 60.0 if QUICK else 240.0


def small_dit(extra=()):
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for entry in extra:
        dit.add(entry)
    return dit


def serve(dit, queue_limit=1024, workers=4):
    executor = RequestExecutor(workers=workers, queue_limit=queue_limit)
    server = LdapServer(DitBackend(dit), executor=executor)
    endpoint = ReactorEndpoint()
    port = endpoint.listen(0, server.handle_connection)
    return endpoint, port, executor


def dial(endpoint, port, attempts=3):
    for attempt in range(attempts):
        try:
            return endpoint.connect(("127.0.0.1", port))
        except ConnectionClosed:
            if attempt == attempts - 1:
                return None
            time.sleep(0.05 * (attempt + 1))


# -- part A: concurrency ladder ---------------------------------------------


def concurrency_run(n_clients):
    """N live connections, one search each, all in flight at once.

    Server and clients each run on their own endpoint: one loop thread
    for the N accepted sockets, one for the N dialed ones.
    """
    endpoint, port, executor = serve(small_dit(), queue_limit=4 * n_clients)
    backend_endpoint = ReactorEndpoint()  # client side
    row = {
        "clients": n_clients,
        "dial_failures": 0,
        "completed": 0,
        "errors": 0,
    }
    clients = []
    try:
        started = time.perf_counter()
        for _ in range(n_clients):
            conn = dial(backend_endpoint, port)
            if conn is None:
                row["dial_failures"] += 1
                continue
            clients.append(LdapClient(conn))
        row["dial_s"] = round(time.perf_counter() - started, 3)

        done = threading.Event()
        lock = threading.Lock()
        outcomes = {"ok": 0, "bad": 0}

        def on_done(result, error):
            with lock:
                outcomes["ok" if error is None else "bad"] += 1
                if outcomes["ok"] + outcomes["bad"] == len(clients):
                    done.set()

        req = SearchRequest(base="o=Grid", scope=Scope.BASE)
        started = time.perf_counter()
        for client in clients:
            try:
                client.search_async(req, on_done)
            except Exception:  # noqa: BLE001 - counts as a failed client
                with lock:
                    outcomes["bad"] += 1
        finished = done.wait(timeout=WAIT_S)
        row["query_s"] = round(time.perf_counter() - started, 3)
        row["completed"] = outcomes["ok"]
        row["errors"] = outcomes["bad"] + row["dial_failures"]
        row["timed_out"] = not finished
    finally:
        backend_endpoint.close()
        endpoint.close()
        executor.shutdown()
    return row


# -- part B: pooled GIIS chaining -------------------------------------------


def chained_query_latencies(pooled):
    """Front GIIS chains a VO-wide search to N child servers over TCP.

    ``pooled=False`` emulates the pre-pool dial-per-query behavior by
    dropping every warm connection between queries.
    """
    clock = WallClock()
    child_endpoints = []
    executors = []
    try:
        child_ports = []
        for i in range(N_CHILDREN):
            entry = Entry(
                f"hn=r{i}, o=Grid", objectclass="computer", hn=f"r{i}"
            )
            ep, port, ex = serve(small_dit([entry]), workers=2)
            child_endpoints.append(ep)
            executors.append(ex)
            child_ports.append(port)

        chain_endpoint = ReactorEndpoint()
        child_endpoints.append(chain_endpoint)
        giis = GiisBackend(
            "o=Grid",
            clock=clock,
            connector=lambda url: chain_endpoint.connect((url.host, url.port)),
            child_timeout=10.0,
        )
        now = clock.now()
        for i, port in enumerate(child_ports):
            giis.apply_grrp(
                GrrpMessage(
                    service_url=f"ldap://127.0.0.1:{port}/",
                    timestamp=now,
                    valid_until=now + 3600.0,
                    metadata={"suffix": f"hn=r{i}, o=Grid"},
                )
            )

        front_executor = RequestExecutor(workers=4, queue_limit=256)
        executors.append(front_executor)
        front = ReactorEndpoint()
        child_endpoints.append(front)
        server = LdapServer(giis, clock=clock, executor=front_executor)
        port = front.listen(0, server.handle_connection)
        client = LdapClient(front.connect(("127.0.0.1", port)))

        latencies = []
        for _ in range(POOL_ROUNDS):
            if not pooled:
                giis.pool.clear()
            started = time.perf_counter()
            out = client.search("o=Grid", filter="(objectclass=computer)")
            latencies.append(time.perf_counter() - started)
            assert len(out) == N_CHILDREN, out.result.describe()
        dials = giis.metrics.counter("pool.dials").value
        giis.shutdown()
        return latencies, dials
    finally:
        for ep in child_endpoints:
            ep.close()
        for ex in executors:
            ex.shutdown()


def pctl(samples, q):
    return sorted(samples)[min(len(samples) - 1, int(q * len(samples)))]


def test_reactor_scale(report):
    rows = [concurrency_run(n) for n in LADDER]

    pooled_lat, pooled_dials = chained_query_latencies(pooled=True)
    dialed_lat, dialed_dials = chained_query_latencies(pooled=False)
    pool_rows = [
        (
            "pooled (warm)",
            round(statistics.median(pooled_lat) * 1000, 3),
            round(pctl(pooled_lat, 0.95) * 1000, 3),
            int(pooled_dials),
        ),
        (
            "dial-per-query",
            round(statistics.median(dialed_lat) * 1000, 3),
            round(pctl(dialed_lat, 0.95) * 1000, 3),
            int(dialed_dials),
        ),
    ]

    text = (
        f"concurrent clients over real loopback sockets "
        f"({'quick mode' if QUICK else 'full mode'})\n"
        + fmt_table(
            ["clients", "completed", "errors", "dial s", "query s",
             "timed out"],
            [
                (
                    r["clients"], r["completed"], r["errors"],
                    r["dial_s"], r["query_s"], r["timed_out"],
                )
                for r in rows
            ],
        )
        + f"\n\nGIIS chained VO-wide query to {N_CHILDREN} children, "
        + f"{POOL_ROUNDS} rounds\n"
        + fmt_table(
            ["child connections", "p50 ms", "p95 ms", "dials"], pool_rows
        )
        + "\n\nThe reactor multiplexes every connection on one thread, so"
        "\nthe ladder costs file descriptors, not stacks; the pool turns"
        "\nper-query child dials into a constant number of warm sockets."
    )
    report("E19_reactor_scale", text)

    results = {
        "experiment": "E19",
        "quick": QUICK,
        "concurrency": rows,
        "giis_chaining": {
            "children": N_CHILDREN,
            "rounds": POOL_ROUNDS,
            "pooled": {
                "p50_ms": pool_rows[0][1],
                "p95_ms": pool_rows[0][2],
                "dials": pool_rows[0][3],
            },
            "dial_per_query": {
                "p50_ms": pool_rows[1][1],
                "p95_ms": pool_rows[1][2],
                "dials": pool_rows[1][3],
            },
        },
    }
    if not QUICK:
        out = pathlib.Path(__file__).parents[1] / "BENCH_E19.json"
        out.write_text(json.dumps(results, indent=2) + "\n")

    # The reactor sustains the full ladder: every client answered.
    for r in rows:
        assert r["completed"] == r["clients"], r
        assert not r["timed_out"], r
    # Warm pooled chaining beats dialing every child per query.
    assert pool_rows[0][1] < pool_rows[1][1], pool_rows
    assert pooled_dials <= N_CHILDREN * 2  # bounded warm connections
    assert dialed_dials >= N_CHILDREN * (POOL_ROUNDS - 1)
