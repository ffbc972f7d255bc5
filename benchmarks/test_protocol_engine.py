"""E12 — §10.1: the protocol engine, timed end-to-end.

MDS-2.1's engine is "a standard protocol interpreter" handling
"authentication, data formatting, query interpretation, results
filtering, network connection management, and dispatch".  These benches
wall-clock the whole stack over real TCP loopback — search, bind, add —
and over the in-process path, separating wire cost from engine cost.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import pytest

from repro.ldap.backend import DitBackend, RequestContext
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.ldap.server import LdapServer
from repro.net.reactor import ReactorEndpoint


def seed_dit(n=100):
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    for i in range(n):
        host = f"host{i:03d}"
        dit.add(
            Entry(
                f"hn={host}, o=Grid",
                objectclass="computer",
                hn=host,
                system="linux" if i % 2 else "mips irix",
                cpucount=1 << (i % 5),
                load5=f"{(i % 60) / 10:.1f}",
            )
        )
    return dit


@pytest.fixture(scope="module")
def tcp_stack():
    endpoint = ReactorEndpoint()
    backend = DitBackend(seed_dit())
    server = LdapServer(backend)
    port = endpoint.listen(0, server.handle_connection)
    client = LdapClient(endpoint.connect(("127.0.0.1", port)))
    yield client, backend, server
    client.unbind()
    endpoint.close()


class TestOverTcp:
    def test_bench_search_selective(self, benchmark, tcp_stack):
        client, _, _ = tcp_stack
        out = benchmark(
            client.search,
            "o=Grid",
            Scope.SUBTREE,
            "(&(objectclass=computer)(load5<=1.0))",
        )
        assert len(out) > 0

    def test_bench_search_full_sweep(self, benchmark, tcp_stack):
        client, _, _ = tcp_stack
        out = benchmark(client.search, "o=Grid", Scope.SUBTREE, "(objectclass=computer)")
        assert len(out) == 100

    def test_bench_base_lookup(self, benchmark, tcp_stack):
        client, _, _ = tcp_stack
        out = benchmark(
            client.search, "hn=host007, o=Grid", Scope.BASE, "(objectclass=*)"
        )
        assert len(out) == 1

    def test_bench_bind(self, benchmark, tcp_stack):
        client, _, _ = tcp_stack
        result = benchmark(client.bind)
        assert result.ok

    def test_bench_add_delete_cycle(self, benchmark, tcp_stack):
        client, _, _ = tcp_stack
        entry = Entry("hn=bench, o=Grid", objectclass="computer", hn="bench")

        def cycle():
            client.add(entry)
            client.delete("hn=bench, o=Grid")

        benchmark(cycle)

    def test_bench_attribute_selection_saves_bytes(self, benchmark, tcp_stack, report):
        """§4.1: 'a subset of attributes ... reducing the amount of
        information that must be transmitted' — measured on the wire."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        client, _, _ = tcp_stack
        full = client.search("o=Grid", Scope.SUBTREE, "(objectclass=computer)")
        thin = client.search(
            "o=Grid", Scope.SUBTREE, "(objectclass=computer)", attrs=["hn"]
        )
        from repro.ldap.protocol import LdapMessage, SearchResultEntry, encode_message

        full_bytes = sum(
            len(encode_message(LdapMessage(1, SearchResultEntry.from_entry(e))))
            for e in full.entries
        )
        thin_bytes = sum(
            len(encode_message(LdapMessage(1, SearchResultEntry.from_entry(e))))
            for e in thin.entries
        )
        assert thin_bytes < full_bytes / 2
        report(
            "E12_attr_selection",
            f"full entries: {full_bytes} bytes on the wire\n"
            f"hn-only:      {thin_bytes} bytes on the wire\n"
            f"reduction:    {(1 - thin_bytes / full_bytes) * 100:.0f}%",
        )


class TestEngineOnly:
    """The same operations without sockets: engine cost in isolation."""

    @pytest.fixture(scope="class")
    def backend(self):
        return DitBackend(seed_dit())

    def test_bench_backend_search(self, benchmark, backend):
        req = SearchRequest(
            base="o=Grid",
            scope=Scope.SUBTREE,
            filter=parse_filter("(&(objectclass=computer)(load5<=1.0))"),
        )
        out = benchmark(backend.search, req, RequestContext())
        assert out.result.ok and len(out.entries) > 0


def test_report_throughput(tcp_stack, benchmark, report):
    """Sustained query throughput over one TCP connection."""
    import time

    client, _, server = tcp_stack

    def run():
        t0 = time.perf_counter()
        n = 200
        for i in range(n):
            client.search(
                f"hn=host{i % 100:03d}, o=Grid", Scope.BASE, "(objectclass=*)"
            )
        return n / (time.perf_counter() - t0)

    qps = benchmark.pedantic(run, rounds=1, iterations=1)
    counter = server.metrics.counter
    report(
        "E12_throughput",
        f"sustained base-lookup throughput over TCP loopback: {qps:.0f} queries/s\n"
        f"(server stats: {counter('ldap.requests', {'op': 'search'}).value:.0f} searches, "
        f"{counter('ldap.entries.returned').value:.0f} entries returned)",
    )
    assert qps > 100  # sanity: the engine is not pathologically slow


def test_report_server_latency_histogram(benchmark, report):
    """Server-side per-operation latency via the metrics snapshot API.

    Drives a metrics-instrumented stack (the same wiring as
    ``grid-info-server --monitor``) and reads the registry snapshot —
    the data a cn=monitor GRIP search would return — instead of timing
    from the client, separating engine latency from client overhead.
    """
    from repro.obs import MetricsRegistry, MonitorBackend, MonitoredBackend

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    metrics = MetricsRegistry()
    endpoint = ReactorEndpoint(metrics=metrics)
    backend = MonitoredBackend(
        DitBackend(seed_dit()), MonitorBackend(metrics, server_name="bench")
    )
    server = LdapServer(backend, metrics=metrics)
    port = endpoint.listen(0, server.handle_connection)
    client = LdapClient(endpoint.connect(("127.0.0.1", port)))
    try:
        for i in range(300):
            client.search(
                f"hn=host{i % 100:03d}, o=Grid", Scope.BASE, "(objectclass=*)"
            )
        snap = metrics.snapshot()
        hist = snap["ldap.request.seconds{op=search}"]
        frames = snap["tcp.frames.received"]["value"]
        # The same numbers, over the wire as cn=monitor entries:
        mon = client.search(
            "cn=monitor", Scope.SUBTREE, "(mdsmetrictype=histogram)"
        )
        assert any(
            e.first("mdsmetric") == "ldap.request.seconds" for e in mon.entries
        )
        report(
            "E12_server_latency",
            f"server-side search latency over {hist['count']} requests:\n"
            f"  mean {hist['mean'] * 1e6:.0f}us  p50 <= {hist['p50'] * 1e6:.0f}us  "
            f"p95 <= {hist['p95'] * 1e6:.0f}us  p99 <= {hist['p99'] * 1e6:.0f}us\n"
            f"  max {hist['max'] * 1e6:.0f}us  tcp frames in: {frames:.0f}",
        )
        assert hist["count"] >= 300
    finally:
        client.unbind()
        endpoint.close()
