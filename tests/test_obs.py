"""Observability subsystem + soft-state/transport regression tests.

Covers the metrics registry, trace spans, the GRIP-queryable
``cn=monitor`` subtree, and three regression fixes:

* an expired-but-unswept registration refreshed in place (no
  on_expire/on_register for the death-and-rebirth);
* ``ReactorConnection.set_receiver`` draining its backlog outside the
  lock while the loop delivers newer frames (out-of-order delivery);
* ``GiisBackend._client_for`` leaking the dialed connection when the
  GSI bind fails;

plus the fail-closed handling of malformed chain-depth controls.
"""

import threading
import time

import pytest

from repro.giis.core import (
    CHAIN_DEPTH_OID,
    GiisBackend,
    MALFORMED_CHAIN_DEPTH,
    _read_chain_depth,
)
from repro.grip.messages import GrrpMessage
from repro.grip.registry import SoftStateRegistry
from repro.gris import FunctionProvider, GrisBackend
from repro.ldap.backend import DitBackend, RequestContext
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import Control, ResultCode, SearchRequest
from repro.ldap.server import LdapServer
from repro.net.clock import WallClock
from repro.net.sim import Simulator
from repro.net.reactor import ReactorEndpoint
from repro.net.transport import ConnectionClosed
from repro.obs import (
    MetricsRegistry,
    MonitorBackend,
    MonitoredBackend,
    RingSink,
    Tracer,
)

from .wire import ber_seq

CTX = RequestContext()


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def req(base, scope=Scope.SUBTREE, filt="(objectclass=*)"):
    return SearchRequest(base=base, scope=scope, filter=parse_filter(filt))


def reg_msg(url="ldap://p1:2135/", ts=0.0, ttl=30.0, suffix="hn=r1, o=Grid"):
    return GrrpMessage(
        service_url=url,
        timestamp=ts,
        valid_until=ts + ttl,
        metadata={"suffix": suffix},
    )


# ---------------------------------------------------------------------------
# metrics primitives


class TestMetrics:
    def test_counter_identity_and_value(self):
        m = MetricsRegistry()
        c = m.counter("requests", {"op": "search"})
        assert m.counter("requests", {"op": "search"}) is c
        assert m.counter("requests", {"op": "bind"}) is not c
        c.inc()
        c.inc(2)
        assert c.value == 3
        assert c.full_name == "requests{op=search}"

    def test_gauge_and_gauge_fn(self):
        m = MetricsRegistry()
        g = m.gauge("depth")
        g.set(5)
        g.dec()
        assert g.value == 4
        live = [1, 2, 3]
        f = m.gauge_fn("live", lambda: len(live))
        assert f.value == 3
        live.append(4)
        assert f.value == 4

    def test_kind_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_histogram_buckets_and_quantiles(self):
        m = MetricsRegistry()
        h = m.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        for v in (0.0005, 0.005, 0.005, 0.05, 2.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(2.0605)
        cum = dict(h.cumulative())
        assert cum[0.001] == 1
        assert cum[0.01] == 3
        assert cum[0.1] == 4
        assert cum[1.0] == 4
        assert cum[float("inf")] == 5
        # Linear interpolation within the containing bucket: rank 2.5
        # sits 1.5/2 of the way through the (0.001, 0.01] bucket.
        assert h.quantile(0.5) == pytest.approx(0.00775)
        assert h.quantile(1.0) == 2.0  # overflow reports the observed max
        # Estimates never leave the observed [min, max] envelope.
        assert h.quantile(0.0) >= 0.0005

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.histogram("b", buckets=(1.0,)).observe(0.5)
        snap = m.snapshot()
        assert snap["a"] == {"type": "counter", "value": 1.0}
        assert snap["b"]["count"] == 1 and snap["b"]["type"] == "histogram"

    def test_namespace_prefix(self):
        m = MetricsRegistry(namespace="giis1")
        m.counter("chained").inc()
        assert "giis1.chained" in m.snapshot()

    def test_unregister_drops_one_label_set(self):
        m = MetricsRegistry()
        m.gauge("age", {"provider": "p1"}).set(5)
        m.gauge("age", {"provider": "p2"}).set(7)
        assert m.unregister("age", {"provider": "p1"})
        assert m.get("age", {"provider": "p1"}) is None
        assert m.get("age", {"provider": "p2"}).value == 7
        assert not m.unregister("age", {"provider": "p1"})  # already gone
        assert not m.unregister("nope")
        # Re-registering after unregister yields a fresh instrument.
        fresh = m.gauge("age", {"provider": "p1"})
        assert fresh.value == 0

    def test_unregister_respects_namespace(self):
        m = MetricsRegistry(namespace="gris1")
        m.counter("x").inc()
        assert m.unregister("x")
        assert "gris1.x" not in m.snapshot()


class TestTracer:
    def test_span_tree_and_sink(self):
        sink = RingSink(capacity=16)
        clock = Simulator()
        tracer = Tracer(clock.now, sinks=(sink,))
        root = tracer.start("search", base="o=Grid")
        child = root.child("chain", fanout=2)
        child.finish()
        root.finish()
        spans = sink.spans()
        assert [s.name for s in spans] == ["chain", "search"]
        assert spans[0].trace_id == spans[1].trace_id
        assert spans[0].parent is root
        assert spans[1].tags["base"] == "o=Grid"

    def test_finish_idempotent_and_sink_errors_swallowed(self):
        tracer = Tracer(Simulator().now, sinks=(lambda s: 1 / 0,))
        span = tracer.start("op")
        span.finish()
        span.finish()  # no double emission, no exception

    def test_ring_capacity(self):
        sink = RingSink(capacity=3)
        tracer = Tracer(Simulator().now, sinks=(sink,))
        for i in range(5):
            tracer.start(f"s{i}").finish()
        assert [s.name for s in sink.spans()] == ["s2", "s3", "s4"]


# ---------------------------------------------------------------------------
# cn=monitor


class TestMonitorBackend:
    def test_entries_and_scopes(self):
        m = MetricsRegistry()
        m.counter("giis.chained").inc(7)
        mon = MonitorBackend(m, server_name="srv1")
        base = mon.search(req("cn=monitor", Scope.BASE), CTX)
        assert len(base.entries) == 1
        assert base.entries[0].first("servername") == "srv1"
        sub = mon.search(
            req("cn=monitor", filt="(mdsmetrictype=counter)"), CTX
        )
        assert len(sub.entries) == 1
        entry = sub.entries[0]
        assert entry.dn == DN.parse("mdsmetricname=giis.chained, cn=monitor")
        assert entry.first("mdsvalue") == "7"

    def test_labels_become_attributes(self):
        m = MetricsRegistry()
        m.counter("ldap.requests", {"op": "search"}).inc()
        mon = MonitorBackend(m)
        out = mon.search(
            req("cn=monitor", filt="(&(mdsmetric=ldap.requests)(op=search))"), CTX
        )
        assert len(out.entries) == 1
        assert out.entries[0].first("mdsmetricname") == "ldap.requests:op:search"

    def test_histogram_rendering(self):
        m = MetricsRegistry()
        h = m.histogram("lat", buckets=(0.01, 0.1))
        h.observe(0.05)
        h.observe(0.2)
        mon = MonitorBackend(m)
        (entry,) = mon.search(
            req("cn=monitor", filt="(mdsmetrictype=histogram)"), CTX
        ).entries
        assert entry.first("mdscount") == "2"
        assert entry.first("mdsbucket-0.1") == "1"
        assert entry.first("mdsbucket-inf") == "2"
        assert entry.first("mdsp50") == "0.1"

    def test_outside_base_is_no_such_object(self):
        mon = MonitorBackend(MetricsRegistry())
        out = mon.search(req("o=Elsewhere"), CTX)
        assert out.result.code == ResultCode.NO_SUCH_OBJECT

    def test_monitored_backend_routes_and_merges(self):
        dit = DIT()
        dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
        m = MetricsRegistry()
        m.counter("c").inc()
        wrapped = MonitoredBackend(DitBackend(dit), MonitorBackend(m))
        assert "cn=monitor" in wrapped.naming_contexts()
        data = wrapped.search(req("o=Grid"), CTX)
        assert len(data.entries) == 1
        mon = wrapped.search(req("cn=monitor"), CTX)
        assert len(mon.entries) == 2  # root + one metric
        # a root-based subtree search sees both worlds
        both = wrapped.search(req("", Scope.SUBTREE), CTX)
        dns = {str(e.dn) for e in both.entries}
        assert "o=Grid" in dns and "cn=monitor" in dns

    def test_monitor_subtree_read_only(self):
        from repro.ldap.protocol import AddRequest

        wrapped = MonitoredBackend(
            DitBackend(DIT()), MonitorBackend(MetricsRegistry())
        )
        result = wrapped.add(
            AddRequest.from_entry(Entry("cn=x, cn=monitor", objectclass="top")),
            CTX,
        )
        assert result.code == ResultCode.UNWILLING_TO_PERFORM


class TestMonitorOverGrip:
    """Acceptance: live counters served over the wire, next to the data."""

    def test_gris_serves_cn_monitor_over_tcp(self):
        metrics = MetricsRegistry()
        clock = WallClock()
        gris = GrisBackend("o=Grid", clock, metrics=metrics)
        gris.add_provider(
            FunctionProvider(
                "cpu",
                lambda: [Entry("hn=h1", objectclass="computer", hn="h1")],
                cache_ttl=60.0,
            )
        )
        backend = MonitoredBackend(
            gris, MonitorBackend(metrics, server_name="gris-1")
        )
        server = LdapServer(backend, clock=clock, metrics=metrics, name="gris-1")
        endpoint = ReactorEndpoint(metrics=metrics)
        port = endpoint.listen(0, server.handle_connection)
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        try:
            # The root DSE advertises both naming contexts.
            dse = client.search("", Scope.BASE, "(objectclass=*)")
            contexts = dse.entries[0].get("namingcontexts")
            assert "o=Grid" in contexts and "cn=monitor" in contexts

            # Ordinary data queries work unchanged.
            data = client.search("o=Grid", Scope.SUBTREE, "(objectclass=computer)")
            assert len(data.entries) == 1

            # BASE search under cn=monitor answers.
            root = client.search("cn=monitor", Scope.BASE, "(objectclass=*)")
            assert root.entries[0].first("servername") == "gris-1"

            # SUBTREE search returns live counters and histograms...
            out1 = client.search(
                "cn=monitor",
                Scope.SUBTREE,
                "(&(mdsmetric=ldap.requests)(op=search))",
            )
            v1 = int(out1.entries[0].first("mdsvalue"))
            hists = client.search(
                "cn=monitor", Scope.SUBTREE, "(mdsmetrictype=histogram)"
            )
            latency = [
                e
                for e in hists.entries
                if e.first("mdsmetric") == "ldap.request.seconds"
                and e.first("op") == "search"
            ]
            assert latency and int(latency[0].first("mdscount")) >= 1

            # ...that move across queries.
            out2 = client.search(
                "cn=monitor",
                Scope.SUBTREE,
                "(&(mdsmetric=ldap.requests)(op=search))",
            )
            v2 = int(out2.entries[0].first("mdsvalue"))
            assert v2 > v1

            # Attribute selection and types-only work on monitor entries.
            thin = client.search(
                "cn=monitor",
                Scope.SUBTREE,
                "(mdsmetric=gris.cache.hits)",
                attrs=["mdsvalue"],
            )
            assert thin.entries[0].attribute_names() == ["mdsvalue"]

            searches = metrics.counter("ldap.requests", {"op": "search"}).value
            assert searches >= 6
            assert metrics.counter("ldap.entries.returned").value > 0
            assert gris.cache.metrics.counter("gris.cache.misses").value >= 1
            assert metrics.counter("tcp.frames.received").value > 0
            snap = metrics.snapshot()
            assert snap["ldap.requests{op=search}"]["value"] == searches
        finally:
            client.unbind()
            endpoint.close()

    def test_tracer_wired_through_gris_search(self):
        sink = RingSink()
        clock = Simulator()
        tracer = Tracer(clock.now, sinks=(sink,))
        gris = GrisBackend("o=Grid", clock)
        gris.add_provider(
            FunctionProvider(
                "cpu", lambda: [Entry("hn=h1", objectclass="computer", hn="h1")]
            )
        )
        ctx = RequestContext()
        ctx.trace = tracer.start("ldap.search")
        gris.search(req("o=Grid"), ctx)
        ctx.trace.finish()
        names = [s.name for s in sink.spans()]
        assert "gris.provider" in names and "gris.collect" in names
        assert names[-1] == "ldap.search"


# ---------------------------------------------------------------------------
# regression: expired-but-unswept refresh must be a death-and-rebirth


class TestExpiredRefreshRebirth:
    def test_expire_and_register_both_fire(self):
        sim = Simulator()
        events = []
        reg = SoftStateRegistry(
            sim,
            on_register=lambda r: events.append(("register", r.first_seen)),
            on_expire=lambda r: events.append(("expire", r.service_url)),
        )
        assert reg.apply(reg_msg(ts=0.0, ttl=30.0))
        sim.run_until(31.0)  # past expiry; nothing swept yet (no reads)
        assert reg.apply(reg_msg(ts=31.0, ttl=30.0))
        assert events == [
            ("register", 0.0),
            ("expire", "ldap://p1:2135/"),
            ("register", 31.0),
        ]
        assert reg.metrics.counter("grrp.expired").value == 1
        record = reg.lookup("ldap://p1:2135/")
        assert record is not None
        assert record.refresh_count == 0  # a fresh life, not a refresh
        assert record.first_seen == 31.0

    def test_live_refresh_still_in_place(self):
        sim = Simulator()
        events = []
        reg = SoftStateRegistry(
            sim,
            on_register=lambda r: events.append("register"),
            on_expire=lambda r: events.append("expire"),
        )
        reg.apply(reg_msg(ts=0.0, ttl=30.0))
        sim.run_until(20.0)
        reg.apply(reg_msg(ts=20.0, ttl=30.0))
        assert events == ["register"]
        assert reg.lookup("ldap://p1:2135/").refresh_count == 1

    def test_grace_respected_for_rebirth(self):
        sim = Simulator()
        events = []
        reg = SoftStateRegistry(
            sim, grace=1.0, on_expire=lambda r: events.append("expire")
        )
        reg.apply(reg_msg(ts=0.0, ttl=30.0))
        sim.run_until(45.0)  # within the grace window: still alive
        reg.apply(reg_msg(ts=45.0, ttl=30.0))
        assert events == []
        assert reg.lookup("ldap://p1:2135/").refresh_count == 1


# ---------------------------------------------------------------------------
# regression: backlog drain must serialize with the loop thread


class TestReceiverSwapOrdering:
    def test_backlog_and_live_frames_stay_ordered(self):
        endpoint = ReactorEndpoint()
        try:
            total = 300
            server_conns = []
            port = endpoint.listen(0, server_conns.append)
            conn = endpoint.connect(("127.0.0.1", port))
            assert wait_for(lambda: bool(server_conns))
            sc = server_conns[0]

            def pump():
                for i in range(total):
                    sc.send(ber_seq(i.to_bytes(4, "big")))
                    time.sleep(0.0003)

            sender = threading.Thread(target=pump, daemon=True)
            sender.start()
            time.sleep(0.03)  # let a backlog accumulate before any receiver

            got = []

            def slow_receiver(raw):
                if len(got) < 80:
                    # widen the race window: the loop thread is
                    # delivering newer frames while we drain the backlog
                    time.sleep(0.0005)
                got.append(int.from_bytes(raw[2:], "big"))

            conn.set_receiver(slow_receiver)
            sender.join(10.0)
            assert wait_for(lambda: len(got) == total, timeout=10.0)
            assert got == list(range(total))
            conn.close()
        finally:
            endpoint.close()

    def test_swap_receiver_mid_stream(self):
        endpoint = ReactorEndpoint()
        try:
            server_conns = []
            port = endpoint.listen(0, server_conns.append)
            conn = endpoint.connect(("127.0.0.1", port))
            assert wait_for(lambda: bool(server_conns))
            sc = server_conns[0]
            first, second = [], []
            conn.set_receiver(first.append)
            sc.send(ber_seq(b"a"))
            assert wait_for(lambda: first == [ber_seq(b"a")])
            conn.set_receiver(second.append)
            sc.send(ber_seq(b"b"))
            assert wait_for(lambda: second == [ber_seq(b"b")])
            assert first == [ber_seq(b"a")]
        finally:
            endpoint.close()


# ---------------------------------------------------------------------------
# regression: failed GSI bind must release the dialed connection


class _DeadConn:
    """A Connection whose first send fails (bind never leaves the host)."""

    def __init__(self):
        self.close_count = 0
        self.peer = ("child", 2135)
        self.local = ("giis", 0)

    def set_receiver(self, cb):
        pass

    def set_close_handler(self, cb):
        pass

    def send(self, raw):
        raise ConnectionClosed("dialed but immediately dead")

    def close(self):
        self.close_count += 1


class TestBindFailureCleanup:
    def _giis_with_credential(self, dialed):
        import random

        from repro.security import CertificateAuthority

        rng = random.Random(7)
        ca = CertificateAuthority("CN=TestCA", rng=rng, bits=256)
        cred = ca.issue("CN=giis", rng=rng, bits=256)

        def connector(url):
            conn = _DeadConn()
            dialed.append(conn)
            return conn

        sim = Simulator()
        return GiisBackend(
            "o=Grid", clock=sim, connector=connector, credential=cred
        )

    def test_connection_closed_and_not_cached(self):
        dialed = []
        giis = self._giis_with_credential(dialed)
        for attempt in range(3):  # every retry against the flaky child
            client = giis._client_for("ldap://child:2135/")
            assert client is None
        assert len(dialed) == 3
        assert all(c.close_count == 1 for c in dialed)  # no leaked sockets
        assert len(giis.pool) == 0  # no half-bound client pooled


# ---------------------------------------------------------------------------
# malformed chain-depth controls fail closed


class TestMalformedChainDepth:
    def _malformed_control(self):
        return Control(CHAIN_DEPTH_OID, False, b"\xff\x00garbage")

    def test_read_chain_depth_fails_closed(self):
        assert _read_chain_depth(()) == 0
        assert (
            _read_chain_depth((self._malformed_control(),))
            == MALFORMED_CHAIN_DEPTH
        )
        assert MALFORMED_CHAIN_DEPTH >= 1 << 20  # above any sane max depth

    def test_malformed_control_cannot_reset_cycle_depth(self):
        """A garbled control must not restart the chase: the GIIS answers
        locally instead of fanning out with a fresh depth of zero."""
        sim = Simulator()

        def must_not_dial(url):
            raise AssertionError("GIIS chained on a malformed depth control")

        giis = GiisBackend("o=Grid", clock=sim, connector=must_not_dial)
        giis.apply_grrp(reg_msg(url="ldap://child:2135/", suffix="hn=r1, o=Grid"))
        ctx = RequestContext(controls=(self._malformed_control(),))
        out = giis.search(req("o=Grid"), ctx)
        assert out.result.ok and out.entries  # partial results, not an error
        assert giis.metrics.counter("giis.depth_limited").value == 1
        assert giis.metrics.counter("giis.chained").value == 0

    def test_well_formed_depth_still_chains_until_limit(self):
        from repro.giis.core import _chain_depth_control

        depth = _read_chain_depth((_chain_depth_control(3),))
        assert depth == 3
