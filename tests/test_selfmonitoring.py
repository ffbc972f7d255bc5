"""PR-9 self-monitoring layer: exposition, time-series, health, fleet.

Covers the observability tentpole end to end:

* Prometheus text exposition — golden-file comparison plus a
  line-grammar lint and a parse round-trip;
* :class:`TimeSeriesRecorder` — ring wraparound, counter rates, and
  windowed histogram quantiles under the deterministic simulator clock;
* one-snapshot consistency — ``collect()`` under a concurrent writer
  and ``cn=monitor`` rendering from a single pass;
* :class:`HealthModel` — threshold verdicts and the Mds-Server-* map;
* the self-provider — health entries appearing in a chained GIIS
  search over real sockets and on the simulator.
"""

import contextlib
import pathlib
import re
import threading
import time

import pytest

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.gris.core import GrisBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.server import LdapServer
from repro.net import Reactor
from repro.net.clock import WallClock
from repro.net.sim import Simulator
from repro.obs import (
    HealthModel,
    HealthThresholds,
    MetricsHttpServer,
    MetricsRegistry,
    MonitorBackend,
    TimeSeriesRecorder,
    parse_exposition,
    render_exposition,
)

from .wire import WIRES, open_wire

GOLDEN = pathlib.Path(__file__).parent / "data" / "exposition.golden"


def golden_registry() -> MetricsRegistry:
    """The fixed instrument population behind the golden file."""
    m = MetricsRegistry()
    m.counter("ldap.requests", {"op": "search"}).inc(42)
    m.counter("ldap.requests", {"op": "add"}).inc(3)
    m.gauge("ldap.executor.queue.depth", {"pool": "front"}).set(7)
    m.gauge_fn("storage.entries", lambda: 1234.0)
    h = m.histogram(
        "ldap.request.seconds", {"op": "search"},
        buckets=(0.001, 0.01, 0.1, 1.0),
    )
    for v in (0.0005, 0.005, 0.005, 0.05, 2.0):
        h.observe(v)
    m.counter("weird-family.name", {"la-bel": 'quo"te\\back\nnl'}).inc(1)
    return m


class TestExposition:
    def test_golden_file(self):
        text = render_exposition(golden_registry().collect())
        assert text == GOLDEN.read_text()

    def test_line_grammar(self):
        """Every emitted line matches the 0.0.4 grammar exactly."""
        help_re = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
        type_re = re.compile(
            r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
            r"(counter|gauge|histogram|summary|untyped)$"
        )
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})?'
            r" (NaN|[+-]?Inf|-?\d+(\.\d+)?([eE][+-]?\d+)?)$"
        )
        text = render_exposition(golden_registry().collect())
        assert text.endswith("\n")
        seen_samples = 0
        for line in text.splitlines():
            if line.startswith("# HELP"):
                assert help_re.match(line), line
            elif line.startswith("# TYPE"):
                assert type_re.match(line), line
            else:
                assert sample_re.match(line), line
                seen_samples += 1
        assert seen_samples >= 10

    def test_parse_roundtrip(self):
        families = parse_exposition(
            render_exposition(golden_registry().collect())
        )
        assert families["ldap_requests"]["type"] == "counter"
        values = {
            labels["op"]: value
            for _n, labels, value in families["ldap_requests"]["samples"]
        }
        assert values == {"search": 42.0, "add": 3.0}

        hist = families["ldap_request_seconds"]
        assert hist["type"] == "histogram"
        buckets = {
            labels["le"]: value
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        }
        assert buckets["+Inf"] == 5.0 and buckets["0.01"] == 3.0
        count = [
            v for n, _l, v in hist["samples"] if n.endswith("_count")
        ]
        assert count == [5.0]

        # escaping survives the round trip
        weird = families["weird_family_name"]["samples"][0]
        assert weird[1]["la_bel"] == 'quo"te\\back\nnl'

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not { a metric line\n")
        with pytest.raises(ValueError):
            parse_exposition("# TYPE foo flavor\n")

    def test_http_server_serves_consistent_page(self):
        m = golden_registry()
        reactor = Reactor()
        server = MetricsHttpServer(m, reactor)
        try:
            port = server.start(0)
            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as resp:
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            assert parse_exposition(body)["ldap_requests"]["type"] == "counter"
        finally:
            server.close()
            reactor.stop()


class TestTimeSeries:
    def test_ring_wraparound(self):
        sim = Simulator()
        m = MetricsRegistry()
        c = m.counter("reqs")
        rec = TimeSeriesRecorder(m, sim, interval=1.0, capacity=4)
        for i in range(10):
            c.inc()
            rec.sample()
            sim.run_for(1.0)
        assert rec.samples_taken == 10
        points = rec.series("reqs")
        # only the newest `capacity` rows survive, oldest first
        assert len(points) == 4
        assert [v for _t, v in points] == [7.0, 8.0, 9.0, 10.0]

    def test_rate_under_fake_clock(self):
        sim = Simulator()
        m = MetricsRegistry()
        c = m.counter("reqs")
        rec = TimeSeriesRecorder(m, sim, interval=1.0, capacity=100)
        rec.start()
        for _ in range(10):
            sim.run_for(1.0)  # fires the tick, then we add load
            c.inc(5)
        rec.stop()
        assert rec.samples_taken == 10
        # 5 increments per simulated second between samples
        assert rec.rate("reqs") == pytest.approx(5.0)
        # a narrow window sees the same steady rate
        assert rec.rate("reqs", window=3.0) == pytest.approx(5.0)
        # stopping really stops the resampling loop
        taken = rec.samples_taken
        sim.run_for(5.0)
        assert rec.samples_taken == taken

    def test_windowed_histogram_quantiles(self):
        sim = Simulator()
        m = MetricsRegistry()
        h = m.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        rec = TimeSeriesRecorder(m, sim, interval=1.0, capacity=100)
        rec.sample()  # t=0 baseline
        # old traffic: slow requests that must NOT pollute the window
        for _ in range(100):
            h.observe(0.5)
        sim.run_for(10.0)
        rec.sample()  # t=10: the slow wave landed in (0, 10]
        # recent traffic: fast requests only
        for _ in range(100):
            h.observe(0.005)
        sim.run_for(1.0)
        rec.sample()  # t=11: the fast wave landed in (10, 11]
        stats = rec.window_stats("lat", window=2.0)
        assert stats is not None
        assert stats["count"] == 100.0
        assert stats["mean"] == pytest.approx(0.005)
        # every windowed observation sits in the (0.001, 0.01] bucket
        assert 0.001 < stats["p95"] <= 0.01
        # the full-history window still sees the old slow half
        full = rec.window_stats("lat", window=None)
        assert full["count"] == 200.0
        assert full["p95"] > 0.1

    def test_window_stats_needs_two_samples(self):
        sim = Simulator()
        m = MetricsRegistry()
        m.histogram("lat").observe(0.1)
        rec = TimeSeriesRecorder(m, sim, interval=1.0)
        rec.sample()
        assert rec.window_stats("lat") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), Simulator(), interval=0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), Simulator(), capacity=1)


class TestCollectConsistency:
    def test_collect_under_concurrent_writes(self):
        """Snapshots taken during a write storm stay monotone."""
        m = MetricsRegistry()
        c = m.counter("hits")
        h = m.histogram("lat", buckets=(0.01, 0.1))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                c.inc()
                h.observe(0.05)

        writer = threading.Thread(target=hammer, daemon=True)
        writer.start()
        try:
            last_hits = -1.0
            for _ in range(200):
                snap = m.collect()
                hits = snap.value("hits")
                assert hits >= last_hits
                last_hits = hits
                hist = snap.get("lat").data
                # internally consistent: +Inf bucket equals the count
                assert hist["buckets"][-1][1] == hist["count"]
        finally:
            stop.set()
            writer.join(timeout=5)

    def test_monitor_entries_single_snapshot(self):
        m = golden_registry()
        clock = Simulator()
        health = HealthModel(m, clock, server_id="unit-test")
        backend = MonitorBackend(m, server_name="unit", health=health)
        entries = backend.entries()
        dns = [str(e.dn) for e in entries]
        assert any(d.startswith("cn=health") for d in dns)
        # one entry per instrument plus root and health
        assert len(entries) == len(m.collect()) + 2
        hist = next(
            e for e in entries
            if e.first("mdsmetricname", "").startswith("ldap.request.seconds")
        )
        # interpolated quantiles from the shared estimator
        assert float(hist.first("mdsp50")) == pytest.approx(0.00775)
        assert float(hist.first("mdsp99")) == 2.0  # clamps to observed max


class TestHealthModel:
    def test_healthy_when_quiet(self):
        m = MetricsRegistry()
        health = HealthModel(m, Simulator(), server_id="s1")
        report = health.report()
        assert report.status == "healthy"
        assert report.live and report.ready

    def test_queue_saturation_escalates(self):
        m = MetricsRegistry()
        m.gauge("ldap.executor.queue.depth", {"pool": "x"}).set(80)
        m.gauge("ldap.executor.queue.limit", {"pool": "x"}).set(100)
        health = HealthModel(m, Simulator(), server_id="s1")
        report = health.report()
        assert report.status == "degraded"
        assert report.ready  # degraded still serves

        m.gauge("ldap.executor.queue.depth", {"pool": "x"}).set(99)
        report = health.report()
        assert report.status == "unhealthy"
        assert report.live and not report.ready

    def test_thresholds_are_tunable(self):
        m = MetricsRegistry()
        m.gauge("ldap.executor.queue.depth", {"pool": "x"}).set(50)
        m.gauge("ldap.executor.queue.limit", {"pool": "x"}).set(100)
        lax = HealthThresholds(
            queue_saturation_warn=0.9, queue_saturation_crit=0.99
        )
        strict = HealthThresholds(
            queue_saturation_warn=0.1, queue_saturation_crit=0.2
        )
        sim = Simulator()
        assert HealthModel(m, sim, thresholds=lax).report().status == "healthy"
        assert (
            HealthModel(m, sim, thresholds=strict).report().status
            == "unhealthy"
        )

    def test_attrs_shape(self):
        m = MetricsRegistry()
        m.counter("ldap.requests", {"op": "search"}).inc(10)
        sim = Simulator()
        health = HealthModel(m, sim, server_id="giis-a")
        sim.run_until(5.0)  # 5s of uptime after the model starts
        attrs = health.attrs()
        assert attrs["Mds-Server-Id"] == "giis-a"
        assert attrs["Mds-Server-Health"] == "healthy"
        assert attrs["Mds-Server-Live"] == "TRUE"
        assert attrs["Mds-Server-Rps"] == pytest.approx(2.0)  # 10 req / 5 s
        entry = health.entry("mds-server-name=giis-a, o=grid")
        assert "mdsserver" in entry.get("objectclass")


@contextlib.contextmanager
def _wire_fleet(wire):
    """One self-monitoring GRIS chained behind a self-monitoring GIIS;
    yields the GIIS's address."""
    clock = wire.clock
    gris_metrics = MetricsRegistry()
    gris = GrisBackend("o=Grid", clock, metrics=gris_metrics)
    gris.enable_self_monitor(
        HealthModel(gris_metrics, clock, server_id="gris-1")
    )
    gris_host, gris_port = wire.listen(
        LdapServer(gris, clock=clock).handle_connection
    )

    giis_metrics = MetricsRegistry()
    giis = GiisBackend(
        "o=Grid",
        clock=clock,
        connector=lambda url: wire.connect((url.host, url.port)),
        metrics=giis_metrics,
    )
    try:
        now = clock.now()
        giis.apply_grrp(
            GrrpMessage(
                service_url=f"ldap://{gris_host}:{gris_port}/",
                timestamp=now,
                valid_until=now + 3600.0,
                metadata={"suffix": "o=Grid"},
            )
        )
        giis.enable_self_monitor(
            HealthModel(giis_metrics, clock, server_id="giis-1")
        )
        yield wire.listen(LdapServer(giis, clock=clock).handle_connection)
    finally:
        giis.shutdown()


@pytest.mark.parametrize("transport", WIRES)
def test_self_provider_visible_through_chained_giis(transport):
    """Fleet health aggregates through ordinary GRIP chaining: one
    subtree search at the GIIS returns the GIIS's own health entry AND
    the chained GRIS's, over real sockets and on the simulator."""
    with open_wire(transport) as wire, _wire_fleet(wire) as giis_address:
        client = LdapClient(wire.connect(giis_address), driver=wire.driver)
        try:
            result = client.search(
                "o=Grid",
                Scope.SUBTREE,
                "(objectclass=mdsserver)",
                timeout=30.0,
            )
        finally:
            client.unbind()
        ids = sorted(
            e.first("Mds-Server-Id") for e in result.entries
        )
        assert ids == ["giis-1", "gris-1"]
        for entry in result.entries:
            assert entry.first("Mds-Server-Health") in (
                "healthy", "degraded", "unhealthy"
            )
            assert float(entry.first("Mds-Server-Uptime-Seconds")) >= 0.0
            assert entry.first("Mds-Server-Ready") in ("TRUE", "FALSE")


def test_recorder_on_wall_clock_smoke():
    """start()/stop() on the real clock: at least one interval fires."""
    m = MetricsRegistry()
    m.counter("reqs").inc()
    rec = TimeSeriesRecorder(m, WallClock(), interval=0.05, capacity=10)
    rec.start()
    try:
        deadline = time.time() + 5.0
        while rec.samples_taken < 2 and time.time() < deadline:
            time.sleep(0.02)
    finally:
        rec.stop()
    assert rec.samples_taken >= 2
    assert len(rec.series("reqs")) >= 2
