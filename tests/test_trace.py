"""Distributed tracing: ids, sampling, export, propagation, and the CLI.

The headline property (ISSUE 4's acceptance criterion): a chained query
through one GIIS and two GRIS children produces JSONL spans on every
server sharing ONE trace id, and grid-info-trace renders them as a
single tree with correct parent/child edges — in both simulator and TCP
modes.  Plus the reverse of the fail-closed chain-depth test: the trace
control is non-critical, so a malformed payload is ignored, never an
error.
"""

import io
import json
import time

import pytest

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.grip.registration import Inviter, Registrant
from repro.gris.config import ConfigError, load_config
from repro.ldap.backend import RequestContext
from repro.ldap.client import LdapClient
from repro.ldap.dit import Scope
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import (
    TRACE_CONTEXT_OID,
    Control,
    ProtocolError,
    SearchRequest,
    TraceContext,
)
from repro.ldap.server import LdapServer
from repro.net.sim import Simulator
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    MonitorBackend,
    MonitoredBackend,
    RingSink,
    SlowSpanLog,
    Tracer,
    format_traceparent,
    parse_traceparent,
    span_record,
)
from repro.testbed import GridTestbed
from repro.tools.grid_info_trace import main as trace_main, render_traces


def make_tracer(clock=None, seed=0, **kwargs):
    clock = clock or Simulator()
    return Tracer(clock.now, seed=seed, **kwargs), clock


# ---------------------------------------------------------------------------
# ids: hex, unique, seedable


class TestIds:
    def test_hex_id_shapes(self):
        tracer, _ = make_tracer()
        span = tracer.start("op")
        assert len(span.trace_id) == 32 and len(span.span_id) == 16
        int(span.trace_id, 16)
        int(span.span_id, 16)

    def test_ids_unique_within_tracer(self):
        tracer, _ = make_tracer()
        spans = [tracer.start("op") for _ in range(100)]
        assert len({s.trace_id for s in spans}) == 100
        assert len({s.span_id for s in spans}) == 100

    def test_seeded_tracers_are_deterministic(self):
        a, _ = make_tracer(seed=42)
        b, _ = make_tracer(seed=42)
        assert [a.start("x").trace_id for _ in range(3)] == [
            b.start("x").trace_id for _ in range(3)
        ]

    def test_different_seeds_diverge(self):
        a, _ = make_tracer(seed=1)
        b, _ = make_tracer(seed=2)
        assert a.start("x").trace_id != b.start("x").trace_id

    def test_child_shares_trace_id(self):
        tracer, _ = make_tracer()
        root = tracer.start("root")
        child = root.child("child")
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.parent is root

    def test_remote_parenting(self):
        tracer, _ = make_tracer()
        span = tracer.start("op", remote=("ab" * 16, "cd" * 8, True))
        assert span.trace_id == "ab" * 16
        assert span.parent.span_id == "cd" * 8
        assert span.sampled

    def test_traceparent_round_trip(self):
        text = format_traceparent("ab" * 16, "cd" * 8, False)
        assert parse_traceparent(text) == ("ab" * 16, "cd" * 8, False)
        assert parse_traceparent("junk") is None
        assert parse_traceparent("00-short-" + "cd" * 8 + "-01") is None


# ---------------------------------------------------------------------------
# head-based sampling


class TestSampling:
    def test_unsampled_roots_skip_sinks(self):
        sink = RingSink()
        metrics = MetricsRegistry()
        tracer, _ = make_tracer(metrics=metrics, sample_rate=0.0)
        tracer.add_sink(sink)
        tracer.start("op").finish()
        assert sink.spans() == []
        assert metrics.get("trace.spans.started").value == 1
        assert metrics.get("trace.spans.finished").value == 1
        assert metrics.get("trace.spans.sampled_out").value == 1

    def test_sampled_roots_reach_sinks(self):
        sink = RingSink()
        metrics = MetricsRegistry()
        tracer, _ = make_tracer(metrics=metrics, sample_rate=1.0)
        tracer.add_sink(sink)
        tracer.start("op").finish()
        assert len(sink.spans()) == 1
        assert metrics.get("trace.spans.sampled_out").value == 0

    def test_children_inherit_root_decision(self):
        tracer, _ = make_tracer(sample_rate=0.0)
        root = tracer.start("root")
        assert not root.child("child").sampled
        # raising the rate later cannot resurrect this tree
        tracer.sample_rate = 1.0
        assert not root.child("late-child").sampled

    def test_remote_decision_is_honored(self):
        sink = RingSink()
        tracer, _ = make_tracer(sample_rate=1.0)
        tracer.add_sink(sink)
        span = tracer.start("op", remote=("ab" * 16, "cd" * 8, False))
        assert not span.sampled
        span.finish()
        assert sink.spans() == []


# ---------------------------------------------------------------------------
# satellites: duration clamp, ring bounds


class TestDurationClamp:
    def test_clock_rewind_clamps_to_zero(self):
        metrics = MetricsRegistry()
        sim = Simulator()
        tracer = Tracer(sim.now, metrics=metrics)
        sim.run_for(10.0)
        span = tracer.start("op")
        # a fresh simulator = the clock rewound under the open span
        tracer.now = Simulator().now
        span.finish()
        assert span.duration == 0.0
        assert metrics.get("trace.clock_skew").value >= 1

    def test_normal_duration_unaffected(self):
        sim = Simulator()
        metrics = MetricsRegistry()
        tracer = Tracer(sim.now, metrics=metrics)
        span = tracer.start("op")
        sim.run_for(2.0)
        span.finish()
        assert span.duration == pytest.approx(2.0)
        assert metrics.get("trace.clock_skew").value == 0


class TestRingSink:
    def test_eviction_counts_drops(self):
        metrics = MetricsRegistry()
        sink = RingSink(capacity=3, metrics=metrics)
        tracer, _ = make_tracer()
        tracer.add_sink(sink)
        spans = [tracer.start(f"op{i}") for i in range(5)]
        for span in spans:
            span.finish()
        assert [s.name for s in sink.spans()] == ["op2", "op3", "op4"]
        assert sink.dropped == 2
        assert metrics.get("trace.ring.dropped").value == 2
        assert metrics.get("trace.ring.size").value == 3

    def test_works_without_registry(self):
        sink = RingSink(capacity=1)
        tracer, _ = make_tracer()
        tracer.add_sink(sink)
        tracer.start("a").finish()
        tracer.start("b").finish()
        assert sink.dropped == 1


# ---------------------------------------------------------------------------
# JSONL export


class TestJsonlSink:
    def test_record_schema(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, server_id="giis:2135")
        tracer, sim = make_tracer()
        tracer.add_sink(sink)
        root = tracer.start("root", base="o=Grid")
        child = root.child("child")
        sim.run_for(1.0)
        child.finish()
        root.finish()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(records) == 2
        child_rec, root_rec = records
        assert root_rec["v"] == 1
        assert root_rec["server_id"] == "giis:2135"
        assert root_rec["parent_span_id"] is None
        assert root_rec["tags"] == {"base": "o=Grid"}
        assert child_rec["parent_span_id"] == root_rec["span_id"]
        assert child_rec["trace_id"] == root_rec["trace_id"]
        assert child_rec["duration"] == pytest.approx(1.0)

    def test_file_path_mode(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(path, server_id="s1")
        tracer, _ = make_tracer()
        tracer.add_sink(sink)
        tracer.start("op").finish()
        sink.close()
        tracer.start("after-close").finish()  # swallowed, not an error
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "op"

    def test_server_id_falls_back_to_tracer(self):
        buf = io.StringIO()
        tracer, _ = make_tracer(server_id="from-tracer")
        tracer.add_sink(JsonlSink(buf))
        tracer.start("op").finish()
        assert json.loads(buf.getvalue())["server_id"] == "from-tracer"


# ---------------------------------------------------------------------------
# slow-query log


class TestSlowSpanLog:
    def _tree(self, tracer, sim, root_seconds):
        root = tracer.start("ldap.search")
        child = root.child("gris.collect")
        sim.run_for(root_seconds)
        child.finish()
        root.finish()
        return root

    def test_fast_trees_discarded_slow_captured(self):
        metrics = MetricsRegistry()
        log = SlowSpanLog(threshold_ms=500.0, metrics=metrics)
        tracer, sim = make_tracer(metrics=metrics)
        tracer.add_sink(log)
        self._tree(tracer, sim, 0.1)  # 100ms: fast
        slow_root = self._tree(tracer, sim, 2.0)  # 2s: slow
        captured = log.slow_traces()
        assert len(captured) == 1
        root, tree = captured[0]
        assert root is slow_root
        assert [s.name for s in tree] == ["gris.collect", "ldap.search"]
        assert metrics.get("trace.slow.captured").value == 1

    def test_capacity_eviction(self):
        log = SlowSpanLog(threshold_ms=0.0, capacity=2)
        tracer, sim = make_tracer()
        tracer.add_sink(log)
        roots = [self._tree(tracer, sim, 0.5) for _ in range(4)]
        kept = [root for root, _ in log.slow_traces()]
        assert kept == roots[2:]

    def test_abandoned_traces_bounded(self):
        log = SlowSpanLog(threshold_ms=0.0, max_pending=4)
        tracer, _ = make_tracer()
        tracer.add_sink(log)
        parents = [tracer.start(f"root{i}") for i in range(10)]
        for parent in parents:
            parent.child("child").finish()  # child finishes, root never does
        assert len(log._pending) <= 4

    def test_remote_parented_root_resolves_tree(self):
        log = SlowSpanLog(threshold_ms=0.0)
        tracer, _ = make_tracer()
        tracer.add_sink(log)
        span = tracer.start("ldap.search", remote=("ab" * 16, "cd" * 8, True))
        span.finish()
        assert len(log.slow_traces()) == 1

    def test_rendered_under_cn_slow(self):
        metrics = MetricsRegistry()
        log = SlowSpanLog(threshold_ms=0.0)
        tracer, sim = make_tracer(metrics=metrics, server_id="s1")
        tracer.add_sink(log)
        self._tree(tracer, sim, 1.0)
        monitor = MonitorBackend(metrics, slow_log=log)
        req = SearchRequest(
            base="cn=slow, cn=monitor",
            scope=Scope.SUBTREE,
            filter=parse_filter("(objectclass=mdsslowtrace)"),
        )
        out = monitor.search(req, RequestContext())
        assert len(out.entries) == 1
        entry = out.entries[0]
        records = [json.loads(v) for v in entry.get("mdsspan")]
        assert len(records) == 2
        assert entry.first("mdsrootname") == "ldap.search"
        assert float(entry.first("mdsrootms")) == pytest.approx(1000.0)
        assert {r["server_id"] for r in records} == {"s1"}


# ---------------------------------------------------------------------------
# the control: BER round-trip; malformed must be IGNORED (non-critical),
# the reverse of the fail-closed chain-depth behavior


class TestTraceContextControl:
    def test_round_trip(self):
        tc = TraceContext("ab" * 16, "cd" * 8, sampled=False)
        control = tc.to_control()
        assert control.oid == TRACE_CONTEXT_OID
        assert control.criticality is False
        assert TraceContext.from_control(control) == tc

    def test_malformed_raises_from_control(self):
        for value in (b"", b"\xff\x00garbage", b"\x30\x02\x04\x00"):
            with pytest.raises(ProtocolError):
                TraceContext.from_control(Control(TRACE_CONTEXT_OID, False, value))

    def test_bad_hex_rejected(self):
        # well-formed BER but non-hex ids must also be rejected
        from repro.ldap import ber

        body = (
            ber.encode_octet_string("Z" * 32)
            + ber.encode_octet_string("cd" * 8)
            + ber.encode_boolean(True)
        )
        with pytest.raises(ProtocolError):
            TraceContext.from_control(
                Control(TRACE_CONTEXT_OID, False, ber.encode_sequence(body))
            )

    def test_find_skips_malformed(self):
        malformed = Control(TRACE_CONTEXT_OID, False, b"junk")
        assert TraceContext.find((malformed,)) is None
        good = TraceContext("ab" * 16, "cd" * 8)
        assert TraceContext.find((good.to_control(),)) == good
        assert TraceContext.find(()) is None

    def test_malformed_control_does_not_fail_search(self):
        """Non-critical: a garbage trace control must leave the search
        untouched — unlike chain-depth, which fails closed."""
        tb = GridTestbed(seed=3)
        tracer = Tracer(tb.sim.now, seed=7)
        sink = RingSink()
        tracer.add_sink(sink)
        gris = tb.standard_gris("r0", "hn=r0, o=Grid", tracer=tracer)
        client = tb.client("user", gris)
        out = client.search(
            "hn=r0, o=Grid",
            filter="(objectclass=computer)",
            controls=(Control(TRACE_CONTEXT_OID, False, b"\xffgarbage"),),
        )
        assert len(out.entries) == 1  # the search succeeded
        roots = sink.spans("ldap.search")
        assert len(roots) == 1 and roots[0].parent is None  # fresh local trace
        # ...and the rejection was counted, not swallowed silently
        assert gris.server.metrics.get("trace.context.malformed").value == 1

    def test_wellformed_control_parents_root(self):
        tb = GridTestbed(seed=4)
        tracer = Tracer(tb.sim.now, seed=8)
        sink = RingSink()
        tracer.add_sink(sink)
        gris = tb.standard_gris("r0", "hn=r0, o=Grid", tracer=tracer)
        client = tb.client("user", gris)
        caller = TraceContext("ab" * 16, "cd" * 8, sampled=True)
        out = client.search(
            "hn=r0, o=Grid",
            filter="(objectclass=computer)",
            controls=(caller.to_control(),),
        )
        assert len(out.entries) == 1
        root = sink.spans("ldap.search")[0]
        assert root.trace_id == "ab" * 16
        assert root.parent.span_id == "cd" * 8


# ---------------------------------------------------------------------------
# GRRP correlation: invitation -> turn-around REGISTER -> intake span


class TestGrrpCorrelation:
    def test_invite_context_parents_intake(self):
        sim = Simulator()
        ring = RingSink()
        metrics = MetricsRegistry()
        tracer = Tracer(sim.now, sinks=(ring,), seed=5, metrics=metrics)
        giis = GiisBackend("o=Grid", clock=sim, tracer=tracer)
        registrant = Registrant(
            sim,
            "ldap://gris:2135/",
            send=lambda directory, message: giis.apply_grrp(message),
            interval=30.0,
            ttl=90.0,
        )
        inviter = Inviter(
            sim,
            "ldap://giis:2135/o=Grid",
            send=lambda provider, message: registrant.handle_invitation(
                message.metadata["directory"], message
            ),
        )
        invite_span = tracer.start("giis.invite")
        inviter.invite("gris", vo="VO-A", trace=invite_span)
        invite_span.finish()

        intakes = ring.spans("grrp.intake")
        assert len(intakes) == 1
        assert intakes[0].trace_id == invite_span.trace_id
        assert intakes[0].parent.span_id == invite_span.span_id
        assert metrics.get("trace.propagated").value == 1

        # steady-state refresh is NOT part of the invite trace
        sim.run_for(31.0)
        intakes = ring.spans("grrp.intake")
        assert len(intakes) == 2
        assert intakes[1].trace_id != invite_span.trace_id

    def test_trace_context_survives_both_encodings(self):
        ctx = format_traceparent("ab" * 16, "cd" * 8, True)
        message = GrrpMessage(
            service_url="ldap://g:2135/",
            timestamp=0.0,
            valid_until=60.0,
            trace_context=ctx,
        )
        assert GrrpMessage.from_bytes(message.to_bytes()).trace_context == ctx
        assert GrrpMessage.from_entry(message.to_entry("o=G")).trace_context == ctx
        plain = GrrpMessage(service_url="ldap://g:2135/", valid_until=1.0)
        assert GrrpMessage.from_bytes(plain.to_bytes()).trace_context == ""


# ---------------------------------------------------------------------------
# the acceptance criterion: one GIIS + two GRIS children, ONE trace id
# everywhere, rendered as a single tree — simulator mode


def traced_vo(tmp_path):
    """A testbed VO where every server exports JSONL spans."""
    tb = GridTestbed(seed=11)
    logs = {}
    tracers = {}
    for i, name in enumerate(("giis", "gris-a", "gris-b")):
        path = tmp_path / f"{name}.jsonl"
        tracer = Tracer(tb.sim.now, seed=100 + i, server_id=name)
        tracer.add_sink(JsonlSink(path, server_id=name))
        logs[name] = path
        tracers[name] = tracer
    giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", tracer=tracers["giis"])
    for name, host in (("gris-a", "ra"), ("gris-b", "rb")):
        gris = tb.standard_gris(
            host, f"hn={host}, o=Grid", tracer=tracers[name]
        )
        tb.register(gris, giis, interval=20.0, ttl=60.0, name=host)
    tb.run(1.0)
    return tb, giis, logs


def read_records(paths):
    records = []
    for path in paths:
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    return records


class TestDistributedTraceSimulator:
    def test_single_stitched_trace_across_three_servers(self, tmp_path):
        tb, giis, logs = traced_vo(tmp_path)
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert sorted(e.first("hn") for e in out) == ["ra", "rb"]

        # uninvited GRRP registrations mint their own (single-span)
        # traces — the query spans are what must stitch
        records = [
            r for r in read_records(logs.values()) if r["name"] != "grrp.intake"
        ]
        # every server exported spans...
        assert {r["server_id"] for r in records} == {"giis", "gris-a", "gris-b"}
        # ...all sharing ONE trace id
        assert len({r["trace_id"] for r in records}) == 1

        # parent/child edges stitch correctly across the process gap:
        # each GRIS root's parent is the GIIS's giis.child span for it
        by_id = {r["span_id"]: r for r in records}
        gris_roots = [
            r
            for r in records
            if r["name"] == "ldap.search" and r["server_id"] != "giis"
        ]
        assert len(gris_roots) == 2
        for root in gris_roots:
            parent = by_id[root["parent_span_id"]]
            assert parent["name"] == "giis.child"
            assert parent["server_id"] == "giis"
            # the hop (wire + queue) is non-negative in sim time
            assert parent["duration"] >= root["duration"]

    def test_renderer_produces_one_tree(self, tmp_path):
        tb, giis, logs = traced_vo(tmp_path)
        client = tb.client("user", giis)
        client.search("o=Grid", filter="(objectclass=computer)")
        records = read_records(logs.values())
        root = next(
            r
            for r in records
            if r["name"] == "ldap.search" and r["server_id"] == "giis"
        )
        buf = io.StringIO()
        rendered = render_traces(records, buf, trace_id=root["trace_id"])
        assert rendered == 1
        text = buf.getvalue()
        assert "trace " in text and "(3 servers" in text
        # GIIS root at depth 0; remote ldap.search nested under giis.child
        lines = text.splitlines()
        root_lines = [l for l in lines if l.startswith("└─ ") or l.startswith("├─ ")]
        assert len(root_lines) == 1 and "ldap.search [giis]" in root_lines[0]
        assert any("giis.child [giis]" in l and "hop " in l for l in lines)
        assert any(
            "ldap.search [gris-a]" in l and l.startswith((" ", "│")) for l in lines
        )

    def test_trace_cli_reads_jsonl_files(self, tmp_path):
        tb, giis, logs = traced_vo(tmp_path)
        client = tb.client("user", giis)
        client.search("o=Grid", filter="(objectclass=computer)")
        buf = io.StringIO()
        rc = trace_main([str(p) for p in logs.values()], out=buf)
        assert rc == 0
        assert "(3 servers" in buf.getvalue()  # the stitched query trace

    def test_sampled_out_root_silences_children_everywhere(self, tmp_path):
        tb = GridTestbed(seed=12)
        logs = []
        giis_tracer = Tracer(tb.sim.now, seed=1, sample_rate=0.0)
        tracers = [giis_tracer]
        for i, host in enumerate(("ra", "rb")):
            tracers.append(Tracer(tb.sim.now, seed=2 + i, sample_rate=1.0))
        for tracer, name in zip(tracers, ("giis", "ra", "rb")):
            path = tmp_path / f"{name}.jsonl"
            tracer.add_sink(JsonlSink(path, server_id=name))
            logs.append(path)
        giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", tracer=tracers[0])
        for tracer, host in zip(tracers[1:], ("ra", "rb")):
            gris = tb.standard_gris(host, f"hn={host}, o=Grid", tracer=tracer)
            tb.register(gris, giis, interval=20.0, ttl=60.0, name=host)
        tb.run(1.0)
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out.entries) == 2
        # the GIIS root sampled out; GRIS tracers sample at 1.0 but must
        # honor the propagated decision: nothing exported anywhere
        assert read_records(logs) == []


# ---------------------------------------------------------------------------
# the same criterion over real TCP


class TestDistributedTraceTcp:
    def test_single_stitched_trace_over_tcp(self, tmp_path):
        from repro.gris.core import GrisBackend
        from repro.gris.provider import FunctionProvider
        from repro.ldap.dn import DN
        from repro.ldap.entry import Entry
        from repro.ldap.url import LdapUrl
        from repro.net.clock import WallClock
        from repro.net.reactor import ReactorEndpoint

        clock = WallClock()
        endpoints = []
        logs = []
        try:
            # two GRIS servers, each exporting spans
            gris_urls = []
            for i, name in enumerate(("gris-a", "gris-b")):
                path = tmp_path / f"{name}.jsonl"
                logs.append(path)
                tracer = Tracer(clock.now, seed=200 + i, server_id=name)
                tracer.add_sink(JsonlSink(path, server_id=name))
                backend = GrisBackend(f"hn={name}, o=Grid", clock=clock)
                backend.add_provider(
                    FunctionProvider(
                        "host",
                        lambda name=name: [
                            Entry(
                                f"hn={name}, o=Grid",
                                objectclass="computer",
                                hn=name,
                            )
                        ],
                    )
                )
                server = LdapServer(backend, clock=clock, tracer=tracer)
                endpoint = ReactorEndpoint()
                endpoints.append(endpoint)
                port = endpoint.listen(0, server.handle_connection)
                gris_urls.append(
                    LdapUrl("127.0.0.1", port, DN.of(f"hn={name}, o=Grid"))
                )

            # one GIIS chaining to both
            giis_path = tmp_path / "giis.jsonl"
            logs.insert(0, giis_path)
            giis_tracer = Tracer(clock.now, seed=300, server_id="giis")
            giis_tracer.add_sink(JsonlSink(giis_path, server_id="giis"))
            giis_endpoint = ReactorEndpoint()
            endpoints.append(giis_endpoint)
            giis = GiisBackend(
                "o=Grid",
                clock=clock,
                connector=lambda url: giis_endpoint.connect(url.address),
                tracer=giis_tracer,
            )
            for url in gris_urls:
                giis.apply_grrp(
                    GrrpMessage(
                        service_url=str(url),
                        timestamp=clock.now(),
                        valid_until=clock.now() + 300.0,
                        metadata={"suffix": str(url.dn)},
                    )
                )
            giis_server = LdapServer(giis, clock=clock, tracer=giis_tracer)
            giis_port = giis_endpoint.listen(0, giis_server.handle_connection)

            client = LdapClient(giis_endpoint.connect(("127.0.0.1", giis_port)))
            out = client.search(
                "o=Grid", filter="(objectclass=computer)", timeout=10.0
            )
            client.unbind()
            assert sorted(e.first("hn") for e in out) == ["gris-a", "gris-b"]

            def query_records():
                return [
                    r
                    for r in read_records(logs)
                    if r["name"] != "grrp.intake"
                ]

            deadline = time.time() + 5.0
            records = query_records()
            while (
                len({r["server_id"] for r in records}) < 3
                and time.time() < deadline
            ):
                time.sleep(0.05)
                records = query_records()
            assert {r["server_id"] for r in records} == {
                "giis",
                "gris-a",
                "gris-b",
            }
            assert len({r["trace_id"] for r in records}) == 1
            buf = io.StringIO()
            assert render_traces(records, buf) == 1
            assert "(3 servers" in buf.getvalue()
        finally:
            for endpoint in endpoints:
                endpoint.close()


# ---------------------------------------------------------------------------
# grid-info-server flags + config section


class TestServerTracingFlags:
    def _config(self, tmp_path, **tracing):
        config = {
            "suffix": "hn=cfg-host, o=Demo",
            "providers": [
                {
                    "type": "static-host",
                    "hostname": "cfg-host",
                    "cpu_count": 4,
                    "base": "",
                }
            ],
        }
        if tracing:
            config["tracing"] = tracing
        path = tmp_path / "gris.json"
        path.write_text(json.dumps(config))
        return path

    def test_config_tracing_section(self, tmp_path):
        path = self._config(
            tmp_path,
            trace_log="/tmp/spans.jsonl",
            sample_rate=0.25,
            slow_query_ms=100,
            server_id="site-a",
        )
        config = load_config(path)
        assert config.tracing.trace_log == "/tmp/spans.jsonl"
        assert config.tracing.sample_rate == 0.25
        assert config.tracing.slow_query_ms == 100.0
        assert config.tracing.server_id == "site-a"
        assert config.tracing.enabled

    def test_config_defaults_disabled(self, tmp_path):
        config = load_config(self._config(tmp_path))
        assert not config.tracing.enabled
        assert config.tracing.sample_rate == 1.0

    def test_bad_sample_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self._config(tmp_path, sample_rate=1.5))

    def test_server_exports_spans_with_default_server_id(self, tmp_path):
        from repro.net.reactor import ReactorEndpoint
        from repro.tools.grid_info_server import start_server

        trace_log = tmp_path / "spans.jsonl"
        endpoint, port, registrants, server = start_server(
            str(self._config(tmp_path)),
            port=0,
            monitor=True,
            trace_log=str(trace_log),
            slow_query_ms=0.0001,
        )
        client_ep = ReactorEndpoint()
        try:
            client = LdapClient(client_ep.connect(("127.0.0.1", port)))
            out = client.search(
                "hn=cfg-host, o=Demo", filter="(objectclass=computer)"
            )
            assert len(out.entries) == 1

            records = [
                json.loads(line)
                for line in trace_log.read_text().splitlines()
            ]
            assert records, "no spans exported"
            # --server-id defaulted to the listen address
            assert {r["server_id"] for r in records} == {f"127.0.0.1:{port}"}
            assert any(r["name"] == "ldap.search" for r in records)

            # the slow query (threshold ~0) is published under cn=slow
            slow = client.search(
                "cn=slow,cn=monitor", filter="(objectclass=mdsslowtrace)"
            )
            assert len(slow.entries) >= 1
            client.unbind()
        finally:
            client_ep.close()
            endpoint.close()
            server.executor.shutdown()

    def test_cli_flags_parse(self):
        from repro.tools.grid_info_server import build_parser

        args = build_parser().parse_args(
            [
                "--config",
                "x.json",
                "--trace-log",
                "out.jsonl",
                "--trace-sample-rate",
                "0.5",
                "--slow-query-ms",
                "250",
                "--server-id",
                "edge-1",
            ]
        )
        assert args.trace_log == "out.jsonl"
        assert args.trace_sample_rate == 0.5
        assert args.slow_query_ms == 250.0
        assert args.server_id == "edge-1"


# ---------------------------------------------------------------------------
# grid-info-trace CLI edges


class TestTraceCli:
    def test_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as exc:
            trace_main(["--help"])
        assert exc.value.code == 0
        assert "grid-info-trace" in capsys.readouterr().out

    def test_no_inputs_is_usage_error(self):
        assert trace_main([]) == 2

    def test_missing_file_reports_error(self, tmp_path):
        assert trace_main([str(tmp_path / "absent.jsonl")]) == 2

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"v": 99, "trace_id": "x"}) + "\n")
        assert trace_main([str(path)]) == 2

    def test_trace_id_filter_and_limit(self, tmp_path):
        tracer, _ = make_tracer(server_id="s")
        buf_file = tmp_path / "s.jsonl"
        tracer.add_sink(JsonlSink(buf_file, server_id="s"))
        first = tracer.start("op1")
        first.finish()
        tracer.start("op2").finish()
        out = io.StringIO()
        rc = trace_main(
            [str(buf_file), "--trace-id", first.trace_id], out=out
        )
        assert rc == 0
        assert first.trace_id in out.getvalue()
        assert "op2" not in out.getvalue()
        out = io.StringIO()
        assert trace_main([str(buf_file), "--limit", "1"], out=out) == 0
        assert out.getvalue().count("trace ") == 1

    def test_unknown_trace_id_is_not_found(self, tmp_path):
        tracer, _ = make_tracer(server_id="s")
        path = tmp_path / "s.jsonl"
        tracer.add_sink(JsonlSink(path, server_id="s"))
        tracer.start("op").finish()
        assert trace_main([str(path), "--trace-id", "f" * 32]) == 1

    def test_queries_cn_monitor_over_tcp(self, tmp_path):
        from repro.net.reactor import ReactorEndpoint
        from repro.tools.grid_info_server import start_server

        config = {
            "suffix": "hn=h, o=Demo",
            "providers": [
                {"type": "static-host", "hostname": "h", "base": ""}
            ],
        }
        path = tmp_path / "gris.json"
        path.write_text(json.dumps(config))
        endpoint, port, _, server = start_server(
            str(path), port=0, monitor=True, slow_query_ms=0.0001,
            server_id="mon-test",
        )
        client_ep = ReactorEndpoint()
        try:
            client = LdapClient(client_ep.connect(("127.0.0.1", port)))
            client.search("hn=h, o=Demo", filter="(objectclass=computer)")
            client.unbind()
            out = io.StringIO()
            rc = trace_main(["--server", f"127.0.0.1:{port}"], out=out)
            assert rc == 0
            assert "ldap.search [mon-test]" in out.getvalue()
        finally:
            client_ep.close()
            endpoint.close()
            server.executor.shutdown()


# ---------------------------------------------------------------------------
# span_record shape used by both export paths


class TestSpanRecord:
    def test_explicit_server_id_wins(self):
        tracer, _ = make_tracer(server_id="tracer-id")
        span = tracer.start("op")
        span.finish()
        assert span_record(span)["server_id"] == "tracer-id"
        assert span_record(span, "explicit")["server_id"] == "explicit"
