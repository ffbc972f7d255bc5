"""E17 — distributed tracing overhead and the stitched multi-server tree.

Two claims:

* **Overhead**: the trace hot path (hex-id generation from a seeded RNG,
  one sampling coin flip, slot-based spans, tags skipped when unsampled)
  must be invisible when unsampled — the per-search tracing work at
  ``sample_rate=0`` stays under 5% of the TCP search p50.  The claim is
  asserted on the *intrinsic* cost (the exact extra work a traced search
  performs, timed deterministically in-process) over the measured TCP
  baseline: an A/B comparison of whole TCP searches cannot resolve a 5%
  effect here — two *identical* untraced servers measured back-to-back
  differ by ~4% from scheduler/cache position alone — so the A/B table
  is reported as context, not asserted.
* **Stitching** (ISSUE 4 acceptance): one GIIS + two GRIS children under
  one traced query yield JSONL spans on every server sharing one trace
  id, rendered by the grid-info-trace machinery as a single tree.

Set ``E17_QUICK=1`` (the CI smoke mode) for fewer samples.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import io
import json
import os
import time
import timeit

from repro.gris.core import GrisBackend
from repro.gris.provider import FunctionProvider
from repro.ldap.client import LdapClient
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse
from repro.ldap.server import LdapServer
from repro.net.clock import WallClock
from repro.net.reactor import ReactorEndpoint
from repro.obs import JsonlSink, Tracer
from repro.testbed import GridTestbed
from repro.testbed.metrics import fmt_table
from repro.tools.grid_info_trace import render_traces

QUICK = bool(os.environ.get("E17_QUICK"))
SAMPLES = 300 if QUICK else 2400  # per mode, spread over CHUNKS rounds
CHUNKS = 6 if QUICK else 12
WARMUP = 30 if QUICK else 100
INTRINSIC_ITERS = 2000 if QUICK else 20000
OVERHEAD_BOUND = 0.05


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class Mode:
    """One tracing configuration: its own GRIS + server + live client."""

    def __init__(self, name, tracer_factory, tmp_dir):
        self.name = name
        self.latencies = []
        self.round_p50s = []
        clock = WallClock()
        tracer = tracer_factory(clock, tmp_dir, name)
        backend = GrisBackend("hn=bench, o=Grid", clock=clock)
        backend.add_provider(
            FunctionProvider(
                "host",
                lambda: [Entry("hn=bench, o=Grid", objectclass="computer", hn="bench")],
                cache_ttl=3600.0,
            )
        )
        server = LdapServer(backend, clock=clock, tracer=tracer)
        self.endpoint = ReactorEndpoint()
        self.client_ep = ReactorEndpoint()
        port = self.endpoint.listen(0, server.handle_connection)
        self.client = LdapClient(self.client_ep.connect(("127.0.0.1", port)))

    def run_chunk(self, count, record=True):
        chunk = []
        for _ in range(count):
            started = time.perf_counter()
            out = self.client.search("hn=bench, o=Grid", filter="(objectclass=computer)")
            elapsed = time.perf_counter() - started
            assert len(out.entries) == 1
            chunk.append(elapsed)
        if record:
            self.latencies.extend(chunk)
            self.round_p50s.append(percentile(chunk, 0.50))

    def close(self):
        self.client.unbind()
        self.client_ep.close()
        self.endpoint.close()

    @property
    def p50(self):
        return percentile(self.latencies, 0.50)

    @property
    def p99(self):
        return percentile(self.latencies, 0.99)


def no_tracer(clock, tmp_dir, tag):
    return None


def unsampled_tracer(clock, tmp_dir, tag):
    tracer = Tracer(clock.now, seed=17, sample_rate=0.0, server_id=tag)
    tracer.add_sink(JsonlSink(tmp_dir / f"{tag}.jsonl", server_id=tag))
    return tracer


def sampled_tracer(clock, tmp_dir, tag):
    tracer = Tracer(clock.now, seed=17, sample_rate=1.0, server_id=tag)
    tracer.add_sink(JsonlSink(tmp_dir / f"{tag}.jsonl", server_id=tag))
    return tracer


def intrinsic_cost_us(sample_rate):
    """Seconds of pure tracing work one GRIS search adds, timed
    deterministically in-process: the root ``ldap.search`` span with its
    request tags, the ``gris.collect`` child, and both finishes —
    exactly what ``LdapServer._execute_search`` + ``GrisBackend.search``
    run when a tracer is configured (cache-warm, so no provider span)."""
    tracer = Tracer(WallClock().now, seed=17, sample_rate=sample_rate)
    base = DN.parse("hn=bench, o=Grid")
    query = parse("(objectclass=computer)")

    def traced_search_work():
        root = tracer.start(
            "ldap.search", base=base, scope=2, filter=str(query)
        )
        collect = root.child("gris.collect")
        collect.tag("entries", 1).finish()
        root.tag("entries", 1).tag("code", 0).finish()

    return (
        timeit.timeit(traced_search_work, number=INTRINSIC_ITERS)
        / INTRINSIC_ITERS
        * 1e6
    )


def measure_modes(tmp_dir):
    """p50/p99 per mode, interleaved round-robin so that slow clock/CPU
    drift over the run hits every mode equally instead of biasing
    whichever mode happened to run last."""
    modes = [
        Mode("off", no_tracer, tmp_dir),
        Mode("unsampled", unsampled_tracer, tmp_dir),
        Mode("sampled", sampled_tracer, tmp_dir),
    ]
    try:
        for mode in modes:
            mode.run_chunk(WARMUP, record=False)
        chunk = SAMPLES // CHUNKS
        for round_no in range(CHUNKS):
            # Rotate who goes first: back-to-back A/B runs are biased
            # toward whichever mode runs earlier in the round (cache
            # and scheduler warmth), measurably so even for two
            # *identical* modes — rotation makes the bias symmetric.
            order = modes[round_no % len(modes):] + modes[: round_no % len(modes)]
            for mode in order:
                mode.run_chunk(chunk)
        off, unsampled = modes[0], modes[1]
        # Overhead from per-round p50 deltas (each round's modes ran
        # back-to-back), then the median across rounds: immune to the
        # slow CPU-frequency/GC drift that a whole-run p50 picks up.
        deltas = sorted(
            (u - o) / o for o, u in zip(off.round_p50s, unsampled.round_p50s)
        )
        overhead = deltas[len(deltas) // 2]
        return {mode.name: (mode.p50, mode.p99) for mode in modes}, overhead
    finally:
        for mode in modes:
            mode.close()


def stitched_demo(tmp_dir):
    """One traced query across GIIS + 2 GRIS (simulator); returns the
    rendered tree and the count of distinct trace ids in the exports."""
    tb = GridTestbed(seed=17)
    logs = []
    tracers = {}
    for i, name in enumerate(("giis", "gris-a", "gris-b")):
        path = tmp_dir / f"demo-{name}.jsonl"
        tracer = Tracer(tb.sim.now, seed=400 + i, server_id=name)
        tracer.add_sink(JsonlSink(path, server_id=name))
        logs.append(path)
        tracers[name] = tracer
    giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", tracer=tracers["giis"])
    for name, host in (("gris-a", "ra"), ("gris-b", "rb")):
        gris = tb.standard_gris(host, f"hn={host}, o=Grid", tracer=tracers[name])
        tb.register(gris, giis, interval=20.0, ttl=60.0, name=host)
    tb.run(1.0)
    client = tb.client("user", giis)
    out = client.search("o=Grid", filter="(objectclass=computer)")
    assert len(out.entries) == 2
    records = []
    for path in logs:
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    query = [r for r in records if r["name"] != "grrp.intake"]
    buf = io.StringIO()
    rendered = render_traces(query, buf)
    return buf.getvalue(), rendered, len({r["trace_id"] for r in query})


def test_trace_overhead(benchmark, report, tmp_path):
    def run():
        stats, ab_delta = measure_modes(tmp_path)
        unsampled_us = intrinsic_cost_us(0.0)
        sampled_us = intrinsic_cost_us(1.0)
        tree, rendered, trace_ids = stitched_demo(tmp_path)
        return stats, ab_delta, unsampled_us, sampled_us, tree, rendered, trace_ids

    stats, ab_delta, unsampled_us, sampled_us, tree, rendered, trace_ids = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    off, unsampled, sampled = stats["off"], stats["unsampled"], stats["sampled"]
    overhead = unsampled_us / (off[0] * 1e6)
    report(
        "E17_trace_overhead",
        f"{SAMPLES} searches per mode over loopback TCP"
        + ("  [quick mode]" if QUICK else "")
        + "\n"
        + fmt_table(
            ["tracing mode", "p50 (us)", "p99 (us)"],
            [
                ("off", round(off[0] * 1e6, 1), round(off[1] * 1e6, 1)),
                (
                    "on, unsampled (rate=0)",
                    round(unsampled[0] * 1e6, 1),
                    round(unsampled[1] * 1e6, 1),
                ),
                (
                    "fully sampled (rate=1)",
                    round(sampled[0] * 1e6, 1),
                    round(sampled[1] * 1e6, 1),
                ),
            ],
        )
        + f"\n\nintrinsic per-search tracing cost (timed in-process,"
        f" {INTRINSIC_ITERS} iters):"
        f"\n  unsampled: {unsampled_us:.1f} us = {overhead:.1%} of the"
        f" {off[0] * 1e6:.0f} us TCP p50  (claim: < {OVERHEAD_BOUND:.0%})"
        f"\n  sampled:   {sampled_us:.1f} us (before sink/serialization cost)"
        f"\n\nA/B p50 delta unsampled-vs-off over {CHUNKS} rotated rounds:"
        f" {ab_delta:+.1%} — context only; two IDENTICAL untraced servers"
        "\nmeasured back-to-back differ by ~4% here, so whole-search A/B"
        "\ncannot resolve a 5% effect and the claim is asserted on the"
        "\nintrinsic cost above."
        + "\n\nstitched multi-server trace (simulator, 1 GIIS + 2 GRIS):\n"
        + tree
        + "\nClaim check: an unsampled tracer draws ids and nothing else"
        "\n(tags skipped, sinks skipped, no wall entropy — a few us per"
        "\nsearch); the chained query exports spans on all three servers"
        "\nunder ONE trace id, rendered above as a single tree with"
        "\nper-hop times.",
    )
    # the acceptance criterion: one trace id across all three servers
    assert trace_ids == 1
    assert rendered == 1
    assert "(3 servers" in tree and "hop " in tree
    # unsampled tracing must be (close to) free
    assert overhead < OVERHEAD_BOUND
    # unsampled mode exported nothing; sampled mode exported every span
    assert not (tmp_path / "unsampled.jsonl").read_text()
    assert (tmp_path / "sampled.jsonl").read_text()
