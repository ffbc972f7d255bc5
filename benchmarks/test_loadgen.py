"""E21 — the wire path under MDS2-style load.

The wire-path fast lanes (zero-copy BER decode, interned DN parsing,
cached entry encoding) only matter if they move the numbers the MDS
studies cared about: search throughput and tail latency under hundreds
of concurrent users.  This bench drives the :mod:`loadgen` harness
against

* a single GRIS at 1k/10k entries × 50/500 closed-loop users;
* the same GRIS under a paced open-loop arrival process;
* M GRIS behind a GIIS front end, the Figure-5 hierarchy.

Client-observed percentiles are cross-checked against server-side
``ldap.search`` span durations and the server metrics registry: codec
frame counts, encode-cache hit rates, DN-cache hit rates all land in
the report.

Set ``E21_QUICK=1`` for the CI smoke ladder.  ``BENCH_E21.json`` at the
repo root is the historical lanes-on-vs-off record (the off lanes were
constructor switches, since deleted); comparing two commits is
``benchmarks/gridbench``'s job, so this run writes no artifact.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import os
import pathlib
import subprocess
import time

from loadgen import Workload, build_vo, closed_loop, open_loop, populate_gris
from repro.ldap.backend import DitBackend
from repro.ldap.dit import DIT, Scope
from repro.ldap.dn import intern_cache_stats
from repro.ldap.executor import RequestExecutor
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.transport import ConnectionClosed
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RingSink, Tracer
from repro.testbed.metrics import fmt_table

QUICK = bool(os.environ.get("E21_QUICK"))

# (total entries, closed-loop users, requests per user)
GRID = (
    [(210, 10, 5)]
    if QUICK
    else [(1008, 50, 40), (1008, 500, 8), (10080, 50, 40), (10080, 500, 10)]
)
CHILDREN_PER_HOST = 20
OPEN_RATE = 50.0 if QUICK else 400.0
OPEN_SECONDS = 1.0 if QUICK else 4.0
TIMEOUT_S = 120.0 if QUICK else 600.0


def host_workload(n_hosts: int) -> Workload:
    """The MDS staple: "everything about host X" — indexed equality
    returning the host group, with a subtree/onelevel scope mix."""
    targets = [f"(hn=host{h})" for h in range(0, n_hosts, max(1, n_hosts // 24))]
    return Workload(
        name="host-group-lookup",
        base="o=Grid",
        filters=tuple((f, 1.0) for f in targets),
        scopes=((Scope.SUBTREE, 0.8), (Scope.ONELEVEL, 0.2)),
    )


class Gris:
    """One GRIS on the reactor with metrics + sampled tracing wired."""

    def __init__(self, n_hosts: int):
        self.dit = DIT(index_attrs=["hn"])
        self.entries = populate_gris(self.dit, n_hosts, CHILDREN_PER_HOST)
        self.metrics = MetricsRegistry()
        self.sink = RingSink(8192)
        self.tracer = Tracer(
            time.time, sinks=(self.sink,), seed=7, sample_rate=0.05
        )
        self.executor = RequestExecutor(workers=4, queue_limit=8192)
        self.server = LdapServer(
            DitBackend(self.dit),
            executor=self.executor,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.endpoint = ReactorEndpoint()
        self.port = self.endpoint.listen(0, self.server.handle_connection)
        self.client_endpoint = ReactorEndpoint()

    def connect(self):
        for attempt in range(3):
            try:
                return self.client_endpoint.connect(("127.0.0.1", self.port))
            except ConnectionClosed:
                if attempt == 2:
                    raise
                time.sleep(0.05 * (attempt + 1))

    def span_p50_ms(self) -> float:
        durations = sorted(s.duration for s in self.sink.spans("ldap.search"))
        if not durations:
            return 0.0
        return round(durations[len(durations) // 2] * 1000, 3)

    def metric_sample(self) -> dict:
        c = self.metrics.counter
        return {
            "codec_messages": c("ldap.codec.messages").value,
            "codec_bytes": c("ldap.codec.bytes").value,
            "encode_hits": c("ldap.encode.cache.hits").value,
            "encode_misses": c("ldap.encode.cache.misses").value,
            "encode_uncached": c("ldap.encode.cache.uncached").value,
            "dn_cache": dict(intern_cache_stats()),
        }

    def close(self):
        self.client_endpoint.close()
        self.endpoint.close()
        self.executor.shutdown()


def run_single_gris(entries: int, users: int, requests: int):
    """One closed-loop run; returns (stats summary + server-side view)."""
    n_hosts = entries // (CHILDREN_PER_HOST + 1)
    gris = Gris(n_hosts)
    try:
        workload = host_workload(n_hosts)
        stats = closed_loop(
            gris.connect, workload, users, requests, timeout_s=TIMEOUT_S
        )
        out = stats.summary()
        out["server_span_p50_ms"] = gris.span_p50_ms()
        out["server_metrics"] = gris.metric_sample()
        return out
    finally:
        gris.close()


def git_describe() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=pathlib.Path(__file__).parents[1],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 - describe is metadata, not a gate
        return "unknown"


def test_loadgen_fast_lanes(report):
    runs = [
        {
            "entries": entries,
            "users": users,
            "requests_per_user": requests,
            "summary": run_single_gris(entries, users, requests),
        }
        for entries, users, requests in GRID
    ]

    # open loop: paced arrivals against the same server shape
    n_hosts = GRID[-1][0] // (CHILDREN_PER_HOST + 1)
    gris = Gris(n_hosts)
    try:
        open_stats = open_loop(
            gris.connect,
            host_workload(n_hosts),
            rate_rps=OPEN_RATE,
            duration_s=OPEN_SECONDS,
            connections=16 if QUICK else 64,
        )
    finally:
        gris.close()

    # the Figure-5 hierarchy: M GRIS behind one GIIS front end
    n_gris = 2 if QUICK else 4
    vo = build_vo(n_gris, hosts_per_gris=6, children_per_host=4)
    vo_endpoint = ReactorEndpoint()
    try:
        giis_workload = Workload(
            name="vo-wide-host-lookup",
            base="o=Grid",
            filters=(("(hn=host2)", 1.0),),
            scopes=((Scope.SUBTREE, 1.0),),
        )
        vo_stats = closed_loop(
            lambda: vo_endpoint.connect(("127.0.0.1", vo.giis_port)),
            giis_workload,
            users=8 if QUICK else 32,
            requests_per_user=4,
            timeout_s=TIMEOUT_S,
        )
    finally:
        vo_endpoint.close()
        vo.close()

    rows = [
        (
            r["entries"],
            r["users"],
            r["summary"]["throughput_rps"],
            r["summary"]["percentiles"]["p50_ms"],
            r["summary"]["percentiles"]["p95_ms"],
            r["summary"]["percentiles"]["p99_ms"],
            r["summary"]["server_span_p50_ms"],
            r["summary"]["errors"],
        )
        for r in runs
    ]
    text = (
        f"closed-loop host-group searches "
        f"({'quick mode' if QUICK else 'full mode'})\n"
        + fmt_table(
            ["entries", "users", "req/s", "p50 ms", "p95 ms", "p99 ms",
             "server span p50 ms", "errors"],
            rows,
        )
        + "\n\nopen loop (paced arrivals): "
        + f"offered {open_stats.offered_rps} req/s, served "
        + f"{open_stats.throughput_rps} req/s, "
        + f"p99 {open_stats.percentiles()['p99_ms']} ms\n"
        + f"GIIS front over {n_gris} GRIS: {vo_stats.throughput_rps} req/s, "
        + f"p95 {vo_stats.percentiles()['p95_ms']} ms, "
        + f"errors {vo_stats.errors}\n"
        + "\nThe cached-entry fast lane turns the per-user re-encode of"
        "\neach host group into one encode amortized across the fleet;"
        "\nthe DN intern cache does the same for the parse of every"
        "\nrepeated base/entry DN on the request path."
    )
    report("E21_loadgen_fast_lanes", text)

    # Every virtual user completed its full request budget, error-free.
    for r in runs:
        assert r["summary"]["errors"] == 0, r
        assert r["summary"]["completed"] == r["users"] * r["requests_per_user"], r
    assert vo_stats.errors == 0
    assert open_stats.completed > 0 and open_stats.errors == 0

    # The encode cache actually engaged: hits dominate.
    for r in runs:
        served = r["summary"]["server_metrics"]
        assert served["encode_hits"] > served["encode_misses"], served
