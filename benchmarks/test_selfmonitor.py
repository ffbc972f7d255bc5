"""E22 — the cost and coverage of watching the service watch itself.

PR-9 turns every GRIS/GIIS into its own information provider: a
time-series recorder samples the metrics registry on an interval, a
health model rolls thresholds into a verdict, ``cn=health,cn=monitor``
publishes it over GRIP, and an HTTP endpoint serves the Prometheus
exposition.  The paper's bet is that self-description through the
service's own protocol is cheap enough to leave on; this bench checks
that bet three ways:

* **overhead** — closed-loop throughput with the full monitoring stack
  (registry threaded through transport/executor/server, recorder at
  1s, health entry published) vs the bare server, same workload, same
  data; both servers stay up and the load alternates between them in
  short slices, each adjacent off/on pair yielding one paired
  regression in CPU time per request (= throughput on a saturated
  single-CPU runner, minus time stolen by neighbour tenants), so
  machine noise cannot masquerade as overhead.  The gate: trimmed-mean
  paired regression < 3% on the 10k-entry/500-user rung;
* **transparency** — the exact same deterministic request sequence
  against monitored and bare servers must serialize to byte-identical
  LDIF: observation must not change the answers;
* **coverage** — a 1-GIIS/4-GRIS VO under load, polled by
  ``grid-info-top --once`` over GRIP: every server must report
  healthy with non-zero req/s and a finite search p95, and the
  ``MetricsScraper`` embeds the per-server time-series in the report.

Set ``E22_QUICK=1`` for the CI smoke ladder.  Full runs write
``BENCH_E22.json`` at the repo root.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import gc
import io
import json
import math
import os
import pathlib
import time

from loadgen import (
    MetricsScraper,
    Workload,
    build_vo,
    closed_loop,
    git_describe,
    populate_gris,
)
from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.executor import RequestExecutor
from repro.ldap.ldif import format_ldif
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.clock import WallClock
from repro.net.transport import ConnectionClosed
from repro.obs import (
    HealthModel,
    MetricsHttpServer,
    MetricsRegistry,
    MonitorBackend,
    MonitoredBackend,
    TimeSeriesRecorder,
)
from repro.testbed.metrics import fmt_table
from repro.tools.grid_info_top import main as top_main

QUICK = bool(os.environ.get("E22_QUICK"))

# (total entries, closed-loop users, requests per user)
GRID = (
    [(210, 10, 5)]
    if QUICK
    else [(1008, 50, 40), (10080, 500, 10)]
)
CHILDREN_PER_HOST = 20
SLICES = 1 if QUICK else 9  # interleaved load slices per side, median wins
TIMEOUT_S = 120.0 if QUICK else 600.0
IDENTITY_REQUESTS = 30 if QUICK else 100


def host_workload(n_hosts: int) -> Workload:
    targets = [f"(hn=host{h})" for h in range(0, n_hosts, max(1, n_hosts // 24))]
    return Workload(
        name="host-group-lookup",
        base="o=Grid",
        filters=tuple((f, 1.0) for f in targets),
        scopes=((Scope.SUBTREE, 0.8), (Scope.ONELEVEL, 0.2)),
    )


class Gris:
    """One GRIS on the reactor, bare or with the full monitoring stack.

    "Monitored" means everything ``--metrics-port`` turns on: a shared
    registry threaded through transport/executor/server, the monitored
    backend serving ``cn=monitor``, the time-series recorder sampling
    at 1s, the health model publishing ``cn=health,cn=monitor``, and
    the HTTP exposition endpoint riding the same reactor.
    """

    def __init__(self, n_hosts: int, monitored: bool):
        self.clock = WallClock()
        self.dit = DIT(index_attrs=["hn"])
        self.entries = populate_gris(self.dit, n_hosts, CHILDREN_PER_HOST)
        backend = DitBackend(self.dit)
        self.metrics = self.recorder = self.health = self.http = None
        self.metrics_port = None
        if monitored:
            self.metrics = MetricsRegistry()
            self.recorder = TimeSeriesRecorder(
                self.metrics, self.clock, interval=1.0
            )
            self.health = HealthModel(
                self.metrics, self.clock, recorder=self.recorder
            )
            backend = MonitoredBackend(
                backend,
                MonitorBackend(
                    self.metrics, server_name="e22-gris", health=self.health
                ),
            )
        self.executor = RequestExecutor(
            workers=4, queue_limit=8192, metrics=self.metrics, clock=self.clock
        )
        self.server = LdapServer(
            backend,
            executor=self.executor,
            metrics=self.metrics,
            clock=self.clock,
        )
        self.endpoint = ReactorEndpoint(metrics=self.metrics)
        self.port = self.endpoint.listen(0, self.server.handle_connection)
        if monitored:
            self.health.server_id = f"127.0.0.1:{self.port}"
            self.recorder.start()
            self.http = MetricsHttpServer(
                self.metrics,
                reactor=self.endpoint.reactor,
                health=self.health,
                clock_now=self.clock.now,
            )
            self.metrics_port = self.http.start(0)
        self.client_endpoint = ReactorEndpoint()

    def connect(self):
        for attempt in range(3):
            try:
                return self.client_endpoint.connect(("127.0.0.1", self.port))
            except ConnectionClosed:
                if attempt == 2:
                    raise
                time.sleep(0.05 * (attempt + 1))

    def close(self):
        if self.recorder is not None:
            self.recorder.stop()
        if self.http is not None:
            self.http.close()
        self.client_endpoint.close()
        self.endpoint.close()
        self.executor.shutdown()


def _trimmed_mean(values):
    """Mean with the single best and worst dropped (when n >= 3)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    if len(ranked) >= 3:
        ranked = ranked[1:-1]
    return round(sum(ranked) / len(ranked), 2)


def _median_slice(summaries):
    """The summary of the median-throughput slice, spread attached."""
    ranked = sorted(summaries, key=lambda s: s["throughput_rps"])
    out = dict(ranked[len(ranked) // 2])
    out["slice_rps"] = [s["throughput_rps"] for s in summaries]
    out["errors"] = sum(s["errors"] for s in summaries)
    out["completed"] = min(s["completed"] for s in summaries)
    return out


def run_rung(entries: int, users: int, requests: int):
    """Paired interleaved slices against two long-lived servers.

    Wall-clock throughput on a small shared box drifts by far more
    between runs (scheduler, CPU contention from neighbours, allocator
    state) than the off/on delta being measured; sequential
    best-of-N comparisons report that drift as fake regressions or
    fake speedups.  So both servers — bare and fully monitored — stay
    up for the whole rung and the closed-loop load alternates between
    them in short slices (order flipping every round).  Each round
    yields one *paired* regression from two adjacent-in-time slices,
    which cancels slow drift.  The rung's verdict is the trimmed mean
    of paired regressions in **CPU time per completed request**: on a
    saturated single-CPU runner that is the same quantity as
    throughput, but it excludes time stolen by neighbour tenants,
    which wall-clock pairs report as ±10% noise.  Wall-clock medians
    and both pair series are still recorded for the report.  The two
    populated DITs are ``gc.freeze``-d for the duration so major
    collections don't rescan ~20k live entries mid-slice.
    """
    n_hosts = entries // (CHILDREN_PER_HOST + 1)
    workload = host_workload(n_hosts)
    bare = Gris(n_hosts, monitored=False)
    watched = Gris(n_hosts, monitored=True)
    slices = {False: [], True: []}
    gc.collect()
    gc.freeze()
    try:
        for slice_no in range(SLICES):
            order = (False, True) if slice_no % 2 == 0 else (True, False)
            for monitored in order:
                gris = watched if monitored else bare
                cpu0 = time.process_time()
                stats = closed_loop(
                    gris.connect, workload, users, requests,
                    timeout_s=TIMEOUT_S,
                )
                cpu1 = time.process_time()
                summary = stats.summary()
                summary["cpu_us_per_request"] = round(
                    (cpu1 - cpu0) / max(summary["completed"], 1) * 1e6, 1
                )
                slices[monitored].append(summary)
        off = _median_slice(slices[False])
        on = _median_slice(slices[True])
        wall_pairs = [
            round(
                (o["throughput_rps"] - w["throughput_rps"])
                / o["throughput_rps"]
                * 100.0,
                2,
            )
            for o, w in zip(slices[False], slices[True])
            if o["throughput_rps"]
        ]
        cpu_pairs = [
            round(
                (w["cpu_us_per_request"] - o["cpu_us_per_request"])
                / o["cpu_us_per_request"]
                * 100.0,
                2,
            )
            for o, w in zip(slices[False], slices[True])
            if o["cpu_us_per_request"]
        ]
        on["wall_pair_regressions_pct"] = wall_pairs
        on["cpu_pair_regressions_pct"] = cpu_pairs
        # One explicit closing sample: quick-mode rungs finish inside
        # the 1s interval, and it captures the final counter state.
        watched.recorder.sample()
        on["recorder_samples"] = watched.recorder.samples_taken
    finally:
        gc.unfreeze()
        bare.close()
        watched.close()
    return workload, off, on, _trimmed_mean(cpu_pairs)


def serialized_answers(gris: Gris, n_hosts: int) -> str:
    """LDIF of one deterministic request sequence against *gris*."""
    source = host_workload(n_hosts).request_source()
    client = LdapClient(gris.connect())
    pages = []
    try:
        for _ in range(IDENTITY_REQUESTS):
            req = source()
            result = client.search(
                req.base, req.scope, req.filter, timeout=30.0, check=False
            )
            pages.append(format_ldif(result.entries))
    finally:
        client.unbind()
    return "\n".join(pages)


def test_selfmonitor_overhead_and_fleet(report):
    # -- transparency: observation must not change the answers ----------------
    n_hosts = GRID[0][0] // (CHILDREN_PER_HOST + 1)
    bare = Gris(n_hosts, monitored=False)
    watched = Gris(n_hosts, monitored=True)
    try:
        bare_pages = serialized_answers(bare, n_hosts)
        watched_pages = serialized_answers(watched, n_hosts)
    finally:
        bare.close()
        watched.close()
    identical = bare_pages.encode() == watched_pages.encode()

    # -- overhead: closed loop, monitoring off vs on --------------------------
    runs = []
    for entries, users, requests in GRID:
        workload, off, on, regression_pct = run_rung(entries, users, requests)
        runs.append(
            {
                "workload": workload.describe(),
                "entries": entries,
                "users": users,
                "requests_per_user": requests,
                "off": off,
                "on": on,
                "regression_pct": regression_pct,
            }
        )

    # -- coverage: a monitored VO polled by grid-info-top ---------------------
    n_gris = 4
    vo = build_vo(
        n_gris,
        hosts_per_gris=6,
        children_per_host=4,
        monitor=True,
        metrics_interval=0.5,
    )
    vo_endpoint = ReactorEndpoint()
    scraper = MetricsScraper(
        vo.metrics_urls,
        interval=0.5,
        families=("ldap_requests", "ldap_request_seconds",
                  "giis_chain", "ldap_executor_queue"),
    )
    try:
        scraper.start()
        vo_stats = closed_loop(
            lambda: vo_endpoint.connect(("127.0.0.1", vo.giis_port)),
            Workload(
                name="vo-wide-host-lookup",
                base="o=Grid",
                filters=(("(hn=host2)", 1.0),),
            ),
            users=8 if QUICK else 32,
            requests_per_user=4 if QUICK else 8,
            timeout_s=TIMEOUT_S,
        )
        time.sleep(1.2)  # let every recorder take a post-load sample
        scraper.stop()
        top_out = io.StringIO()
        top_rc = top_main(["--once"] + vo.ldap_specs, out=top_out)
        fleet = json.loads(top_out.getvalue())
    finally:
        scraper.stop()
        vo_endpoint.close()
        vo.close()

    # -- report ---------------------------------------------------------------
    rows = [
        (
            r["entries"],
            r["users"],
            label,
            side["throughput_rps"],
            side["percentiles"]["p50_ms"],
            side["percentiles"]["p95_ms"],
            side["cpu_us_per_request"],
            side["errors"],
        )
        for r in runs
        for label, side in (("off", r["off"]), ("on", r["on"]))
    ]
    reg_rows = [
        (r["entries"], r["users"], f"{r['regression_pct']}%") for r in runs
    ]
    fleet_rows = [
        (
            row["server"],
            row["health"],
            row["rps"],
            row["p95_ms"],
            row["queue_depth"],
        )
        for row in fleet["servers"]
    ]
    text = (
        f"closed-loop host-group searches, self-monitoring off vs on "
        f"({'quick mode' if QUICK else 'full mode'}, "
        f"median of {SLICES} interleaved slices)\n"
        + fmt_table(
            ["entries", "users", "monitor", "req/s", "p50 ms", "p95 ms",
             "cpu µs/req", "errors"],
            rows,
        )
        + "\n\ncpu cost of the monitoring stack"
        + " (trimmed mean of paired slices)\n"
        + fmt_table(["entries", "users", "regression"], reg_rows)
        + "\n\nanswers byte-identical with monitoring on: "
        + ("yes" if identical else "NO")
        + f"\n\ngrid-info-top --once over 1 GIIS + {n_gris} GRIS "
        + f"(rc={top_rc}, {fleet['fleet']['healthy']}/"
        + f"{fleet['fleet']['size']} healthy)\n"
        + fmt_table(
            ["server", "health", "req/s", "p95 ms", "queue"], fleet_rows
        )
        + "\n\nEvery server above answered from its own cn=health entry"
        "\nover GRIP — the same chaining path the data takes, which is"
        "\nthe paper's pitch: the information service describes itself"
        "\nwith the same machinery it uses to describe the grid."
    )
    report("E22_selfmonitor", text)

    results = {
        "experiment": "E22",
        "quick": QUICK,
        "git": git_describe(),
        "children_per_host": CHILDREN_PER_HOST,
        "byte_identical": identical,
        "runs": runs,
        "fleet": fleet,
        "vo_load": vo_stats.summary(),
        "timeseries": scraper.export(),
    }
    if not QUICK:
        out = pathlib.Path(__file__).parents[1] / "BENCH_E22.json"
        out.write_text(json.dumps(results, indent=2) + "\n")

    # Transparency and clean completion on every rung.
    assert identical, "monitoring changed the serialized search answers"
    for r in runs:
        for side in ("off", "on"):
            assert r[side]["errors"] == 0, r
            assert r[side]["completed"] == r["users"] * r["requests_per_user"], r
        assert r["on"]["recorder_samples"] > 0, r
    assert vo_stats.errors == 0

    # The fleet dashboard saw every server healthy with live numbers.
    assert top_rc == 0, fleet
    assert fleet["fleet"]["size"] == n_gris + 1
    for row in fleet["servers"]:
        assert row["error"] is None, row
        assert row["health"] == "healthy", row
        assert row["rps"] is not None and row["rps"] > 0, row
        assert row["p95_ms"] is not None and math.isfinite(row["p95_ms"]), row

    # Acceptance gate: < 3% per-request cost on the big rung, measured
    # as CPU time per completed request over paired slices (the
    # noise-immune form of throughput on a saturated shared core).
    if not QUICK:
        big = [r for r in runs if r["entries"] >= 10000 and r["users"] >= 500]
        assert big and big[0]["regression_pct"] < 3.0, [
            (r["entries"], r["users"], r["regression_pct"]) for r in runs
        ]
