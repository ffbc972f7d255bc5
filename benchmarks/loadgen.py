"""MDS2-style load generator for GRIS/GIIS servers.

The MDS performance studies (Zhang, Freschl & Schopf; PAPERS.md) drove
directory servers with fleets of concurrent users issuing mixed search
workloads.  This module is the reusable core of that harness:

* :class:`Workload` — a named, seeded mix of filters and scopes over a
  search base; draws are deterministic per seed so baseline and
  optimized runs see the *same* request sequence;
* :func:`closed_loop` — N virtual users, each with its own connection,
  each keeping exactly one request in flight (think-time zero): the
  classic saturation workload.  Offered load adapts to service rate;
* :class:`LoadStats` — completed/error counts plus client-observed
  latency percentiles (p50/p95/p99) and throughput;
* :func:`build_vo` — the measured topology: M GRIS (one DIT each)
  behind a GIIS front end chaining over pooled reactor connections,
  mirroring Figure 5's hierarchy;
* :func:`git_describe` — the commit a report was measured at.

Everything runs over real loopback sockets on the selector-reactor
transport; the client side keeps all virtual users on one event-loop
thread, so user counts in the hundreds cost file descriptors rather
than OS threads.
"""

import pathlib
import random
import subprocess
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.executor import RequestExecutor
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.ldap.server import LdapServer
from repro.net import ReactorEndpoint
from repro.net.clock import WallClock
from repro.obs import (
    HealthModel,
    MetricsHttpServer,
    MetricsRegistry,
    MonitorBackend,
    MonitoredBackend,
    TimeSeriesRecorder,
    parse_exposition,
)

__all__ = [
    "Workload",
    "LoadStats",
    "closed_loop",
    "build_vo",
    "VoTestbed",
    "populate_gris",
    "MetricsScraper",
    "git_describe",
]


# ---------------------------------------------------------------------------
# Workload definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A weighted request mix.  ``filters``/``scopes`` are (choice,
    weight) pairs; filters are LDAP filter strings, scopes are
    :class:`Scope` values.  The draw sequence is fixed by ``seed``."""

    name: str
    base: str = "o=Grid"
    filters: Tuple[Tuple[str, float], ...] = (("(objectclass=*)", 1.0),)
    scopes: Tuple[Tuple[int, float], ...] = ((Scope.SUBTREE, 1.0),)
    attrs: Tuple[str, ...] = ()
    seed: int = 2135  # the MDS port number; any fixed value works

    def request_source(self) -> Callable[[], SearchRequest]:
        """A zero-arg factory yielding the deterministic request mix.

        Not thread-safe: give each generator loop its own source.
        """
        rng = random.Random(self.seed)
        fchoices = [parse_filter(f) for f, _ in self.filters]
        fweights = [w for _, w in self.filters]
        schoices = [s for s, _ in self.scopes]
        sweights = [w for _, w in self.scopes]

        def next_request() -> SearchRequest:
            filt = rng.choices(fchoices, fweights)[0]
            scope = rng.choices(schoices, sweights)[0]
            return SearchRequest(
                base=self.base,
                scope=scope,
                filter=filt,
                attributes=self.attrs,
            )

        return next_request

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "base": self.base,
            "filters": [[f, w] for f, w in self.filters],
            "scopes": [[int(s), w] for s, w in self.scopes],
            "attrs": list(self.attrs),
            "seed": self.seed,
        }

    def reseeded(self, seed: int) -> "Workload":
        """The same mix with a different draw sequence (per-user stagger)."""
        return Workload(
            name=self.name,
            base=self.base,
            filters=self.filters,
            scopes=self.scopes,
            attrs=self.attrs,
            seed=seed,
        )


@dataclass
class LoadStats:
    """Client-observed outcome of one load run."""

    mode: str
    users: int
    completed: int = 0
    errors: int = 0
    duration_s: float = 0.0
    latencies: List[float] = field(default_factory=list)

    def percentiles(self) -> Dict[str, float]:
        if not self.latencies:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        s = sorted(self.latencies)

        def q(p: float) -> float:
            return round(s[min(len(s) - 1, int(p * len(s)))] * 1000, 3)

        return {"p50_ms": q(0.50), "p95_ms": q(0.95), "p99_ms": q(0.99)}

    @property
    def throughput_rps(self) -> float:
        if not self.duration_s:
            return 0.0
        return round(self.completed / self.duration_s, 1)

    def summary(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "users": self.users,
            "completed": self.completed,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 3),
            "throughput_rps": self.throughput_rps,
            "percentiles": self.percentiles(),
        }


# ---------------------------------------------------------------------------
# Closed loop: N users, one request in flight each
# ---------------------------------------------------------------------------


class _VirtualUser:
    """One connection re-issuing the next request as each completes.

    The completion callback runs on the client reactor thread; issuing
    the next request from it keeps exactly one request in flight per
    user with zero think time.
    """

    __slots__ = ("client", "source", "remaining", "latencies", "errors",
                 "_t0", "_harness")

    def __init__(self, client, source, requests, harness):
        self.client = client
        self.source = source
        self.remaining = requests
        self.latencies: List[float] = []
        self.errors = 0
        self._t0 = 0.0
        self._harness = harness

    def start(self) -> None:
        self._fire()

    def _fire(self) -> None:
        self._t0 = time.perf_counter()
        try:
            self.client.search_async(self.source(), self._on_done)
        except Exception:  # noqa: BLE001 - a dead user stops looping
            self.errors += 1
            self._harness.user_finished()

    def _on_done(self, result, error) -> None:
        self.latencies.append(time.perf_counter() - self._t0)
        if error is not None or not result.result.ok:
            self.errors += 1
        self.remaining -= 1
        if self.remaining > 0:
            self._fire()
        else:
            self._harness.user_finished()


class _Harness:
    def __init__(self, users: int):
        self._active = users
        self._lock = threading.Lock()
        self.done = threading.Event()

    def user_finished(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active <= 0:
                self.done.set()


def closed_loop(
    connect: Callable[[], object],
    workload: Workload,
    users: int,
    requests_per_user: int,
    timeout_s: float = 300.0,
) -> LoadStats:
    """Saturation load: ``users`` connections, one request in flight
    each, ``requests_per_user`` requests per connection."""
    harness = _Harness(users)
    vusers = []
    for i in range(users):
        # stagger seeds so users do not issue identical request streams
        wl = workload.reseeded(workload.seed + i)
        vusers.append(
            _VirtualUser(
                LdapClient(connect()), wl.request_source(),
                requests_per_user, harness,
            )
        )
    started = time.perf_counter()
    for u in vusers:
        u.start()
    finished = harness.done.wait(timeout=timeout_s)
    duration = time.perf_counter() - started

    stats = LoadStats(mode="closed", users=users, duration_s=duration)
    for u in vusers:
        stats.latencies.extend(u.latencies)
        stats.errors += u.errors
        try:
            u.client.unbind()
        except Exception:  # noqa: BLE001 - teardown best-effort
            pass
    stats.completed = len(stats.latencies)
    if not finished:
        stats.errors += 1  # record the timeout itself
    return stats


# ---------------------------------------------------------------------------
# Topology: M GRIS behind a GIIS, and the standalone-GRIS data model
# ---------------------------------------------------------------------------


def populate_gris(
    dit: DIT,
    n_hosts: int,
    children_per_host: int = 20,
) -> int:
    """The MDS2-shaped dataset: hosts under ``o=Grid``, each with
    per-device/per-queue children that repeat the host's ``hn`` so an
    indexed equality search returns the whole host group.
    """
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    total = 1
    for h in range(n_hosts):
        hn = f"host{h}"
        dit.add(
            Entry(
                f"hn={hn}, o=Grid",
                objectclass="computer",
                hn=hn,
                system="linux",
                cpucount=str(4 + h % 4),
                load5=str((h % 50) / 10.0),
            )
        )
        total += 1
        for c in range(children_per_host):
            dit.add(
                Entry(
                    f"dev=d{c}, hn={hn}, o=Grid",
                    objectclass="device",
                    dev=f"d{c}",
                    hn=hn,
                    status="up" if c % 7 else "down",
                )
            )
            total += 1
    return total


class VoTestbed:
    """M GRIS (one DIT each) behind one GIIS, all on the reactor.

    With monitoring on, ``ldap_specs`` lists every server as
    ``host:port`` (for ``grid-info-top``'s GRIP mode) and
    ``metrics_urls`` lists the per-server HTTP exposition endpoints,
    GIIS first in both.
    """

    def __init__(self, giis_port: int, gris_ports: List[int], closers,
                 metrics_urls: Optional[List[str]] = None):
        self.giis_port = giis_port
        self.gris_ports = gris_ports
        self._closers = closers
        self.metrics_urls = metrics_urls or []

    @property
    def ldap_specs(self) -> List[str]:
        return [
            f"127.0.0.1:{p}" for p in [self.giis_port] + self.gris_ports
        ]

    def close(self) -> None:
        for close in reversed(self._closers):
            try:
                close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass


def _monitor_server(clock, closers, server_name: str, metrics_interval: float):
    """One server's self-monitoring bundle (pre-listen half)."""
    metrics = MetricsRegistry()
    recorder = TimeSeriesRecorder(metrics, clock, interval=metrics_interval)
    health = HealthModel(metrics, clock, recorder=recorder)
    backend_monitor = MonitorBackend(
        metrics, server_name=server_name, health=health
    )
    closers.append(recorder.stop)
    return metrics, recorder, health, backend_monitor


def _serve_metrics(metrics, health, endpoint, clock, closers) -> str:
    http = MetricsHttpServer(
        metrics, endpoint.reactor, health=health, clock_now=clock.now
    )
    port = http.start(0)
    closers.append(http.close)
    return f"http://127.0.0.1:{port}"


def build_vo(
    n_gris: int,
    hosts_per_gris: int,
    children_per_host: int = 20,
    workers: int = 4,
    monitor: bool = False,
    metrics_interval: float = 0.5,
) -> VoTestbed:
    closers = []
    clock = WallClock()
    gris_ports = []
    metrics_urls: List[str] = []
    gris_metrics_urls: List[str] = []
    for g in range(n_gris):
        dit = DIT(index_attrs=["hn"])
        populate_gris(dit, hosts_per_gris, children_per_host)
        backend = DitBackend(dit)
        metrics = recorder = health = None
        if monitor:
            metrics, recorder, health, mon = _monitor_server(
                clock, closers, f"gris{g}", metrics_interval
            )
            backend = MonitoredBackend(backend, mon)
        executor = RequestExecutor(
            workers=workers, queue_limit=4096, metrics=metrics,
            clock=clock, name=f"gris{g}",
        )
        server = LdapServer(
            backend, clock=clock, executor=executor,
            metrics=metrics, name=f"gris{g}",
        )
        endpoint = ReactorEndpoint(metrics=metrics)
        port = endpoint.listen(0, server.handle_connection)
        if monitor:
            health.server_id = f"127.0.0.1:{port}"
            recorder.start()
            gris_metrics_urls.append(
                _serve_metrics(metrics, health, endpoint, clock, closers)
            )
        closers.append(executor.shutdown)
        closers.append(endpoint.close)
        gris_ports.append(port)

    front_metrics = front_recorder = front_health = None
    if monitor:
        front_metrics, front_recorder, front_health, front_mon = (
            _monitor_server(clock, closers, "giis", metrics_interval)
        )
    chain_endpoint = ReactorEndpoint(metrics=front_metrics)
    closers.append(chain_endpoint.close)
    giis = GiisBackend(
        "o=Grid",
        clock=clock,
        connector=lambda url: chain_endpoint.connect((url.host, url.port)),
        child_timeout=30.0,
        metrics=front_metrics,
    )
    closers.append(giis.shutdown)
    now = clock.now()
    for port in gris_ports:
        giis.apply_grrp(
            GrrpMessage(
                service_url=f"ldap://127.0.0.1:{port}/",
                timestamp=now,
                valid_until=now + 3600.0,
                metadata={"suffix": "o=Grid"},
            )
        )
    front_backend = giis
    if monitor:
        giis.enable_self_monitor(front_health)
        front_backend = MonitoredBackend(giis, front_mon)
    front_executor = RequestExecutor(
        workers=workers, queue_limit=4096, metrics=front_metrics,
        clock=clock, name="giis",
    )
    front = ReactorEndpoint(metrics=front_metrics)
    server = LdapServer(
        front_backend, clock=clock, executor=front_executor,
        metrics=front_metrics, name="giis",
    )
    giis_port = front.listen(0, server.handle_connection)
    if monitor:
        front_health.server_id = f"127.0.0.1:{giis_port}"
        front_recorder.start()
        metrics_urls.append(
            _serve_metrics(front_metrics, front_health, front, clock, closers)
        )
        metrics_urls.extend(gris_metrics_urls)
    closers.append(front_executor.shutdown)
    closers.append(front.close)
    return VoTestbed(giis_port, gris_ports, closers, metrics_urls=metrics_urls)


# ---------------------------------------------------------------------------
# Scraper: server-side time-series alongside client-observed latency
# ---------------------------------------------------------------------------


class MetricsScraper:
    """Polls ``/metrics`` endpoints on a thread and keeps small samples.

    Each poll reduces one exposition page to scalars: counters and
    gauges sum their samples per family; histograms keep the ``_count``
    and ``_sum`` totals.  ``export()`` hands the per-server series to
    the benchmark report so ``BENCH_E22.json`` carries the server-side
    view of the run next to the client-observed percentiles.
    """

    def __init__(self, urls: Sequence[str], interval: float = 1.0,
                 families: Optional[Sequence[str]] = None,
                 timeout: float = 5.0):
        self.urls = list(urls)
        self.interval = interval
        self.timeout = timeout
        self._families = tuple(families) if families else None
        self.samples: Dict[str, List[Tuple[float, Dict[str, float]]]] = {
            url: [] for url in self.urls
        }
        self.errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = time.perf_counter()

    def _reduce(self, text: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for family, info in parse_exposition(text).items():
            if self._families and not any(
                family.startswith(p) for p in self._families
            ):
                continue
            if info["type"] == "histogram":
                for name, _labels, value in info["samples"]:
                    if name.endswith("_count"):
                        out[f"{family}_count"] = (
                            out.get(f"{family}_count", 0.0) + value
                        )
                    elif name.endswith("_sum"):
                        out[f"{family}_sum"] = (
                            out.get(f"{family}_sum", 0.0) + value
                        )
            else:
                for _name, _labels, value in info["samples"]:
                    out[family] = out.get(family, 0.0) + value
        return out

    def poll_once(self) -> None:
        t = round(time.perf_counter() - self._started, 3)
        for url in self.urls:
            try:
                with urllib.request.urlopen(
                    url.rstrip("/") + "/metrics", timeout=self.timeout
                ) as resp:
                    text = resp.read().decode("utf-8")
                self.samples[url].append((t, self._reduce(text)))
            except (OSError, ValueError):
                self.errors += 1

    def start(self) -> None:
        def run() -> None:
            while not self._stop.wait(self.interval):
                self.poll_once()

        self._thread = threading.Thread(
            target=run, name="metrics-scraper", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def export(self) -> Dict[str, object]:
        return {
            "interval_s": self.interval,
            "poll_errors": self.errors,
            "servers": {
                url: [
                    {"t": t, "values": values}
                    for t, values in series
                ]
                for url, series in self.samples.items()
            },
        }


def git_describe() -> str:
    """``git describe`` of this checkout, or ``unknown`` outside git."""
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
