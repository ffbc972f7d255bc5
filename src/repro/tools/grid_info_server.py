"""grid-info-server: run a GRIS from a configuration file over TCP.

::

    grid-info-server --config gris.json --port 2135

Starts the LDAP front end with the configured providers and, if the
config lists registrations, sustains GRRP streams (carried as LDAP Add
operations) toward those directories.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Optional, Sequence

from ..giis.hierarchy import LdapGrrpSender, make_registrant
from ..gris.config import ConfigError, build_giis, build_gris, load_config
from ..ldap.executor import RequestExecutor
from ..ldap.server import LdapServer
from ..ldap.storage import BACKENDS, StorageSpec
from ..ldap.url import LdapUrl
from ..net.clock import WallClock
from ..net.reactor import ReactorEndpoint
from ..obs import (
    HealthModel,
    JsonlSink,
    MetricsHttpServer,
    MetricsRegistry,
    MonitorBackend,
    MonitoredBackend,
    SlowSpanLog,
    TimeSeriesRecorder,
    Tracer,
)

__all__ = ["main", "start_server"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-info-server",
        description="Run a Grid Resource Information Service (GRIS).",
    )
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("-p", "--port", type=int, default=2135, help="bind port (0=ephemeral)")
    parser.add_argument(
        "--advertise-host",
        default=None,
        help="hostname to advertise in registrations (default: bind address)",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="serve live operational metrics under cn=monitor",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text exposition on http://HOST:PORT/metrics "
        "and a JSON health rollup on /health (0 = ephemeral; implies "
        "--monitor and the self-monitoring provider)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="time-series sampling interval for windowed rates and "
        "quantiles (default 1.0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="search executor threads (0 = run searches inline on the "
        "event-loop thread, serializing every connection)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=128,
        help="max queued searches before new ones are rejected with busy(51)",
    )
    parser.add_argument(
        "--default-time-limit",
        type=float,
        default=0.0,
        help="server-side cap in seconds on any search's run time "
        "(0 = no cap; client time limits still apply)",
    )
    parser.add_argument(
        "--provider-workers",
        type=int,
        default=4,
        help="provider fan-out threads: providers that must be refreshed "
        "for one search are refreshed concurrently on this bounded pool "
        "(0 = probe sequentially on the search thread)",
    )
    parser.add_argument(
        "--stale-while-revalidate",
        type=float,
        default=0.0,
        help="serve a provider snapshot that outlived its TTL by up to "
        "this many seconds while refreshing it in the background "
        "(0 = expired snapshots always block on a refresh)",
    )
    parser.add_argument(
        "--index-attrs",
        default=None,
        metavar="ATTRS",
        help="comma-separated attributes whose posting lists each provider "
        "snapshot builds when published; any other attribute a search "
        "plans over is indexed on first use (overrides the config "
        "file's 'indexes' list)",
    )
    parser.add_argument(
        "--storage",
        choices=BACKENDS,
        default=None,
        help="durability backend for registrations and the materialized "
        "view: 'memory' loses state on exit, 'wal' appends to a "
        "write-ahead log with periodic snapshots (overrides the config "
        "file's 'storage' object; 'wal' needs --data-dir or a "
        "configured path)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="data directory for durable storage; restarting over the "
        "same directory replays the persisted state so the server "
        "comes up warm (implies --storage wal unless set otherwise)",
    )
    parser.add_argument(
        "--trace-log",
        default=None,
        metavar="PATH",
        help="append one JSON line per finished span to PATH "
        "(merge across servers with grid-info-trace)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="head-based sampling probability in [0,1] applied at local "
        "root spans; children and downstream servers honor the root's "
        "decision (default 1.0)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="capture the whole span tree of queries whose root exceeds "
        "MS milliseconds, published under cn=slow,cn=monitor "
        "(0 = disabled)",
    )
    parser.add_argument(
        "--server-id",
        default=None,
        help="identifier stamped into exported span records "
        "(default: the listen address host:port)",
    )
    return parser


def start_server(config_path: str, host: str = "127.0.0.1", port: int = 0,
                 advertise_host: Optional[str] = None, monitor: bool = False,
                 workers: int = 8, queue_limit: int = 128,
                 default_time_limit: float = 0.0, provider_workers: int = 4,
                 stale_while_revalidate: float = 0.0,
                 index_attrs: Optional[str] = None,
                 trace_log: Optional[str] = None,
                 trace_sample_rate: Optional[float] = None,
                 slow_query_ms: Optional[float] = None,
                 server_id: Optional[str] = None,
                 storage: Optional[str] = None,
                 data_dir: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 metrics_interval: float = 1.0):
    """Start everything; returns (endpoint, bound_port, registrants, server).

    With ``monitor=True`` one shared :class:`MetricsRegistry` is threaded
    through the transport, the GRIS, and the LDAP front end, and served
    as a GRIP-queryable ``cn=monitor`` subtree alongside the data suffix.
    Monitoring also starts a :class:`TimeSeriesRecorder` for windowed
    rates/quantiles, a :class:`HealthModel`, and a self-monitoring
    provider publishing ``Mds-Server-*`` health through the data suffix;
    ``metrics_port`` (which implies ``monitor``) additionally serves the
    Prometheus exposition over HTTP on the transport's own event loop.
    The self-monitoring handles ride on the returned server object as
    ``server.recorder``, ``server.health``, ``server.metrics_http``, and
    ``server.metrics_bound`` so the tuple shape stays unchanged.

    Tracing arguments default to the config file's ``tracing`` section
    (explicit arguments win); a tracer is built when a span log or a
    slow-query threshold is configured, and ``server_id`` falls back to
    the listen address so multi-server JSONL merges stay unambiguous.
    """
    clock = WallClock()
    config = load_config(config_path)
    if index_attrs is not None:
        config.index_attrs = [
            a.strip() for a in index_attrs.split(",") if a.strip()
        ]
    if storage is not None:
        base = config.storage or StorageSpec()
        config.storage = StorageSpec(
            backend=storage,
            path=base.path,
            fsync=base.fsync,
            snapshot_every=base.snapshot_every,
        )
    monitor = monitor or metrics_port is not None
    metrics = MetricsRegistry() if monitor else None

    tracing = config.tracing
    trace_log = trace_log if trace_log is not None else (tracing.trace_log or None)
    sample_rate = (
        trace_sample_rate if trace_sample_rate is not None else tracing.sample_rate
    )
    slow_ms = slow_query_ms if slow_query_ms is not None else tracing.slow_query_ms
    server_id = server_id if server_id is not None else (tracing.server_id or None)
    if not 0.0 <= sample_rate <= 1.0:
        raise ConfigError("--trace-sample-rate must be within [0, 1]")
    tracer = None
    slow_log = None
    if trace_log or slow_ms > 0:
        tracer = Tracer(
            clock.now,
            sample_rate=sample_rate,
            metrics=metrics,
            server_id=server_id or "",
        )
        if slow_ms > 0:
            slow_log = SlowSpanLog(slow_ms, metrics=metrics)
            tracer.add_sink(slow_log)
        if trace_log:
            tracer.add_sink(JsonlSink(trace_log))

    # The endpoint exists before the backend: a GIIS-mode server dials
    # its registered children through this same transport.
    endpoint = ReactorEndpoint(host, metrics=metrics)
    if config.giis is not None:
        core = build_giis(
            config, clock=clock, metrics=metrics,
            connector=lambda url: endpoint.connect(url.address),
            data_dir=data_dir, tracer=tracer,
        )
    else:
        core = build_gris(
            config, clock=clock, metrics=metrics,
            provider_workers=provider_workers,
            stale_while_revalidate=stale_while_revalidate,
            data_dir=data_dir, tracer=tracer,
        )
    backend = core
    monitor_backend = None
    if monitor:
        monitor_backend = MonitorBackend(
            metrics, server_name="grid-info-server", slow_log=slow_log
        )
        backend = MonitoredBackend(core, monitor_backend)
    executor = RequestExecutor(
        workers=workers,
        queue_limit=queue_limit,
        metrics=metrics,
        clock=clock,
        name="grid-info-server",
    )
    server = LdapServer(
        backend, clock=clock, name="grid-info-server", metrics=metrics,
        tracer=tracer, executor=executor, default_time_limit=default_time_limit,
    )
    bound = endpoint.listen(port, server.handle_connection)
    if tracer is not None and not tracer.server_id:
        # The default server id is the listen address, known only now.
        tracer.server_id = f"{host}:{bound}"

    server.recorder = server.health = server.metrics_http = None
    server.metrics_bound = None
    if monitor:
        recorder = TimeSeriesRecorder(
            metrics, clock, interval=metrics_interval
        )
        recorder.start()
        health = HealthModel(
            metrics, clock, recorder=recorder,
            server_id=server_id or f"{host}:{bound}",
        )
        core.enable_self_monitor(health)
        monitor_backend.health = health
        server.recorder = recorder
        server.health = health
        if metrics_port is not None:
            metrics_http = MetricsHttpServer(
                metrics, endpoint.reactor, host=host,
                health=health, clock_now=clock.now,
            )
            server.metrics_bound = metrics_http.start(metrics_port)
            server.metrics_http = metrics_http

    registrants = []
    if config.registrations:
        sender = LdapGrrpSender(lambda url: endpoint.connect(url.address))
        service_url = LdapUrl(advertise_host or host, bound, config.suffix)
        for spec in config.registrations:
            registrant = make_registrant(
                clock,
                service_url,
                config.suffix,
                sender,
                interval=spec.interval,
                ttl=spec.ttl,
                name=spec.name,
                vo=spec.vo,
            )
            registrant.register_with(spec.directory)
            registrants.append(registrant)
    return endpoint, bound, registrants, server


def main(argv: Optional[Sequence[str]] = None, run_forever: bool = True) -> int:
    args = build_parser().parse_args(argv)
    try:
        endpoint, bound, registrants, _server = start_server(
            args.config, args.host, args.port, args.advertise_host,
            monitor=args.monitor, workers=args.workers,
            queue_limit=args.queue_limit,
            default_time_limit=args.default_time_limit,
            provider_workers=args.provider_workers,
            stale_while_revalidate=args.stale_while_revalidate,
            index_attrs=args.index_attrs,
            trace_log=args.trace_log,
            trace_sample_rate=args.trace_sample_rate,
            slow_query_ms=args.slow_query_ms,
            server_id=args.server_id,
            storage=args.storage,
            data_dir=args.data_dir,
            metrics_port=args.metrics_port,
            metrics_interval=args.metrics_interval,
        )
    except ConfigError as exc:
        print(f"grid-info-server: {exc}", file=sys.stderr)
        return 2
    print(f"grid-info-server: listening on ldap://{args.host}:{bound}/")
    gris_backend = getattr(_server.backend, "inner", _server.backend)
    indexed = getattr(gris_backend, "index_attrs", ())
    if indexed:
        print(f"grid-info-server: indexing attributes {', '.join(indexed)}")
    engine = getattr(gris_backend, "storage", None)
    if engine is not None and engine.backend_name != "memory":
        print(f"grid-info-server: durable storage ({engine.backend_name})")
        recovered = getattr(gris_backend, "replayed_registrations", 0) or getattr(
            gris_backend, "recovered_providers", 0
        )
        if recovered:
            print(f"grid-info-server: recovered {recovered} persisted record(s)")
    if args.monitor or args.metrics_port is not None:
        print("grid-info-server: serving live metrics under cn=monitor")
    if _server.metrics_bound is not None:
        print(
            "grid-info-server: metrics endpoint on "
            f"http://{args.host}:{_server.metrics_bound}/metrics"
        )
    if args.trace_log:
        print(f"grid-info-server: exporting trace spans to {args.trace_log}")
    if registrants:
        targets = [d for r in registrants for d in r.directories()]
        print(f"grid-info-server: registering with {', '.join(targets)}")
    if run_forever:
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            for registrant in registrants:
                registrant.stop()
            if _server.recorder is not None:
                _server.recorder.stop()
            if _server.metrics_http is not None:
                _server.metrics_http.close()
            endpoint.close()
            _server.executor.shutdown()
            backend = getattr(_server.backend, "inner", _server.backend)
            if hasattr(backend, "shutdown"):
                backend.shutdown()  # the GRIS provider fan-out pool
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
