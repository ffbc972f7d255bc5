"""grid-info-top: a refreshing dashboard over a fleet's self-published health.

Every monitored server publishes its own operational state twice: as
``Mds-Server-*`` attributes on ``cn=health,cn=monitor`` (GRIP — the
paper's "the service describes itself through its own protocol") and as
a JSON rollup on the ``--metrics-port`` HTTP endpoint.  This tool polls
either form across a fleet and renders one table::

    grid-info-top 127.0.0.1:2135 127.0.0.1:2136 http://127.0.0.1:9135

Plain ``host:port`` specs are polled over LDAP; ``http://`` specs hit
the ``/health`` endpoint.  ``--once`` prints a machine-readable JSON
report and exits — the CI smoke test and the E22 benchmark use it to
assert the whole fleet is healthy with live traffic numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence

from ..ldap.client import LdapClient, LdapError
from ..ldap.dit import Scope
from ..net.reactor import ReactorEndpoint
from ..net.transport import ConnectionClosed, Endpoint

__all__ = ["main", "poll_server", "poll_fleet"]

HEALTH_BASE = "cn=health,cn=monitor"

_COLUMNS = (
    ("SERVER", 24), ("HEALTH", 9), ("RPS", 8), ("P95 MS", 9),
    ("HIT%", 6), ("QUEUE", 6), ("UPTIME", 8),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-info-top",
        description="Watch the self-published health of a fleet of "
        "GRIS/GIIS servers.",
    )
    parser.add_argument(
        "servers",
        nargs="+",
        metavar="SERVER",
        help="host:port (LDAP poll of cn=health,cn=monitor) or "
        "http://host:port (metrics endpoint /health)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    parser.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = until interrupted)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="poll once, print a JSON report, and exit (for CI)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="per-server poll timeout"
    )
    return parser


def _num(value, default: Optional[float] = None) -> Optional[float]:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _row(server: str, attrs: Dict[str, object]) -> Dict[str, object]:
    """Normalize an Mds-Server-* attribute map into one dashboard row."""
    low = {str(k).lower(): v for k, v in attrs.items()}
    checks = {
        key[len("mds-server-check-"):]: str(value)
        for key, value in low.items()
        if key.startswith("mds-server-check-")
    }
    return {
        "server": server,
        "id": str(low.get("mds-server-id", server)),
        "health": str(low.get("mds-server-health", "unknown")),
        "live": str(low.get("mds-server-live", "")).upper() == "TRUE",
        "ready": str(low.get("mds-server-ready", "")).upper() == "TRUE",
        "rps": _num(low.get("mds-server-rps")),
        "p95_ms": _num(low.get("mds-server-search-p95-ms")),
        "queue_depth": _num(low.get("mds-server-queue-depth")),
        "queue_saturation": _num(low.get("mds-server-queue-saturation")),
        "cache_hit_ratio": _num(low.get("mds-server-cache-hit-ratio")),
        "uptime_s": _num(low.get("mds-server-uptime-seconds")),
        "checks": checks,
        "error": None,
    }


def _poll_ldap(
    endpoint: Endpoint, host: str, port: int, timeout: float
) -> Dict[str, object]:
    spec = f"{host}:{port}"
    try:
        client = LdapClient(endpoint.connect((host, port)))
        try:
            result = client.search(
                HEALTH_BASE, Scope.BASE, "(objectclass=*)",
                timeout=timeout, check=False,
            )
        finally:
            client.unbind()
        if not result.entries:
            return {
                "server": spec,
                "error": "no cn=health,cn=monitor entry "
                "(is the server running with --monitor?)",
            }
        entry = result.entries[0]
        attrs = {
            attr: (values[0] if len(values) == 1 else list(values))
            for attr, values in entry.items()
        }
        return _row(spec, attrs)
    except (ConnectionClosed, LdapError, OSError) as exc:
        return {"server": spec, "error": str(exc) or type(exc).__name__}


def _poll_http(url: str, timeout: float) -> Dict[str, object]:
    target = url.rstrip("/")
    if not target.endswith("/health"):
        target += "/health"
    try:
        with urllib.request.urlopen(target, timeout=timeout) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        if exc.code != 503:  # 503 still carries the health body
            return {"server": url, "error": f"HTTP {exc.code}"}
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except (OSError, ValueError):
            return {"server": url, "error": "HTTP 503"}
    except (OSError, ValueError) as exc:
        return {"server": url, "error": str(exc) or type(exc).__name__}
    if not isinstance(payload, dict):
        return {"server": url, "error": "malformed /health payload"}
    return _row(url, payload.get("attrs") or {})


def poll_server(
    endpoint: Endpoint, spec: str, timeout: float = 5.0
) -> Dict[str, object]:
    """Poll one ``host:port`` (dialed through *endpoint*) or ``http://...`` spec."""
    if spec.startswith("http://") or spec.startswith("https://"):
        return _poll_http(spec, timeout)
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        return {"server": spec, "error": "expected host:port or http://..."}
    return _poll_ldap(endpoint, host, int(port), timeout)


def poll_fleet(
    endpoint: Endpoint, specs: Sequence[str], timeout: float = 5.0
) -> List[Dict[str, object]]:
    return [poll_server(endpoint, spec, timeout) for spec in specs]


def _fmt(value: Optional[float], digits: int = 1) -> str:
    if value is None:
        return "-"
    if not math.isfinite(value):
        return "inf"
    return f"{value:.{digits}f}"


def _render(rows: List[Dict[str, object]]) -> str:
    lines = ["  ".join(title.ljust(width) for title, width in _COLUMNS)]
    for row in rows:
        if row.get("error"):
            lines.append(
                f"{str(row['server'])[:24]:<24}  DOWN       {row['error']}"
            )
            continue
        hit = row.get("cache_hit_ratio")
        cells = (
            str(row["server"])[:24],
            str(row["health"]),
            _fmt(row.get("rps")),
            _fmt(row.get("p95_ms"), 2),
            _fmt(hit * 100.0 if hit is not None else None),
            _fmt(row.get("queue_depth"), 0),
            _fmt(row.get("uptime_s"), 0) + "s",
        )
        lines.append(
            "  ".join(
                str(cell).ljust(width)
                for cell, (_, width) in zip(cells, _COLUMNS)
            )
        )
    return "\n".join(lines)


def _exit_code(rows: List[Dict[str, object]]) -> int:
    if any(row.get("error") for row in rows):
        return 2
    if any(row.get("health") != "healthy" for row in rows):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    # One endpoint (one loop thread) for the life of the process, not
    # one per server per refresh.
    endpoint = ReactorEndpoint()
    try:
        if args.once:
            rows = poll_fleet(endpoint, args.servers, timeout=args.timeout)
            report = {
                "servers": rows,
                "fleet": {
                    "size": len(rows),
                    "reachable": sum(1 for r in rows if not r.get("error")),
                    "healthy": sum(
                        1 for r in rows if r.get("health") == "healthy"
                    ),
                },
            }
            out.write(json.dumps(report, sort_keys=True) + "\n")
            return _exit_code(rows)

        refreshes = 0
        while True:
            rows = poll_fleet(endpoint, args.servers, timeout=args.timeout)
            healthy = sum(1 for r in rows if r.get("health") == "healthy")
            if out is sys.stdout and out.isatty():
                out.write("\x1b[2J\x1b[H")  # clear + home
            out.write(
                f"grid-info-top — {len(rows)} server(s), "
                f"{healthy} healthy — {time.strftime('%H:%M:%S')}\n"
            )
            out.write(_render(rows) + "\n")
            out.flush()
            refreshes += 1
            if args.count and refreshes >= args.count:
                return _exit_code(rows)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        endpoint.close()


if __name__ == "__main__":
    raise SystemExit(main())
