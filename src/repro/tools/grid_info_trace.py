"""grid-info-trace: merge span exports and render multi-server traces.

Each traced server appends one JSON line per finished span to its
``--trace-log`` file (and publishes slow trees under
``cn=slow,cn=monitor``).  This tool merges those exports — files,
live servers, or both — groups records by trace id, and renders each
trace as one tree spanning every server it touched::

    grid-info-trace giis.jsonl gris-a.jsonl gris-b.jsonl
    grid-info-trace --server giis.example:2135 --trace-id 4bf9...

    trace 4bf92f3577b34da6a3ce929d0e0e4736 (3 servers, 7 spans, 12.40ms)
    └─ ldap.search [giis:2135] 12.40ms base=o=Grid
       └─ giis.chain [giis:2135] 11.90ms fanout=2
          ├─ giis.child [giis:2135] 11.20ms (hop 2.10ms) url=ldap://a...
          │  └─ ldap.search [gris-a:2135] 9.10ms
          ...

The per-hop figure on a ``giis.child`` span is the slice of its
duration *not* accounted for by the remote server's root span — wire
plus queueing, the quantity the MDS performance studies single out.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import SCHEMA_VERSION

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-info-trace",
        description="Render distributed trace trees from span exports.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="JSONL span files written via --trace-log (merged together)",
    )
    parser.add_argument(
        "--server",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="also fetch captured slow traces from this server's "
        "cn=slow,cn=monitor subtree (repeatable)",
    )
    parser.add_argument(
        "--trace-id", default=None, help="render only this trace id"
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=0,
        help="render at most N traces, newest roots first (0 = all)",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="server query timeout"
    )
    return parser


def _load_file(path: str, records: List[dict]) -> Optional[str]:
    """Append *path*'s records; returns an error string or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    return f"{path}:{lineno}: not JSON"
                if not isinstance(record, dict) or "trace_id" not in record:
                    return f"{path}:{lineno}: not a span record"
                if record.get("v") != SCHEMA_VERSION:
                    return (
                        f"{path}:{lineno}: span schema v{record.get('v')!r}, "
                        f"this tool reads v{SCHEMA_VERSION}"
                    )
                records.append(record)
    except OSError as exc:
        return f"cannot read {path}: {exc}"
    return None


def _load_server(
    endpoint, address: str, timeout: float, records: List[dict]
) -> Optional[str]:
    """Query one server's cn=slow subtree for span records."""
    from ..ldap.client import LdapClient, LdapError
    from ..ldap.dit import Scope
    from ..net.transport import ConnectionClosed

    host, _, port = address.partition(":")
    if not port:
        port = "2135"
    try:
        port_num = int(port)
    except ValueError:
        return f"bad server address {address!r} (want HOST:PORT)"
    try:
        conn = endpoint.connect((host, port_num))
    except ConnectionClosed as exc:
        return f"cannot connect to {address}: {exc}"
    client = LdapClient(conn)
    try:
        result = client.search(
            "cn=slow,cn=monitor",
            Scope.SUBTREE,
            "(objectclass=mdsslowtrace)",
            timeout=timeout,
            check=False,
        )
    except LdapError as exc:
        return f"{address}: {exc}"
    finally:
        client.unbind()
    if not result.result.ok:
        return f"{address}: {result.result.describe()}"
    for entry in result.entries:
        for value in entry.get("mdsspan"):
            try:
                record = json.loads(value)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "trace_id" in record:
                records.append(record)
    return None


def _dedupe(records: List[dict]) -> List[dict]:
    """Same span exported twice (file + cn=slow) collapses to one."""
    seen = set()
    out = []
    for record in records:
        key = (record["trace_id"], record.get("span_id"))
        if key in seen:
            continue
        seen.add(key)
        out.append(record)
    return out


def _ms(record: dict) -> float:
    return float(record.get("duration") or 0.0) * 1000.0


def _hop_ms(record: dict, children: List[dict]) -> Optional[float]:
    """Wire+queue time: this span's duration minus its remote children.

    Only meaningful on spans whose children ran on a *different*
    server — the gap is the cost of the hop itself.
    """
    remote = [c for c in children if c.get("server_id") != record.get("server_id")]
    if not remote:
        return None
    gap = _ms(record) - max(_ms(c) for c in remote)
    return max(gap, 0.0)


def _render_tree(
    record: dict,
    by_parent: Dict[Optional[str], List[dict]],
    out,
    prefix: str = "",
    last: bool = True,
) -> None:
    children = by_parent.get(record.get("span_id"), [])
    connector = "└─ " if last else "├─ "
    parts = [f"{record.get('name', '?')} [{record.get('server_id') or '?'}]"]
    parts.append(f"{_ms(record):.2f}ms")
    hop = _hop_ms(record, children)
    if hop is not None:
        parts.append(f"(hop {hop:.2f}ms)")
    tags = record.get("tags") or {}
    parts.extend(f"{k}={v}" for k, v in sorted(tags.items()))
    out.write(prefix + connector + " ".join(parts) + "\n")
    child_prefix = prefix + ("   " if last else "│  ")
    for i, child in enumerate(children):
        _render_tree(child, by_parent, out, child_prefix, i == len(children) - 1)


def render_traces(
    records: List[dict],
    out,
    trace_id: Optional[str] = None,
    limit: int = 0,
) -> int:
    """Render merged trace trees; returns the number rendered."""
    traces: Dict[str, List[dict]] = {}
    for record in _dedupe(records):
        traces.setdefault(record["trace_id"], []).append(record)
    if trace_id is not None:
        traces = {k: v for k, v in traces.items() if k == trace_id}

    def root_start(spans: List[dict]) -> float:
        return min(float(s.get("start") or 0.0) for s in spans)

    ordered: List[Tuple[str, List[dict]]] = sorted(
        traces.items(), key=lambda kv: root_start(kv[1]), reverse=True
    )
    if limit > 0:
        ordered = ordered[:limit]

    rendered = 0
    for tid, spans in ordered:
        span_ids = {s.get("span_id") for s in spans}
        by_parent: Dict[Optional[str], List[dict]] = {}
        roots: List[dict] = []
        for span in sorted(spans, key=lambda s: float(s.get("start") or 0.0)):
            parent = span.get("parent_span_id")
            if parent in span_ids:
                by_parent.setdefault(parent, []).append(span)
            else:
                # True roots, plus orphans whose parent was sampled out
                # or not exported — render them at top level rather than
                # dropping them silently.
                roots.append(span)
        servers = {s.get("server_id") or "?" for s in spans}
        total = max(_ms(s) for s in spans)
        out.write(
            f"trace {tid} ({len(servers)} server"
            f"{'s' if len(servers) != 1 else ''}, {len(spans)} span"
            f"{'s' if len(spans) != 1 else ''}, {total:.2f}ms)\n"
        )
        for i, root in enumerate(roots):
            _render_tree(root, by_parent, out, "", i == len(roots) - 1)
        rendered += 1
    return rendered


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if not args.files and not args.server:
        print(
            "grid-info-trace: give JSONL files and/or --server addresses",
            file=sys.stderr,
        )
        return 2
    records: List[dict] = []
    for path in args.files:
        error = _load_file(path, records)
        if error is not None:
            print(f"grid-info-trace: {error}", file=sys.stderr)
            return 2
    if args.server:
        from ..net.reactor import ReactorEndpoint

        endpoint = ReactorEndpoint()
        try:
            for address in args.server:
                error = _load_server(endpoint, address, args.timeout, records)
                if error is not None:
                    print(f"grid-info-trace: {error}", file=sys.stderr)
                    return 2
        finally:
            endpoint.close()
    rendered = render_traces(records, out, args.trace_id, args.limit)
    if rendered == 0:
        print("grid-info-trace: no matching traces", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
