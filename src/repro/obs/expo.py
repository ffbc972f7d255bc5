"""Prometheus text-format (0.0.4) exposition for the metrics registry.

The ``cn=monitor`` subtree keeps the paper's promise that the service
is queryable through its own protocol; this module keeps the
operational one: any off-the-shelf scraper can watch the same numbers.
:func:`render_exposition` turns one consistent
:class:`~repro.obs.metrics.RegistrySnapshot` into the exposition text —
every sample on the page comes from the same
:meth:`~repro.obs.metrics.MetricsRegistry.collect` pass, so a scrape
never mixes instants — and :class:`MetricsHttpServer` serves it over a
tiny HTTP listener hosted on the service's own reactor loop
(``grid-info-server --metrics-port``).

Name mapping: dotted registry names become underscore families
(``ldap.requests`` → ``ldap_requests``), labels are carried through
with spec escaping, histograms emit the standard
``_bucket{le=...}``/``_sum``/``_count`` triplet from the same
cumulative buckets ``cn=monitor`` publishes.

:func:`parse_exposition` is the inverse used by ``grid-info-top``'s
HTTP mode, the benchmark scraper, and the CI smoke test — a strict
line-grammar reader that rejects malformed output instead of guessing.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .metrics import InstrumentSnapshot, MetricsRegistry, RegistrySnapshot

if TYPE_CHECKING:  # runtime import would close an obs<->net cycle
    from ..net.reactor import Reactor

__all__ = [
    "render_exposition",
    "parse_exposition",
    "MetricsHttpServer",
    "CONTENT_TYPE",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _family_name(name: str) -> str:
    out = _SANITIZE.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _label_name(name: str) -> str:
    out = _LABEL_SANITIZE.sub("_", name)
    if not out or not _LABEL_OK.match(out):
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labels, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(_label_name(k), _escape_label(str(v))) for k, v in labels]
    if extra is not None:
        pairs.append((extra[0], _escape_label(extra[1])))
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _render_family(
    family: str, kind: str, snaps: List[InstrumentSnapshot]
) -> List[str]:
    lines = [
        f"# HELP {family} {_escape_help(snaps[0].name)}",
        f"# TYPE {family} {kind}",
    ]
    for snap in snaps:
        if kind == "histogram":
            data = snap.data
            for bound, cumulative in data["buckets"]:
                le = "+Inf" if bound == float("inf") else _fmt_value(float(bound))
                lines.append(
                    f"{family}_bucket{_label_str(snap.labels, ('le', le))}"
                    f" {_fmt_value(float(cumulative))}"
                )
            lines.append(
                f"{family}_sum{_label_str(snap.labels)}"
                f" {_fmt_value(float(data['sum']))}"
            )
            lines.append(
                f"{family}_count{_label_str(snap.labels)}"
                f" {_fmt_value(float(data['count']))}"
            )
        else:
            value = snap.data.get("value", 0.0)
            try:
                value = float(value)
            except (TypeError, ValueError):
                value = float("nan")
            lines.append(f"{family}{_label_str(snap.labels)} {_fmt_value(value)}")
    return lines


def render_exposition(snapshot: RegistrySnapshot) -> str:
    """One consistent snapshot as Prometheus text format 0.0.4."""
    families: Dict[Tuple[str, str], List[InstrumentSnapshot]] = {}
    for snap in snapshot:
        kind = "gauge" if snap.kind == "gauge" else snap.kind
        families.setdefault((_family_name(snap.name), kind), []).append(snap)
    lines: List[str] = []
    for (family, kind), snaps in sorted(families.items()):
        snaps.sort(key=lambda s: s.labels)
        lines.extend(_render_family(family, kind, snaps))
    return "\n".join(lines) + "\n" if lines else ""


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    out: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR.match(text, pos)
        if match is None:
            raise ValueError(f"bad label pair at {text[pos:]!r}")
        raw = match.group("value")
        out[match.group("key")] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError(f"expected ',' in labels at {text[pos:]!r}")
            pos += 1
    return out


def _parse_value(text: str) -> float:
    lowered = text.lower()
    if lowered == "nan":
        return float("nan")
    if lowered in ("+inf", "inf"):
        return float("inf")
    if lowered == "-inf":
        return float("-inf")
    return float(text)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Strict reader for the 0.0.4 text format.

    Returns ``{family: {"type": kind, "samples": [(name, labels, value),
    ...]}}`` where *name* still carries histogram suffixes
    (``_bucket``/``_sum``/``_count``).  Raises ValueError on any line
    that does not match the grammar.
    """
    families: Dict[str, Dict[str, object]] = {}
    typed: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"bad TYPE line: {line!r}")
            typed[parts[2]] = parts[3]
            families.setdefault(
                parts[2], {"type": parts[3], "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("# HELP "):
            if len(line.split(" ", 3)) != 4:
                raise ValueError(f"bad HELP line: {line!r}")
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"bad sample line: {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = _parse_value(match.group("value"))
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and typed.get(base) == "histogram":
                family = base
                break
        families.setdefault(
            family, {"type": typed.get(family, "untyped"), "samples": []}
        )["samples"].append((name, labels, value))
    return families


class MetricsHttpServer:
    """``/metrics`` (exposition) and ``/health`` (JSON rollup) over HTTP.

    Rides the caller's :class:`Reactor` — the service's own, so metrics
    scrapes share the loop with the LDAP traffic they describe — and
    never stops it.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        reactor: "Reactor",
        host: str = "127.0.0.1",
        health=None,
        clock_now=None,
    ):
        # Imported here, not at module top: obs loads before net.
        from ..net.httpd import HttpListener

        self.metrics = metrics
        self.health = health
        self._clock_now = clock_now
        self._listener = HttpListener(reactor, self._handle, host=host)
        self.bound_port: Optional[int] = None

    def start(self, port: int = 0) -> int:
        self.bound_port = self._listener.listen(port)
        return self.bound_port

    def _handle(self, path: str) -> Tuple[int, str, bytes]:
        if path in ("/metrics", "/"):
            now = self._clock_now() if self._clock_now is not None else 0.0
            body = render_exposition(self.metrics.collect(now))
            return 200, CONTENT_TYPE, body.encode("utf-8")
        if path == "/health" and self.health is not None:
            report = self.health.report()
            payload = report.to_json()
            payload["attrs"] = self.health.attrs()
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            status = 200 if report.ready else 503
            return status, "application/json", body
        return 404, "text/plain", b"try /metrics\n"

    def close(self) -> None:
        self._listener.close()
