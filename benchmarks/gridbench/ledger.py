"""The per-layer ledger of a traced run.

Times come from the spans ``traced_server.py`` wrote; counts come from
the servers' own ``/metrics`` exposition, read before and after the
window.  A layer is a module path under ``repro``.  A metric named
``*_us_per_op`` is the layer's self CPU time (its spans' thread CPU
minus their child spans'), so the layers add up against the CPU the
processes used; ``*_us_per_call``, ``*_per_child``, the percentiles and
``net.reactor.recv_cb_us_per_op`` are wall time: how long the step
blocked whoever waited for it.
"""

from __future__ import annotations

import json
import pathlib
import urllib.request
from collections import defaultdict
from typing import Dict, Iterable, List

from repro.obs import parse_exposition

from metrics import median, percentile

# Intervals that are waiting, not work: wall time only.
WAITS = ("ldap.executor.wait", "gris.executor.wait",
         "ldap.client.child_ttfb", "ldap.client.child_rtt")
# Whose code a span's self time is, where its name is not the owner's.
OWNER = {"ldap.executor.run": "ldap.server", "gris.executor.run": "gris.core"}


def layer_of(name: str) -> str:
    return OWNER.get(name) or name.rsplit(".", 1)[0]


def fetch(url: str) -> str:
    """One /metrics read, unparsed: cheap enough to do inside a window."""
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.read().decode()


def counters(text: str) -> Dict[str, float]:
    """Exposition text -> sample name -> value, summed over label sets."""
    out: Dict[str, float] = defaultdict(float)
    for family in parse_exposition(text).values():
        for name, _labels, value in family["samples"]:
            if not name.endswith("_bucket"):
                out[name] += float(value)
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return defaultdict(float, {k: v - before.get(k, 0.0) for k, v in after.items()})


class SpanStats:
    """Sums per span name over the spans that started inside a window."""

    def __init__(self):
        self.count: Dict[str, int] = defaultdict(int)
        self.duration: Dict[str, float] = defaultdict(float)
        self.self_cpu: Dict[str, float] = defaultdict(float)
        self.n: Dict[str, float] = defaultdict(float)
        self.waits: Dict[str, List[float]] = defaultdict(list)
        self.requests = set()

    def add_file(self, path: pathlib.Path, start: float, end: float) -> None:
        with open(path) as lines:
            next(lines)  # header
            spans = [json.loads(line) for line in lines]
        for name, s, e, _sid, _parent, req, n, self_cpu in spans:
            if not start <= s < end:
                continue
            if name in WAITS:
                self.waits[name].append(e - s)
                continue
            self.count[name] += 1
            self.duration[name] += e - s
            self.n[name] += n
            self.self_cpu[name] += self_cpu
            if ":" in req:
                self.requests.add((str(path), req))

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_cpu.items() if layer_of(name) == layer)

    def total_self(self) -> float:
        return sum(self.self_cpu.values())


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(window: SpanStats, restart: SpanStats, counts: Dict[str, Dict[str, float]],
              gauges: Dict[str, float], ops: int, seconds: float, server_cpu_s: float,
              user_bytes: int) -> Dict[str, float]:
    """Every span- and counter-derived metric of metrics.PER_LAYER.

    *counts* = {"all" | "gris" | "giis": counter deltas over the window};
    *gauges* = the after-window reading, summed over servers; *restart* =
    the spans of the server started by the restart.  run.py adds the
    process, load-generator and overhead metrics it measures itself.
    """
    ops = max(ops, 1)
    us = 1e6 / ops
    dur, own, cnt, n = window.duration, window.self_cpu, window.count, window.n
    every, gris, giis = counts["all"], counts["gris"], counts["giis"]
    encodes = ("ldap.protocol.encode_message", "ldap.protocol.encode_message_with_op",
               "ldap.protocol.encode_search_entry")
    receives = [name for name in dur if name.endswith(".on_message")]
    encode_lookups = (every["ldap_encode_cache_hits"] + every["ldap_encode_cache_misses"]
                      + every["ldap_encode_cache_uncached"])
    replay = "ldap.storage.wal.replay"
    return {
        "net.reactor.recv_cb_us_per_op": sum(dur[r] for r in receives) * us,
        "net.reactor.send_us_per_op": own["net.reactor.send"] * us,
        "net.reactor.sends_per_op": cnt["net.reactor.send"] / ops,
        "net.reactor.bytes_in_per_op": every["tcp_bytes_received"] / ops,
        "net.reactor.bytes_out_per_op": every["tcp_bytes_sent"] / ops,
        "ldap.protocol.decode_us_per_op": own["ldap.protocol.decode_message"] * us,
        "ldap.protocol.encode_us_per_op": sum(own[e] for e in encodes) * us,
        "ldap.protocol.messages_per_op": (
            cnt["ldap.protocol.decode_message"] + cnt["ldap.protocol.encode_message"]
            + cnt["ldap.protocol.encode_message_with_op"]) / ops,
        "ldap.server.self_us_per_op": window.layer_self("ldap.server") * us,
        "ldap.server.entries_per_op": every["ldap_entries_returned"] / ops,
        "ldap.server.encode_cache_hit_frac": _frac(every["ldap_encode_cache_hits"], encode_lookups),
        "ldap.server.relayed_frac": _frac(every["ldap_entries_relayed"],
                                          every["ldap_entries_returned"]),
        "ldap.executor.wait_us_p50": percentile(window.waits["ldap.executor.wait"], 0.5) * 1e6,
        "ldap.executor.wait_us_p90": percentile(window.waits["ldap.executor.wait"], 0.9) * 1e6,
        "ldap.executor.rejected_per_op": every["ldap_executor_rejected"] / ops,
        "ldap.filter.compile_us_per_op": own["ldap.filter.compile_filter"] * us,
        "gris.core.self_us_per_op": window.layer_self("gris.core") * us,
        "gris.core.providers_probed_per_op": every["gris_provider_dispatches"] / ops,
        "gris.core.indexed_frac": _frac(
            every["gris_search_indexed"],
            every["gris_search_indexed"] + every["gris_search_scanned"]),
        "gris.cache.get_us_per_op": own["gris.cache.get"] * us,
        "gris.cache.hit_frac": _frac(every["gris_cache_hits"],
                                     every["gris_cache_hits"] + every["gris_cache_misses"]),
        "gris.cache.entries_copied_per_op": n["gris.cache.get"] / ops,
        "gris.provider.provide_us_per_call": _frac(
            dur["gris.provider.provide"], cnt["gris.provider.provide"]) * 1e6,
        "gris.provider.provides_per_s": cnt["gris.provider.provide"] / seconds,
        "ldap.dit.search_us_per_op": (own["ldap.dit.search"] + own["ldap.dit.candidates"]) * us,
        "ldap.dit.write_us_per_op": sum(
            own[f"ldap.dit.{w}"] for w in ("add", "replace", "delete")) * us,
        "ldap.dit.candidates_per_result": _frac(
            n["ldap.dit.candidates"], gris["ldap_entries_returned"]),
        "giis.core.self_us_per_op": window.layer_self("giis.core") * us,
        "giis.core.fanout_per_op": cnt["ldap.client.search_async"] / ops,
        "giis.core.local_entries_us_per_op": own["giis.core.local_entries"] * us,
        "giis.core.relay_frac": _frac(giis["giis_relay_entries"], giis["ldap_entries_returned"]),
        "ldap.pool.client_for_us_per_op": own["ldap.pool.client_for"] * us,
        "ldap.pool.reuse_frac": _frac(every["pool_reuses"],
                                      every["pool_reuses"] + every["pool_dials"]),
        "ldap.client.issue_us_per_child": _frac(
            dur["ldap.client.search_async"], cnt["ldap.client.search_async"]) * 1e6,
        "ldap.client.child_rtt_us_p50": median(window.waits["ldap.client.child_rtt"]) * 1e6,
        "ldap.client.child_ttfb_us_p50": median(window.waits["ldap.client.child_ttfb"]) * 1e6,
        "grip.registry.apply_us_per_op": own["grip.registry.apply"] * us,
        "grip.registry.size": gauges.get("grrp_registrations_active", 0.0),
        "ldap.storage.wal.apply_us_per_op": own["ldap.storage.wal.apply"] * us,
        "ldap.storage.wal.bytes_per_user_byte": _frac(every["storage_wal_bytes"], user_bytes),
        "ldap.storage.wal.replay_us_per_record": _frac(
            restart.duration[replay], restart.n[replay]) * 1e6,
        "ldap.storage.wal.replay_records": restart.n[replay],
        "ldap.storage.wal.snapshots": float(
            cnt["ldap.storage.wal.snapshot"] + restart.count["ldap.storage.wal.snapshot"]),
        "trace.coverage_frac": _frac(window.total_self(), server_cpu_s),
    }


def spans_of(paths: Iterable[pathlib.Path], start: float, end: float) -> SpanStats:
    stats = SpanStats()
    for path in paths:
        stats.add_file(path, start, end)
    return stats
