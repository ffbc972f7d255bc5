"""The one metric schema: every name, unit, direction and bound.

BENCHMARK.json at the repository root repeats these tables; the smoke
test checks that the two agree.  Every run prints every metric of its
kind, so a metric that does not apply to a workload still has a defined
value there (stated per metric below).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

# (name, unit, better, bound): bound = share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# Every time is reported at reference speed: divided by the host-speed
# index of the interval it was measured in (hostspeed.py), because the
# shared hosts this runs on execute the same instructions 1.0 to 1.6
# times as fast from one minute to the next.  What is left is 1-9 % of
# run-to-run spread on most metrics and up to 15 % on the p90s, so the
# times carry the widest bound the benchmark contract allows.
# Latency percentiles and CPU per operation are the median over the
# window's slices of the slice's own value.
END_TO_END: List[Tuple[str, str, str, float]] = [
    # Launch of the first server until the readiness search is answered
    # correctly (giis_register: after 500 registrations are loaded);
    # median of five set-ups.
    ("setup_s", "s", "lower", 0.25),
    # Due time -> SearchResultDone over every search of the window.
    ("search_p50_ms", "ms", "lower", 0.25),
    ("search_p90_ms", "ms", "lower", 0.25),
    # Due time -> first entry (giis_register answers with a reference
    # and no entry: there it is due time -> Done).
    ("ttfe_p50_ms", "ms", "lower", 0.25),
    # Oracle-correct operations completed per second of window.
    ("goodput_rps", "1/s", "higher", 0.02),
    # utime+stime of every server process over the window, per
    # completed operation: the capacity proxy (1000 / it = ops/s/core).
    ("server_cpu_ms_per_op", "ms", "lower", 0.25),
    # Sum of VmHWM over the server processes at window end.
    ("server_rss_mb", "MB", "lower", 0.10),
    # Due time -> AddResponse of a GRRP REGISTER.  Only giis_register
    # registers; the read-only workloads repeat their search p50/p90
    # here, so the gate is inert on them.
    ("register_p50_ms", "ms", "lower", 0.25),
    ("register_p90_ms", "ms", "lower", 0.25),
]
# Time to restart is a per-layer metric (tools.grid_info_server.restart_s),
# not a gated one: a process start is the one time here that the
# host-speed index does not steady (README, Steadiness).

# (name, unit, better).  "/op" = summed over every server process, per
# completed client operation of the traced window.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("net.reactor.recv_cb_us_per_op", "us", "lower"),
    ("net.reactor.send_us_per_op", "us", "lower"),
    ("net.reactor.sends_per_op", "count", "lower"),
    ("net.reactor.bytes_in_per_op", "B", "lower"),
    ("net.reactor.bytes_out_per_op", "B", "lower"),
    ("ldap.protocol.decode_us_per_op", "us", "lower"),
    ("ldap.protocol.encode_us_per_op", "us", "lower"),
    ("ldap.protocol.messages_per_op", "count", "lower"),
    ("ldap.server.self_us_per_op", "us", "lower"),
    ("ldap.server.entries_per_op", "count", "lower"),
    ("ldap.server.encode_cache_hit_frac", "frac", "higher"),
    ("ldap.server.relayed_frac", "frac", "higher"),
    ("ldap.executor.wait_us_p50", "us", "lower"),
    ("ldap.executor.wait_us_p90", "us", "lower"),
    ("ldap.executor.rejected_per_op", "count", "lower"),
    ("ldap.filter.compile_us_per_op", "us", "lower"),
    ("gris.core.self_us_per_op", "us", "lower"),
    ("gris.core.providers_probed_per_op", "count", "lower"),
    ("gris.core.indexed_frac", "frac", "higher"),
    ("gris.cache.get_us_per_op", "us", "lower"),
    ("gris.cache.hit_frac", "frac", "higher"),
    ("gris.cache.entries_copied_per_op", "count", "lower"),
    ("gris.provider.provide_us_per_call", "us", "lower"),
    ("gris.provider.provides_per_s", "1/s", "lower"),
    ("ldap.dit.search_us_per_op", "us", "lower"),
    ("ldap.dit.write_us_per_op", "us", "lower"),
    ("ldap.dit.candidates_per_result", "count", "lower"),
    ("giis.core.self_us_per_op", "us", "lower"),
    ("giis.core.fanout_per_op", "count", "lower"),
    ("giis.core.local_entries_us_per_op", "us", "lower"),
    ("giis.core.relay_frac", "frac", "higher"),
    ("ldap.pool.client_for_us_per_op", "us", "lower"),
    ("ldap.pool.reuse_frac", "frac", "higher"),
    ("ldap.client.issue_us_per_child", "us", "lower"),
    ("ldap.client.child_rtt_us_p50", "us", "lower"),
    ("ldap.client.child_ttfb_us_p50", "us", "lower"),
    ("grip.registry.apply_us_per_op", "us", "lower"),
    ("grip.registry.size", "count", "higher"),
    ("ldap.storage.wal.apply_us_per_op", "us", "lower"),
    ("ldap.storage.wal.bytes_per_user_byte", "frac", "lower"),
    ("ldap.storage.wal.replay_us_per_record", "us", "lower"),
    ("ldap.storage.wal.replay_records", "count", "lower"),
    ("ldap.storage.wal.snapshots", "count", "lower"),
    ("tools.grid_info_server.boot_s", "s", "lower"),
    ("tools.grid_info_server.restart_s", "s", "lower"),
    ("proc.giis.cpu_ms_per_op", "ms", "lower"),
    ("proc.gris.cpu_ms_per_op", "ms", "lower"),
    ("proc.loadgen.cpu_frac", "frac", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.stalled_ms", "ms", "lower"),
    ("loadgen.search_p99_ms", "ms", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)
