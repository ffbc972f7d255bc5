"""E18 — indexed DIT storage engine vs. full-scan filter evaluation.

MDS-2 sits on OpenLDAP's indexed backends: "the GIIS backend maintains
indexes over registered information" so queries touch candidate entries,
not the whole tree.  The seed DIT evaluated every filter by walking all
entries.  This experiment measures what the equality/presence posting
lists buy: the same `(system=...)` query against the same tree, planned
through the index vs. linearly scanned, at growing tree sizes.

Set ``E18_QUICK=1`` (the CI smoke mode) for a smaller tree and fewer
repetitions; the ≥5x speedup claim is asserted at the 10k tree in full
mode only, but indexed-faster must hold in both.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import os
import statistics
import time

from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.testbed.metrics import fmt_table

QUICK = bool(os.environ.get("E18_QUICK"))
SIZES = [1000] if QUICK else [1000, 10000, 50000]
ROUNDS = 5 if QUICK else 15  # timed repetitions per (size, mode)
N_SYSTEMS = 50  # distinct values: equality selects ~N/50 entries


def build_entries(n):
    entries = [Entry("o=Grid", objectclass="organization", o="Grid")]
    for site in range(max(1, n // 100)):
        entries.append(
            Entry(
                f"ou=s{site}, o=Grid",
                objectclass="organizationalUnit",
                ou=f"s{site}",
            )
        )
    for i in range(n):
        entries.append(
            Entry(
                f"hn=h{i}, ou=s{i % max(1, n // 100)}, o=Grid",
                objectclass="GridComputeResource",
                hn=f"h{i}",
                system=f"os{i % N_SYSTEMS}",
                cpucount=str(1 + i % 16),
            )
        )
    return entries


def median_search_s(dit, filt):
    times = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        out = dit.search("o=Grid", Scope.SUBTREE, filt)
        times.append(time.perf_counter() - started)
    return statistics.median(times), len(out)


def test_dit_index(benchmark, report):
    filt = parse_filter("(system=os7)")

    def run():
        rows = []
        for n in SIZES:
            entries = build_entries(n)
            indexed = DIT(index_attrs=("system",))
            indexed.load(entries)
            scan = DIT()
            scan.load(entries)
            scan_s, scan_n = median_search_s(scan, filt)
            idx_s, idx_n = median_search_s(indexed, filt)
            assert idx_n == scan_n == len(
                indexed.search("o=Grid", Scope.SUBTREE, filt)
            )
            assert indexed.metrics.counter("ldap.search.planned").value
            assert scan.metrics.counter("ldap.search.scanned").value
            rows.append((n, idx_n, scan_s, idx_s, scan_s / idx_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "E18_dit_index",
        f"(system=os7) over subtree; median of {ROUNDS} runs"
        + ("  [quick mode]" if QUICK else "")
        + "\n"
        + fmt_table(
            ["entries", "matches", "scan (s)", "indexed (s)", "speedup"],
            [
                (n, hits, f"{s:.6f}", f"{i:.6f}", f"{x:.1f}x")
                for n, hits, s, i, x in rows
            ],
        )
        + "\n\nClaim check: posting-list planning touches only candidate"
        "\nentries, so indexed latency tracks the match count while scan"
        "\nlatency tracks the tree size; results are byte-identical"
        "\n(every candidate is re-verified against the filter).",
    )
    for n, _hits, scan_s, idx_s, speedup in rows:
        assert idx_s < scan_s, f"index slower than scan at n={n}"
        if n >= 10000:
            assert speedup >= 5.0, f"expected >=5x at n={n}, got {speedup:.1f}x"
