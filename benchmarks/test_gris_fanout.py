"""E16 — §10.3 provider dispatch: parallel fan-out and the coalescing cache.

A GRIS answering a broad query must consult every information provider
whose namespace intersects the search base.  Sequential dispatch pays
the *sum* of provider latencies; the bounded fan-out pool pays roughly
the *max*.  The cache overhaul adds single-flight coalescing: a stampede
of identical cold queries invokes each provider once, not once per
query.

Set ``E16_QUICK=1`` (the CI smoke mode) for fewer providers and shorter
stalls; the shape of the claims is asserted in both modes.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import os
import threading
import time

from repro.gris import FunctionProvider, GrisBackend
from repro.ldap.backend import RequestContext
from repro.ldap.dit import Scope
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.net.clock import WallClock
from repro.testbed.metrics import fmt_table

QUICK = bool(os.environ.get("E16_QUICK"))
N_PROVIDERS = 4 if QUICK else 8
PROVIDER_S = 0.05 if QUICK else 0.25  # per-provider stall
STAMPEDE = 4 if QUICK else 8  # concurrent identical cold queries


def make_gris(workers):
    gris = GrisBackend("o=G", clock=WallClock(), provider_workers=workers)
    gris.set_suffix_entry(Entry("o=G", objectclass="organization", o="G"))
    for i in range(N_PROVIDERS):
        def provide(i=i):
            time.sleep(PROVIDER_S)
            return [
                Entry(
                    f"hn=h{i}", objectclass="computer", hn=f"h{i}",
                    cpucount=str(i + 1),
                )
            ]

        gris.add_provider(
            FunctionProvider(
                f"host-{i}", provide, namespace=f"hn=h{i}", cache_ttl=300.0
            )
        )
    return gris


def broad_search(gris):
    req = SearchRequest(
        base="o=G", scope=Scope.SUBTREE, filter=parse_filter("(objectclass=*)")
    )
    started = time.perf_counter()
    out = gris.search(req, RequestContext())
    elapsed = time.perf_counter() - started
    assert len(out.entries) == N_PROVIDERS + 1  # suffix + one per provider
    return elapsed


def cold_and_warm(workers):
    """(cold_s, warm_s) for one broad query against a fresh GRIS."""
    gris = make_gris(workers)
    try:
        return broad_search(gris), broad_search(gris)
    finally:
        gris.shutdown()


def stampede():
    """K identical cold queries at once; returns per-provider invocations."""
    gris = make_gris(workers=N_PROVIDERS)
    try:
        results = []

        def query():
            results.append(broad_search(gris))

        started = time.perf_counter()
        threads = [threading.Thread(target=query) for _ in range(STAMPEDE)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        invocations = [p.invocations for p in gris.providers()]
        return invocations, int(gris.cache.metrics.counter("gris.cache.coalesced").value), elapsed
    finally:
        gris.shutdown()


def test_gris_fanout(benchmark, report):
    def run():
        seq_cold, seq_warm = cold_and_warm(workers=0)
        par_cold, par_warm = cold_and_warm(workers=N_PROVIDERS)
        invocations, coalesced, stampede_s = stampede()
        return seq_cold, seq_warm, par_cold, par_warm, invocations, coalesced, stampede_s

    seq_cold, seq_warm, par_cold, par_warm, invocations, coalesced, stampede_s = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    report(
        "E16_gris_fanout",
        f"{N_PROVIDERS} providers, {PROVIDER_S}s stall each "
        f"(sum={N_PROVIDERS * PROVIDER_S:.2f}s)"
        + ("  [quick mode]" if QUICK else "")
        + "\n"
        + fmt_table(
            ["dispatch", "cold collect (s)", "warm collect (s)"],
            [
                ("sequential (workers=0)", round(seq_cold, 3), round(seq_warm, 4)),
                (
                    f"parallel (workers={N_PROVIDERS})",
                    round(par_cold, 3),
                    round(par_warm, 4),
                ),
            ],
        )
        + f"\n\nstampede: {STAMPEDE} identical cold queries at once\n"
        + fmt_table(
            ["provider invocations", "coalesced waits", "total (s)"],
            [
                (
                    f"{min(invocations)}..{max(invocations)} per provider",
                    coalesced,
                    round(stampede_s, 3),
                )
            ],
        )
        + "\n\nClaim check (§10.3): fan-out latency is max(provider), not"
        "\nsum — parallel cold collect tracks one provider stall while"
        "\nsequential pays all of them; warm collects answer from cache;"
        "\nand single-flight coalescing invokes each provider exactly once"
        "\nunder a cold-query stampede.",
    )
    # sequential pays the sum of stalls; parallel pays roughly the max
    assert seq_cold >= N_PROVIDERS * PROVIDER_S
    assert par_cold < seq_cold / 2
    # warm collects never touch a provider
    assert seq_warm < PROVIDER_S
    assert par_warm < PROVIDER_S
    # the stampede coalesced onto exactly one provide() per provider
    assert invocations == [1] * N_PROVIDERS
    assert coalesced >= 1
