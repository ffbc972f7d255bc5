"""E7 — §10.3: per-provider TTL caching.

"To control the intrusiveness of GRIS operation, improve response time,
and maximize deployment flexibility, each provider's results may be
cached for a configurable period of time to reduce the number of
provider invocations ... the appropriate value depends greatly on both
the dynamism of the modeled resource and the cost of the provider
mechanism."

The sweep: one GRIS with an expensive script-style provider, a Poisson
query stream, TTL ∈ {0, 1, 5, 15, 60} s.  Measured: provider
invocations (intrusiveness), total provider cost, mean staleness of
delivered data, and cache hit rate.  Also the module-vs-script
provider-style comparison §10.3 motivates.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import random

from repro.gris import GrisBackend, ScriptProvider
from repro.ldap.backend import RequestContext
from repro.ldap.dit import Scope
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.net.sim import Simulator
from repro.testbed.metrics import Series, fmt_table
from repro.testbed.workload import poisson_arrivals

QUERY_RATE = 1.0  # queries/second
DURATION = 600.0
SCRIPT_COST = 0.5  # seconds of fork+exec per invocation


def run_ttl(ttl: float, seed: int):
    sim = Simulator(seed=seed)
    counter = {"n": 0}

    def script() -> str:
        counter["n"] += 1
        return (
            "dn: perf=load, hn=h\n"
            "objectclass: perf\n"
            "perf: load\n"
            f"load5: {counter['n'] % 40 / 10:.1f}\n"
        )

    provider = ScriptProvider("expensive", script, cache_ttl=ttl, cost=SCRIPT_COST)
    gris = GrisBackend("hn=h, o=Grid", clock=sim)
    gris.add_provider(provider)
    req = SearchRequest(
        base="hn=h, o=Grid",
        scope=Scope.SUBTREE,
        filter=parse_filter("(objectclass=perf)"),
    )
    staleness = Series()
    queries = {"n": 0}
    rng = random.Random(seed)

    def query():
        queries["n"] += 1
        outcome = gris.search(req, RequestContext(now=sim.now()))
        for entry in outcome.entries:
            ts = entry.timestamp()
            if ts is not None:
                staleness.add(sim.now() - ts)

    poisson_arrivals(sim, QUERY_RATE, query, rng, until=DURATION)
    sim.run_until(DURATION)
    hits = gris.cache.metrics.counter("gris.cache.hits").value
    lookups = hits + gris.cache.metrics.counter("gris.cache.misses").value
    return {
        "ttl": ttl,
        "queries": queries["n"],
        "invocations": provider.invocations,
        "cost": provider.total_cost,
        "staleness": staleness.mean,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def test_cache_ttl_sweep(benchmark, report):
    def run():
        return [run_ttl(ttl, seed=int(ttl * 10) + 3) for ttl in (0.0, 1.0, 5.0, 15.0, 60.0)]

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            c["ttl"],
            c["queries"],
            c["invocations"],
            round(c["cost"], 1),
            round(c["staleness"], 2),
            round(c["hit_rate"], 3),
        )
        for c in cells
    ]
    report(
        "E7_gris_caching",
        f"GRIS per-provider cache TTL sweep ({QUERY_RATE:.0f} q/s for {DURATION:.0f}s,\n"
        f"script provider costing {SCRIPT_COST}s per invocation)\n"
        + fmt_table(
            ["ttl (s)", "queries", "invocations", "provider cost (s)", "mean staleness (s)", "hit rate"],
            rows,
        )
        + "\n\nClaim check: TTL trades intrusiveness (invocations, cost) against\n"
        "freshness (staleness grows ~TTL/2); TTL=0 invokes per query.",
    )
    by_ttl = {c["ttl"]: c for c in cells}
    # TTL=0: one invocation per query, zero staleness
    assert by_ttl[0.0]["invocations"] == by_ttl[0.0]["queries"]
    assert by_ttl[0.0]["staleness"] == 0.0
    # invocations fall monotonically with TTL; staleness rises
    ttls = [0.0, 1.0, 5.0, 15.0, 60.0]
    invs = [by_ttl[t]["invocations"] for t in ttls]
    assert invs == sorted(invs, reverse=True)
    stale = [by_ttl[t]["staleness"] for t in ttls]
    assert stale == sorted(stale)
    # a 60s TTL cuts provider cost by >95% at this query rate
    assert by_ttl[60.0]["cost"] < 0.05 * by_ttl[0.0]["cost"]


def test_module_vs_script_provider_cost(benchmark, report):
    """§10.3's two API variants: in-process modules avoid per-invocation
    process-creation overhead entirely."""
    from repro.gris import FunctionProvider
    from repro.ldap.entry import Entry

    def run():
        sim = Simulator(seed=4)
        module = FunctionProvider(
            "module", lambda: [Entry("perf=l", objectclass="perf", perf="l")], cache_ttl=0.0
        )
        script = ScriptProvider(
            "script",
            lambda: "dn: perf=l\nobjectclass: perf\nperf: l\n",
            cache_ttl=0.0,
            cost=SCRIPT_COST,
        )
        gris = GrisBackend("o=X", clock=sim)
        gris.add_provider(module)
        gris.add_provider(script)
        req = SearchRequest(base="o=X", scope=Scope.SUBTREE)
        for _ in range(100):
            gris.search(req, RequestContext())
        return module.invocations, script.invocations, script.total_cost

    module_inv, script_inv, script_cost = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert module_inv == script_inv == 100
    assert script_cost == 100 * SCRIPT_COST
    report(
        "E7_module_vs_script",
        fmt_table(
            ["provider style", "invocations", "process-creation cost (s)"],
            [("loadable module", module_inv, 0.0), ("shell script", script_inv, script_cost)],
        )
        + "\nModules 'execute without the overhead of server-side process\n"
        "creation' (§10.3); scripts pay it every cache miss.",
    )
