"""F5 — Figure 5: hierarchical discovery.

"Two resource centers and one individual are contributing resources to
a VO.  The three aggregate directories that form the associated
hierarchical discovery service are organized in a way that matches this
logical structure.  Notice how resource names can be used to scope
searches to particular organizations, if this is desired;
alternatively, searches can be directed to the root directory without
concern for scope."

The harness builds exactly that topology (center dirs for O1 and O2, a
VO directory above them, plus one individually-registered resource) and
verifies both search modes, reporting their message costs — scoping is
what keeps discovery cheap as the grid grows.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from repro.testbed import GridTestbed
from repro.testbed.metrics import fmt_table


def build_figure5(tb: GridTestbed, o1_hosts=3, o2_hosts=2):
    vo = tb.add_giis("vo-dir", "o=Grid", vo_name="VO")
    center1 = tb.add_giis("center1", "o=O1, o=Grid", vo_name="Center-1")
    center2 = tb.add_giis("center2", "o=O2, o=Grid", vo_name="Center-2")
    tb.register(center1, vo, interval=15.0, ttl=45.0, name="center1")
    tb.register(center2, vo, interval=15.0, ttl=45.0, name="center2")
    for org, center, count in (("O1", center1, o1_hosts), ("O2", center2, o2_hosts)):
        for i in range(count):
            host = f"{org.lower()}-r{i + 1}"
            gris = tb.standard_gris(host, f"hn={host}, o={org}, o=Grid")
            tb.register(gris, center, interval=15.0, ttl=45.0, name=host)
    solo = tb.standard_gris("solo-r1", "hn=solo-r1, o=Grid")
    tb.register(solo, vo, interval=15.0, ttl=45.0, name="solo-r1")
    tb.run(1.0)
    return vo, center1, center2


def run_hierarchy(seed=5):
    tb = GridTestbed(seed=seed)
    vo, center1, center2 = build_figure5(tb)
    client = tb.client("user", vo)
    rows = []

    def measure(label, base, filt, via=client):
        m0, t0 = tb.net.stats.messages, tb.sim.now()
        out = via.search(base, filter=filt)
        rows.append(
            (
                label,
                base,
                len(out.entries),
                tb.net.stats.messages - m0,
                (tb.sim.now() - t0) * 1000,
            )
        )
        return out

    # root search, no concern for scope: all six resources
    out = measure("root, all resources", "o=Grid", "(objectclass=computer)")
    assert sorted(e.first("hn") for e in out) == [
        "o1-r1",
        "o1-r2",
        "o1-r3",
        "o2-r1",
        "o2-r2",
        "solo-r1",
    ]

    # name-scoped search: only O1's subtree is touched
    c2_before = center2.backend.metrics.counter("giis.chained").value
    out = measure("scoped to O1", "o=O1, o=Grid", "(objectclass=computer)")
    assert len(out.entries) == 3
    assert center2.backend.metrics.counter("giis.chained").value == c2_before  # O2 never consulted

    # going straight to a center directory works too
    direct = tb.client("user", center1)
    out = measure("direct at center1", "o=O1, o=Grid", "(objectclass=computer)", via=direct)
    assert len(out.entries) == 3

    # point query from the root resolves through two directory levels
    out = measure("point query from root", "o=Grid", "(hn=o2-r2)")
    assert len(out.entries) == 1
    assert str(out.entries[0].dn) == "hn=o2-r2, o=O2, o=Grid"
    return rows


def test_fig5_hierarchical_discovery(benchmark, report):
    rows = benchmark.pedantic(run_hierarchy, rounds=1, iterations=1)
    report(
        "F5_hierarchy",
        "Figure 5: hierarchical discovery (2 centers + 1 individual)\n"
        + fmt_table(
            ["query", "base", "entries", "messages", "latency (ms, virtual)"],
            [(a, b, c, d, round(e, 2)) for a, b, c, d, e in rows],
        )
        + "\n\nClaim check: root searches need no scope knowledge; name-scoped\n"
        "searches touch only the matching organization's directory.",
    )


def test_fig5_scoped_cost_independent_of_other_orgs(benchmark, report):
    """Scoped query cost stays flat as unrelated organizations grow."""

    def run():
        rows = []
        for extra_o2 in (2, 8, 16):
            tb = GridTestbed(seed=extra_o2)
            vo, center1, center2 = build_figure5(tb, o1_hosts=3, o2_hosts=extra_o2)
            client = tb.client("user", vo)
            m0 = tb.net.stats.messages
            out = client.search("o=O1, o=Grid", filter="(objectclass=computer)")
            assert len(out.entries) == 3
            rows.append((extra_o2, tb.net.stats.messages - m0))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    costs = [c for _, c in rows]
    assert max(costs) - min(costs) <= 2  # flat: scoping prunes the other org
    report(
        "F5_scoped_cost",
        "Scoped O1 query cost vs size of the *other* organization\n"
        + fmt_table(["O2 size (hosts)", "messages for O1 query"], rows)
        + "\n\nClaim check: 'scoping allows many independent VOs to co-exist\n"
        "without adversely affecting their individual discovery performance'.",
    )
