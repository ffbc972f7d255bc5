"""The GRIS planner: every cached snapshot plans from postings built on first use.

* a property: over random multi-source snapshots that shadow DNs, for
  random filters, scopes and bases, the planned answer is the linear
  scan's (same entries, same order), whatever postings were built
  beforehand and in whatever order;
* racing builders: threads searching one fresh snapshot all answer as
  the scan does;
* the work a search does is what it returns: on a site-shaped GRIS,
  ``gris.search.examined`` stays within 1.1x ``ldap.entries.returned``
  for the host lookup and the device/status conjunction;
* what stays a scan: ``(objectclass=*)``, per-request answers and tiny
  snapshots build no postings.
"""

import json
import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.gris import FunctionProvider, GrisBackend
from repro.gris.config import build_gris, load_config
from repro.gris.core import _PLAN_MIN_ENTRIES, _select, _Source
from repro.gris.provider import InformationProvider
from repro.ldap.backend import RequestContext
from repro.ldap.dit import Scope, in_scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import LdapMessage, SearchRequest, encode_message
from repro.ldap.server import LdapServer
from repro.net.sim import Simulator
from repro.obs.metrics import MetricsRegistry

from .test_conclude_once import FakeConn

SUFFIX = DN.of("o=Grid")
HOSTS = ("a", "b", "c")
ATTRS = ("objectclass", "hn", "status", "cpu")
VALUES = {
    "objectclass": ("computer", "device", "queue"),
    "hn": HOSTS,
    "status": ("up", "down", "Down"),
    "cpu": ("x86", "sparc"),
}


def linear(sources, base, scope, filt):
    """The reference: walk every entry; the first source naming a DN serves it."""
    seen, out = set(), []
    for source in sources:
        for dn, entry in source.by_dn.items():
            if dn in seen:
                continue
            seen.add(dn)
            if in_scope(dn, base, scope) and filt.matches(entry):
                out.append(entry)
    out.sort(key=lambda e: e.dn.sort_key)
    return out


# -- random snapshots and filters ---------------------------------------------

# Each source serves one host's subtree (or the whole suffix); entries
# repeat DNs across sources, so later sources are partly shadowed.
ROOTS = [SUFFIX] + [DN.of(f"hn={h}, o=Grid") for h in HOSTS]


@st.composite
def entries_under(draw, root):
    n = draw(st.integers(0, 3 * _PLAN_MIN_ENTRIES))
    out = []
    for i in range(n):
        parent = f"hn={draw(st.sampled_from(HOSTS))}, o=Grid" if root == SUFFIX else str(root)
        dn = parent if draw(st.integers(0, 3)) == 0 else f"dev=d{i % 7}, {parent}"
        attrs = {a: draw(st.sampled_from(VALUES[a])) for a in ATTRS if draw(st.integers(0, 4))}
        out.append(Entry(dn, attrs))
    return out


@st.composite
def snapshots(draw):
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        root = draw(st.sampled_from(ROOTS))
        per_request = draw(st.integers(0, 5)) == 0
        eager = None if per_request else draw(st.lists(st.sampled_from(ATTRS), max_size=2))
        sources.append(_Source(draw(entries_under(root)), root, eager=eager))
    return sources


def _leaf(draw):
    attr = draw(st.sampled_from(ATTRS))
    shown = attr.upper() if draw(st.booleans()) else attr  # names are case-insensitive
    kind = draw(st.sampled_from(("present", "equal", "equal", "substring", "any")))
    if kind == "any":
        return "(objectclass=*)"
    if kind == "present":
        return f"({shown}=*)"
    value = draw(st.sampled_from(VALUES[attr]))
    return f"({shown}={value[:1]}*)" if kind == "substring" else f"({shown}={value})"


@st.composite
def filters(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return _leaf(draw)
    op = draw(st.sampled_from("&|!"))
    if op == "!":
        return f"(!{draw(filters(depth - 1))})"
    clauses = draw(st.lists(filters(depth - 1), min_size=1, max_size=3))
    return f"({op}{''.join(clauses)})"


BASES = [DN.of(""), SUFFIX, *ROOTS[1:], DN.of("dev=d1, hn=a, o=Grid"), DN.of("hn=z, o=Grid")]


class TestPlannedEqualsScan:
    @settings(max_examples=300, deadline=None)
    @given(
        sources=snapshots(),
        text=filters(),
        scope=st.sampled_from(list(Scope)),
        base=st.sampled_from(BASES),
        warm=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(ATTRS)), max_size=4),
    )
    def test_planned_answer_is_the_scan(self, sources, text, scope, base, warm):
        for rank, attr in warm:  # postings built beforehand, in random order
            sources[rank % len(sources)].index(attr)
        filt = parse_filter(text)
        want = linear(sources, base, scope, filt)
        got, examined, _ = _select(sources, base, scope, filt)
        assert [id(e) for e in got] == [id(e) for e in want], text
        assert examined >= len(got)

    def test_the_property_plans(self):
        """The sizes drawn above straddle the planning threshold."""
        big = [Entry(f"dev=d{i}, hn=a, o=Grid", objectclass="device", status="up")
               for i in range(_PLAN_MIN_ENTRIES)]
        source = _Source(big, ROOTS[1], eager=())
        got, examined, planned = _select([source], SUFFIX, Scope.SUBTREE,
                                         parse_filter("(status=down)"))
        assert (got, examined, planned) == ([], 0, True)
        small = _Source(big[1:], ROOTS[1], eager=())
        assert _select([small], SUFFIX, Scope.SUBTREE, parse_filter("(status=down)"))[1:] == (
            _PLAN_MIN_ENTRIES - 1, False)

    def test_a_root_its_entries_leave_is_not_trusted(self):
        stray = [Entry("hn=b, o=Grid", objectclass="computer", hn="b")]
        stray += [Entry(f"dev=d{i}, hn=a, o=Grid", objectclass="device") for i in range(9)]
        source = _Source(stray, ROOTS[1], eager=())
        assert source.root is None
        got, _, _ = _select([source], ROOTS[1], Scope.SUBTREE, parse_filter("(objectclass=*)"))
        assert len(got) == 9


# -- racing builders ----------------------------------------------------------


def test_racing_builders_all_answer_as_the_scan():
    rng = random.Random(5)
    entries = [
        Entry(f"dev=d{i}, hn=h{i % 40}", objectclass="device", hn=f"h{i % 40}",
              status=rng.choice(("up", "down")), cpu=rng.choice(("x86", "sparc")))
        for i in range(2000)
    ]
    gris = GrisBackend(SUFFIX, clock=Simulator())
    gris.add_provider(FunctionProvider("site", lambda: entries, cache_ttl=3600.0))
    # A base search publishes the snapshot and plans nothing: it is fresh.
    gris._search_impl(SearchRequest(base="o=Grid", scope=Scope.BASE), RequestContext())
    source = gris._served["site"]
    assert source._indexes == {}
    texts = ["(status=down)", "(&(cpu=x86)(status=up))", "(hn=h7)", "(|(hn=h3)(cpu=sparc))"]
    want = {t: linear([source], SUFFIX, Scope.SUBTREE, parse_filter(t)) for t in texts}
    barrier = threading.Barrier(8)
    failures = []

    def search(k):
        barrier.wait()
        for text in texts[k % 4:] + texts[:k % 4]:
            req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE, filter=parse_filter(text))
            got = gris._search_impl(req, RequestContext()).entries
            if [id(e) for e in got] != [id(e) for e in want[text]]:
                failures.append(text)

    threads = [threading.Thread(target=search, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the postings builds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert gris._served["site"] is source and set(source._indexes) == {"status", "cpu", "hn"}
    assert gris._search_indexed.value == 8 * 4


# -- examined against returned, on a site-shaped GRIS -------------------------


def site_server(tmp_path, hosts=25, devices=20, down=75):
    """A GRIS configured like a site directory: one LDIF provider of
    1 + hosts x (1 + devices) entries, indexed on hn, behind a server
    that shares its metrics registry."""
    rng = random.Random(3)
    down_set = set(rng.sample([(h, d) for h in range(hosts) for d in range(devices)], down))
    lines = ["dn: ", "objectclass: organization", "o: Grid", ""]
    for h in range(hosts):
        lines += [f"dn: hn=host{h}", "objectclass: computer", f"hn: host{h}", ""]
        for d in range(devices):
            status = "down" if (h, d) in down_set else "up"
            lines += [f"dn: dev=d{d}, hn=host{h}", "objectclass: device", f"dev: d{d}",
                      f"hn: host{h}", f"status: {status}", ""]
    (tmp_path / "site.ldif").write_text("\n".join(lines))
    (tmp_path / "gris.json").write_text(json.dumps({
        "suffix": "o=Grid", "indexes": ["hn"],
        "providers": [{"type": "ldif", "name": "site", "file": "site.ldif", "cache_ttl": 3600}],
    }))
    sim, metrics = Simulator(), MetricsRegistry()
    gris = build_gris(load_config(tmp_path / "gris.json"), clock=sim, metrics=metrics)
    server = LdapServer(gris, clock=sim, metrics=metrics)
    conn = FakeConn()
    server.handle_connection(conn)
    return conn, metrics


def test_examined_stays_within_a_tenth_of_returned(tmp_path):
    conn, metrics = site_server(tmp_path)
    examined = metrics.counter("gris.search.examined")
    returned = metrics.counter("ldap.entries.returned")
    message_id = 0

    def ratio(texts):
        nonlocal message_id
        before = examined.value, returned.value
        for text in texts:
            message_id += 1
            req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE, filter=parse_filter(text))
            conn.receiver(encode_message(LdapMessage(message_id, req)))
        got = returned.value - before[1]
        assert got > 0
        return (examined.value - before[0]) / got

    ratio(["(&(objectclass=device)(status=down))"])  # the first search builds the postings
    # Every entry returned was examined; at most a tenth more were.
    assert 1.0 <= ratio([f"(hn=host{k})" for k in range(25)]) <= 1.1
    assert 1.0 <= ratio(["(&(objectclass=device)(status=down))"] * 5) <= 1.1
    assert metrics.counter("gris.search.scanned").value == 0


# -- what stays a scan --------------------------------------------------------


class _Answering(InformationProvider):
    """A provider that answers each search itself."""

    def search(self, req, suffix):
        return [Entry(f"cn=x{i}, o=Grid", objectclass="thing", cn=f"x{i}") for i in range(20)]


def _search(gris, text):
    req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE, filter=parse_filter(text))
    return gris._search_impl(req, RequestContext()).entries


def _queues(n):
    return [Entry(f"cn=e{i}", objectclass="queue", cn=f"e{i}") for i in range(n)]


def test_scans_build_no_postings():
    gris = GrisBackend(SUFFIX, clock=Simulator())
    many = _queues(20)
    gris.add_provider(FunctionProvider("many", lambda: many, cache_ttl=60.0))
    gris.add_provider(FunctionProvider("one", lambda: [Entry("cn=solo", objectclass="queue")],
                                       cache_ttl=60.0))
    gris.add_provider(_Answering("direct"))
    assert len(_search(gris, "(objectclass=*)")) == 20 + 1 + 20
    assert gris._served["many"]._indexes == {} and gris._search_scanned.value == 1
    assert len(_search(gris, "(objectclass=queue)")) == 21
    assert set(gris._served["many"]._indexes) == {"objectclass"}
    assert gris._served["one"]._indexes == {}  # below the planning threshold
    assert gris._search_indexed.value == 1


def test_a_configured_index_does_not_plan_a_small_snapshot():
    gris = GrisBackend(SUFFIX, clock=Simulator(), index_attrs=["cn"])
    few = _queues(_PLAN_MIN_ENTRIES - 1)
    gris.add_provider(FunctionProvider("few", lambda: few, cache_ttl=60.0))
    assert [e.first("cn") for e in _search(gris, "(cn=e1)")] == ["e1"]
    assert gris._served["few"]._indexes == {} and gris._search_scanned.value == 1


def test_attributes_no_entry_holds_build_nothing():
    """The postings a snapshot keeps are bounded by its own attributes,
    whatever names the filters a client sends carry."""
    gris = GrisBackend(SUFFIX, clock=Simulator(), index_attrs=["bogus"])
    many = _queues(20)
    gris.add_provider(FunctionProvider("many", lambda: many, cache_ttl=60.0))
    for k in range(100):
        assert _search(gris, f"(bogus{k}=x)") == []
        assert _search(gris, f"(|(nope{k}=*)(&(odd{k}=1)(even{k}=2)))") == []
    source = gris._served["many"]
    assert source._indexes == {} and gris._search_indexed.value == 200
    assert [e.first("cn") for e in _search(gris, "(|(cn=e3)(unheld=x))")] == ["e3"]
    assert set(source._indexes) == {"cn"}
