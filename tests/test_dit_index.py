"""Indexed DIT storage engine and filter-aware query planner.

Three layers of checks:

* unit tests for :class:`AttributeIndex` and :func:`candidates_for`
  (the planner's fallback rules: AND needs one indexed conjunct, OR is
  poisoned by any unindexed disjunct, substring/ordering/NOT scan);
* incremental maintenance: a DIT mutated through add/modify/delete/
  clear/load holds exactly the postings a freshly built DIT would;
* a hypothesis property: for random trees and random filters the
  planned search is byte-identical to a naive full scan — same
  entries, same order, same projections, same size-limit partials.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.gris.core import GrisBackend
from repro.gris.provider import FunctionProvider
from repro.ldap.backend import RequestContext
from repro.ldap.dit import DIT, Scope, SizeLimitExceeded, in_scope
from repro.ldap.dn import DN, RDN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.index import AttributeIndex
from repro.ldap.plan import candidates_for, is_plannable
from repro.ldap.protocol import SearchRequest
from repro.net.clock import WallClock
from repro.obs.metrics import MetricsRegistry


def _entry(dn, **attrs):
    return Entry(dn, **attrs)


class TestAttributeIndex:
    def _index(self):
        idx = AttributeIndex(("cpu", "system"))
        e1 = _entry("hn=a", objectclass="host", cpu="sparc", system="solaris")
        e2 = _entry("hn=b", objectclass="host", cpu="x86", system="linux")
        idx.add(e1.dn, e1.get)
        idx.add(e2.dn, e2.get)
        return idx, e1, e2

    def test_equality_and_presence(self):
        idx, e1, e2 = self._index()
        assert idx.equality("cpu", "sparc") == {e1.dn}
        assert idx.equality("cpu", "SPARC") == {e1.dn}  # normalized match
        assert idx.equality("cpu", "mips") == frozenset()
        assert idx.presence("system") == {e1.dn, e2.dn}

    def test_uncovered_attr_returns_none(self):
        idx, _, _ = self._index()
        assert idx.equality("memory", "512") is None
        assert idx.presence("memory") is None
        assert not idx.covers("memory")
        assert idx.covers("cpu")

    def test_discard_cleans_postings(self):
        idx, e1, e2 = self._index()
        idx.discard(e1.dn)
        assert idx.equality("cpu", "sparc") == frozenset()
        assert idx.presence("cpu") == {e2.dn}
        assert e1.dn not in idx
        idx.discard(e1.dn)  # idempotent
        assert len(idx) == 1

    def test_sizes_count_keys_with_attr(self):
        idx, _, _ = self._index()
        assert idx.size("cpu") == 2
        assert idx.sizes()["system"] == 2


class TestPlanner:
    def _index(self):
        idx = AttributeIndex(("cpu",))
        for i in range(6):
            e = _entry(
                f"hn=h{i}",
                objectclass="host",
                cpu="sparc" if i < 2 else "x86",
                memory=str(128 * i),
            )
            idx.add(e.dn, e.get)
        return idx

    def test_equality_planned(self):
        idx = self._index()
        got = candidates_for(parse_filter("(cpu=sparc)"), idx)
        assert got is not None and len(got) == 2

    def test_unindexed_attr_falls_back(self):
        idx = self._index()
        assert candidates_for(parse_filter("(memory=128)"), idx) is None

    def test_and_needs_one_indexed_conjunct(self):
        idx = self._index()
        filt = parse_filter("(&(cpu=x86)(memory=512))")
        got = candidates_for(filt, idx)
        assert got is not None and len(got) == 4  # cpu postings only
        assert candidates_for(parse_filter("(&(memory=512)(hn=h4))"), idx) is None

    def test_or_poisoned_by_unindexed_branch(self):
        idx = self._index()
        assert candidates_for(parse_filter("(|(cpu=x86)(memory=0))"), idx) is None
        got = candidates_for(parse_filter("(|(cpu=x86)(cpu=sparc))"), idx)
        assert got is not None and len(got) == 6

    def test_substring_ordering_not_fall_back(self):
        idx = self._index()
        for text in ("(cpu=spa*)", "(cpu>=a)", "(!(cpu=x86))"):
            assert candidates_for(parse_filter(text), idx) is None
        # ...but NOT under an AND is planned from the other conjunct.
        got = candidates_for(parse_filter("(&(cpu=x86)(!(memory=512)))"), idx)
        assert got is not None and len(got) == 4

    def test_is_plannable_mirrors_planner(self):
        idx = self._index()
        for text, want in [
            ("(cpu=sparc)", True),
            ("(memory=1)", False),
            ("(&(cpu=sparc)(memory=1))", True),
            ("(|(cpu=sparc)(memory=1))", False),
            ("(cpu=*)", True),
            ("(!(cpu=sparc))", False),
        ]:
            assert is_plannable(parse_filter(text), idx) is want


def _site(n=8):
    entries = [_entry("o=Grid", objectclass="organization", o="Grid")]
    for i in range(n):
        entries.append(
            _entry(
                f"hn=h{i}, o=Grid",
                objectclass="GridComputeResource",
                cpu="sparc" if i % 3 == 0 else "x86",
                hn=f"h{i}",
            )
        )
    return entries


class TestDitPlanning:
    def test_planned_equals_scanned(self):
        indexed = DIT(index_attrs=("cpu",))
        plain = DIT()
        for e in _site():
            indexed.add(e)
            plain.add(e)
        filt = parse_filter("(cpu=sparc)")
        a = indexed.search("o=Grid", Scope.SUBTREE, filt)
        b = plain.search("o=Grid", Scope.SUBTREE, filt)
        # objectclass is always indexed, so force the scan comparison
        # through an attribute only `indexed` covers.
        assert a == b and len(a) == 3
        assert indexed.metrics.counter("ldap.search.planned").value >= 1
        assert plain.metrics.counter("ldap.search.scanned").value >= 1

    def test_objectclass_always_indexed(self):
        dit = DIT()
        dit.load(_site())
        dit.search("o=Grid", Scope.SUBTREE, parse_filter("(objectclass=organization)"))
        assert dit.metrics.counter("ldap.search.planned").value == 1
        assert dit.metrics.counter("ldap.search.scanned").value == 0

    def test_scan_path_counted(self):
        dit = DIT(index_attrs=("cpu",))
        dit.load(_site())
        dit.search("o=Grid", Scope.SUBTREE, parse_filter("(hn=h1)"))
        assert dit.metrics.counter("ldap.search.scanned").value == 1

    def test_set_index_attrs_rebuilds(self):
        dit = DIT()
        dit.load(_site())
        assert dit.index_sizes().get("cpu") is None
        dit.set_index_attrs(("cpu",))
        assert dit.index_sizes()["cpu"] == 8
        dit.search("o=Grid", Scope.SUBTREE, parse_filter("(cpu=x86)"))
        assert dit.metrics.counter("ldap.search.planned").value == 1
        dit.set_index_attrs(())
        assert dit.index_sizes().get("cpu") is None

    def test_index_size_gauges(self):
        metrics = MetricsRegistry()
        dit = DIT(index_attrs=("cpu",), metrics=metrics, name="t")
        dit.load(_site())
        gauge = metrics.get("ldap.index.size", labels={"dit": "t", "attr": "cpu"})
        assert gauge is not None and gauge.value == 8.0

    def test_size_limit_partial_identical_both_paths(self):
        indexed = DIT(index_attrs=("cpu",))
        plain = DIT()
        for e in _site(12):
            indexed.add(e)
            plain.add(e)
        filt = parse_filter("(cpu=x86)")
        with pytest.raises(SizeLimitExceeded) as via_index:
            indexed.search("o=Grid", Scope.SUBTREE, filt, size_limit=3)
        with pytest.raises(SizeLimitExceeded) as via_scan:
            plain.search("o=Grid", Scope.SUBTREE, filt, size_limit=3)
        assert via_index.value.partial == via_scan.value.partial
        assert len(via_index.value.partial) == 3
        full = plain.search("o=Grid", Scope.SUBTREE, filt)
        assert via_index.value.partial == full[:3]


class TestIncrementalMaintenance:
    def _fresh(self, dit):
        """A new DIT indexing the same attrs over the same entries."""
        other = DIT(index_attrs=dit.index_attrs)
        other.load(dit.dump())
        return other

    def _assert_converged(self, dit):
        fresh = self._fresh(dit)
        assert dit.index_sizes() == fresh.index_sizes()
        for text in ("(cpu=sparc)", "(cpu=x86)", "(objectclass=*)", "(cpu=*)"):
            filt = parse_filter(text)
            assert dit.search("", Scope.SUBTREE, filt) == fresh.search(
                "", Scope.SUBTREE, filt
            )

    def test_add_replace_delete_modify_clear(self):
        dit = DIT(index_attrs=("cpu",))
        dit.load(_site())
        self._assert_converged(dit)

        dit.add(_entry("hn=h0, o=Grid", objectclass="host", cpu="mips"), replace=True)
        self._assert_converged(dit)
        assert dit.search("", Scope.SUBTREE, parse_filter("(cpu=mips)"))

        dit.delete("hn=h3, o=Grid")
        self._assert_converged(dit)

        def mutate(entry):
            entry.put("cpu", "arm")

        dit.modify("hn=h1, o=Grid", mutate)
        self._assert_converged(dit)
        assert dit.search("", Scope.SUBTREE, parse_filter("(cpu=arm)"))

        dit.clear()
        assert dit.index_sizes() == {"cpu": 0, "objectclass": 0}
        assert dit.search("", Scope.SUBTREE, parse_filter("(cpu=arm)")) == []

    def test_modify_removing_attr_drops_posting(self):
        dit = DIT(index_attrs=("cpu",))
        dit.load(_site(3))
        dit.modify("hn=h0, o=Grid", lambda e: e.remove_attr("cpu"))
        assert not dit.search("", Scope.SUBTREE, parse_filter("(cpu=sparc)"))
        self._assert_converged(dit)


# -- property test: planner == naive scan ----------------------------------

_ATTRS = ["cpu", "system", "memory"]
_VALUES = ["a", "b", "c"]
_NAMES = list(string.ascii_lowercase[:6])


@st.composite
def _tree(draw):
    entries = {}
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        depth = draw(st.integers(min_value=1, max_value=3))
        rdns = tuple(
            RDN.single("cn", draw(st.sampled_from(_NAMES))) for _ in range(depth)
        )
        dn = DN(rdns)
        entry = Entry(dn, objectclass=draw(st.sampled_from(["host", "org"])))
        for attr in _ATTRS:
            for value in draw(
                st.lists(st.sampled_from(_VALUES), max_size=2, unique=True)
            ):
                entry.add_value(attr, value)
        entries[dn] = entry
    return list(entries.values())


@st.composite
def _filter(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["eq", "present", "substr", "ge", "not", "and", "or"]
            if depth > 0
            else ["eq", "present", "substr", "ge"]
        )
    )
    attr = draw(st.sampled_from(_ATTRS + ["objectclass"]))
    value = draw(st.sampled_from(_VALUES + ["host", "org"]))
    if kind == "eq":
        return f"({attr}={value})"
    if kind == "present":
        return f"({attr}=*)"
    if kind == "substr":
        return f"({attr}={value}*)"
    if kind == "ge":
        return f"({attr}>={value})"
    if kind == "not":
        return f"(!{draw(_filter(depth=depth - 1))})"
    clauses = draw(st.lists(_filter(depth=depth - 1), min_size=1, max_size=3))
    return f"({'&' if kind == 'and' else '|'}{''.join(clauses)})"


class TestPlannerProperty:
    @given(
        entries=_tree(),
        filter_text=_filter(),
        index_attrs=st.sets(st.sampled_from(_ATTRS), max_size=3),
        scope=st.sampled_from([Scope.ONELEVEL, Scope.SUBTREE]),
        base_depth=st.integers(min_value=0, max_value=2),
        attrs=st.none() | st.sets(st.sampled_from(_ATTRS + ["cn"]), max_size=2),
        size_limit=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_planned_search_equals_naive_scan(
        self, entries, filter_text, index_attrs, scope, base_depth, attrs, size_limit
    ):
        dit = DIT(index_attrs=index_attrs)
        dit.load(entries)
        filt = parse_filter(filter_text)
        base = (
            entries[0].dn
            if entries and base_depth and len(entries[0].dn) >= base_depth
            else DN.root()
        )
        projection = sorted(attrs) if attrs is not None else None

        naive = [e for e in entries if in_scope(e.dn, base, scope) and filt.matches(e)]
        naive.sort(key=lambda e: e.dn.sort_key)
        expect_partial = None
        if size_limit and len(naive) > size_limit:
            expect_partial = [e.project(projection) for e in naive[:size_limit]]
        expected = [e.project(projection) for e in naive]

        try:
            got = dit.search(base, scope, filt, attrs=projection, size_limit=size_limit)
        except SizeLimitExceeded as exc:
            assert expect_partial is not None
            assert exc.partial == expect_partial
        else:
            assert expect_partial is None
            assert got == expected


class TestGrisView:
    def _gris(self, index_attrs=None, n=10):
        gris = GrisBackend("o=Grid", clock=WallClock(), index_attrs=index_attrs)
        gris.add_provider(
            FunctionProvider(
                "p1",
                lambda: [
                    _entry(
                        f"hn=h{i}",
                        objectclass="host",
                        cpu="sparc" if i % 2 else "x86",
                        hn=f"h{i}",
                    )
                    for i in range(n)
                ],
                cache_ttl=300.0,
            )
        )
        return gris

    def _search(self, gris, text):
        req = SearchRequest(
            base="o=Grid", scope=Scope.SUBTREE, filter=parse_filter(text)
        )
        return gris._search_impl(req, RequestContext())

    def test_indexed_view_matches_linear(self):
        indexed = self._gris(index_attrs=["cpu"])
        linear = self._gris()
        for text in ("(cpu=sparc)", "(cpu=*)", "(&(cpu=x86)(objectclass=host))"):
            a = self._search(indexed, text)
            b = self._search(linear, text)
            assert [str(e.dn) for e in a.entries] == [str(e.dn) for e in b.entries]
            # mds-timestamp stamps differ between the two backends;
            # the payload attributes must not.
            keep = ("objectclass", "cpu", "hn")
            assert [e.project(keep) for e in a.entries] == [
                e.project(keep) for e in b.entries
            ]
        assert indexed._search_indexed.value == 3
        assert indexed._search_scanned.value == 0
        assert linear._search_scanned.value == 3

    def test_unplannable_filter_falls_back_to_scan(self):
        gris = self._gris(index_attrs=["cpu"])
        out = self._search(gris, "(hn=h*)")
        assert len(out.entries) == 10
        assert gris._search_scanned.value == 1

    def test_view_resyncs_after_cache_refresh(self):
        clock = WallClock()
        state = {"cpu": "sparc"}
        gris = GrisBackend("o=Grid", clock=clock, index_attrs=["cpu"])
        gris.add_provider(
            FunctionProvider(
                "p1",
                lambda: [_entry("hn=h0", objectclass="host", cpu=state["cpu"])],
                cache_ttl=0.0,  # every collect refreshes
            )
        )
        assert len(self._search(gris, "(cpu=sparc)").entries) == 1
        state["cpu"] = "x86"
        assert len(self._search(gris, "(cpu=sparc)").entries) == 0
        assert len(self._search(gris, "(cpu=x86)").entries) == 1

    def test_remove_provider_drops_view_entries(self):
        gris = self._gris(index_attrs=["cpu"])
        self._search(gris, "(cpu=sparc)")
        served = gris._served["p1"]
        assert len(served.by_dn) == len(served.index) == 10
        assert served.index.size("cpu") == 10
        gris.remove_provider("p1")
        assert "p1" not in gris._served
        assert self._search(gris, "(cpu=sparc)").entries == []
