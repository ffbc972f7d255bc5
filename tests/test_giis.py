"""Tests for the GIIS: GRRP intake, chaining, referrals, hierarchy."""

import sys
import threading
import time

from repro.giis import GiisBackend, NameIndex, core
from repro.giis.core import _QueryCacheSlot
from repro.grip.messages import GrrpMessage, NotificationType
from repro.ldap.backend import RequestContext, SearchOutcome
from repro.ldap.dit import Scope
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import AddRequest, ResultCode, SearchRequest
from repro.ldap.entry import Entry
from repro.ldap.url import LdapUrl
from repro.net.sim import Simulator
from repro.testbed import GridTestbed

CTX = RequestContext(identity="CN=tester")


def reg_msg(url="ldap://gris1:2135/", suffix="hn=r1, o=O1", ts=0.0, ttl=60.0, **meta):
    metadata = {"suffix": suffix}
    metadata.update(meta)
    return GrrpMessage(
        service_url=url,
        timestamp=ts,
        valid_until=ts + ttl,
        metadata=metadata,
    )


class TestGrrpIntake:
    def test_register_via_ldap_add(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        entry = reg_msg().to_entry("o=Grid")
        result = giis.add(AddRequest.from_entry(entry), CTX)
        assert result.ok
        assert giis.registry.is_registered("ldap://gris1:2135/")
        reg = giis.registry.lookup("ldap://gris1:2135/")
        assert reg.source_identity == "CN=tester"

    def test_non_registration_add_refused(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        entry = Entry("hn=x, o=Grid", objectclass="computer", hn="x")
        result = giis.add(AddRequest.from_entry(entry), CTX)
        assert result.code == ResultCode.UNWILLING_TO_PERFORM

    def test_membership_policy_refusal(self):
        sim = Simulator()
        giis = GiisBackend(
            "o=Grid", clock=sim, accept=lambda m, i: m.metadata.get("vo") == "A"
        )
        ok = giis.add(AddRequest.from_entry(reg_msg(vo="A").to_entry("o=Grid")), CTX)
        assert ok.ok
        bad = giis.add(
            AddRequest.from_entry(
                reg_msg(url="ldap://other:2135/", vo="B").to_entry("o=Grid")
            ),
            CTX,
        )
        assert bad.code == ResultCode.INSUFFICIENT_ACCESS_RIGHTS

    def test_datagram_intake(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        giis.handle_grrp_datagram(("gris1", 0), reg_msg().to_bytes())
        assert len(giis.registry) == 1
        giis.handle_grrp_datagram(("gris1", 0), b"garbage")  # ignored
        assert len(giis.registry) == 1

    def test_unregister(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        giis.apply_grrp(reg_msg())
        giis.apply_grrp(
            reg_msg(ts=1.0, ttl=0.0).__class__(
                service_url="ldap://gris1:2135/",
                notification_type=NotificationType.UNREGISTER,
                timestamp=1.0,
                valid_until=1.0,
            )
        )
        assert len(giis.registry) == 0

    def test_local_entries_expose_membership(self):
        sim = Simulator()
        giis = GiisBackend(
            "o=Grid", clock=sim, url=LdapUrl("giis", 2135, "o=Grid"), vo_name="VO-X"
        )
        giis.apply_grrp(reg_msg())
        entries = giis.local_entries()
        assert len(entries) == 2
        assert entries[0].dn == giis.suffix
        assert "VO-X" in entries[0].first("description")
        assert entries[1].first("url") == "ldap://gris1:2135/"

    def test_name_index_wiring(self):
        sim = Simulator()
        giis = GiisBackend("o=Grid", clock=sim)
        index = NameIndex()
        giis.add_index(index)
        giis.apply_grrp(reg_msg(name="r1"))
        assert index.resolve("r1") == "ldap://gris1:2135/"
        sim.run_until(61.0)
        giis.registry.sweep()
        assert index.resolve("r1") is None


def build_vo(tb: GridTestbed, n_gris: int = 2, **giis_kwargs):
    """One GIIS with *n_gris* registered standard GRIS children."""
    giis = tb.add_giis("giis", "o=Grid", vo_name="VO-A", **giis_kwargs)
    children = []
    for i in range(n_gris):
        host = f"r{i}"
        gris = tb.standard_gris(host, f"hn={host}, o=Grid", load_mean=0.5 + i)
        tb.register(gris, giis, interval=20.0, ttl=60.0, name=host)
        children.append(gris)
    tb.run(1.0)  # let first registrations land
    return giis, children


class TestChaining:
    def test_vo_wide_search(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=3)
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert sorted(e.first("hn") for e in out) == ["r0", "r1", "r2"]

    def test_merged_view_includes_registrations_and_data(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=1)
        client = tb.client("user", giis)
        out = client.search("o=Grid")
        dns = {str(e.dn) for e in out}
        assert "o=Grid" in dns
        assert any(dn.startswith("regid=") for dn in dns)
        assert "hn=r0, o=Grid" in dns
        assert "queue=default, hn=r0, o=Grid" in dns

    def test_scoped_search_hits_one_child(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=3)
        client = tb.client("user", giis)
        before = giis.backend.metrics.counter("giis.chained").value
        out = client.search("hn=r1, o=Grid", filter="(objectclass=computer)")
        assert len(out) == 1
        assert giis.backend.metrics.counter("giis.chained").value - before == 1  # namespace pruning

    def test_attribute_selection_through_chain(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb)
        client = tb.client("user", giis)
        out = client.search(
            "o=Grid", filter="(objectclass=computer)", attrs=["hn"]
        )
        assert all(e.has("hn") and not e.has("cpucount") for e in out)

    def test_filter_on_dynamic_attrs(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=4)
        client = tb.client("user", giis)
        out = client.search(
            "o=Grid", filter="(&(objectclass=loadaverage)(load5<=100))"
        )
        assert len(out) == 4

    def test_expired_child_not_queried(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=2)
        children[0].stop_registrations()
        tb.run(120.0)  # ttl=60 expires
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert [e.first("hn") for e in out] == ["r1"]

    def test_crashed_child_skipped_with_partial_results(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=2, child_timeout=2.0)
        children[0].node.crash()
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert [e.first("hn") for e in out] == ["r1"]  # partial results (§2.2)
        assert giis.backend.metrics.counter("giis.child.errors").value >= 1

    def test_silent_child_times_out_with_partial_results(self):
        """A child that accepts connections but never answers costs the
        chaining timeout, then the query completes with partial results."""
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=1, child_timeout=2.0)
        blackhole = tb.host("blackhole")
        blackhole.listen(2135, lambda conn: None)  # accept, never respond
        giis.backend.apply_grrp(
            reg_msg(
                url="ldap://blackhole:2135/",
                suffix="hn=bh, o=Grid",
                ts=tb.sim.now(),
                ttl=1e6,
            )
        )
        client = tb.client("user", giis)
        t0 = tb.sim.now()
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert [e.first("hn") for e in out] == ["r0"]
        assert tb.sim.now() - t0 >= 2.0  # paid the child timeout
        assert giis.backend.metrics.counter("giis.child.timeouts").value == 1

    def test_query_cache(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=2, cache_ttl=30.0)
        client = tb.client("user", giis)
        client.search("o=Grid", filter="(objectclass=computer)")
        chained = giis.backend.metrics.counter("giis.chained").value
        client.search("o=Grid", filter="(objectclass=computer)")
        assert giis.backend.metrics.counter("giis.chained").value == chained  # served from cache
        assert giis.backend.metrics.counter("giis.query_cache.hits").value == 1

    def test_query_cache_bounded_by_max_entries(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_QUERY_CACHE", 2)
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=1, cache_ttl=1e9)
        client = tb.client("user", giis)
        backend = giis.backend
        for oc in ("computer", "queue", "loadaverage", "network"):
            client.search("o=Grid", filter=f"(objectclass={oc})")
        assert len(backend._query_cache) == 2  # capped, oldest evicted
        evictions = backend.metrics.get("giis.query_cache.evictions")
        assert evictions is not None and evictions.value == 2
        size_gauge = backend.metrics.get("giis.query_cache.size")
        assert size_gauge is not None and size_gauge.value == 2

    def test_query_cache_sweeps_expired_slots_on_miss(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=1, cache_ttl=5.0)
        client = tb.client("user", giis)
        backend = giis.backend
        client.search("o=Grid", filter="(objectclass=computer)")
        assert len(backend._query_cache) == 1
        tb.run(10.0)  # slot outlives cache_ttl
        client.search("o=Grid", filter="(objectclass=queue)")
        # The miss path swept the dead slot; only the new result remains.
        assert len(backend._query_cache) == 1
        (key,) = backend._query_cache
        assert "queue" in key[2]

    def test_cache_invalidated_by_membership_change(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=1, cache_ttl=1e9)
        client = tb.client("user", giis)
        client.search("o=Grid", filter="(objectclass=computer)")
        gris = tb.standard_gris("rX", "hn=rX, o=Grid")
        tb.register(gris, giis)
        tb.run(1.0)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert sorted(e.first("hn") for e in out) == ["r0", "rX"]

    def test_an_answer_missing_a_failed_child_is_not_cached(self):
        tb = GridTestbed(seed=1)
        giis, children = build_vo(tb, n_gris=2, cache_ttl=1e9)
        client = tb.client("user", giis)
        children[0].node.crash()
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert [e.first("hn") for e in out] == ["r1"]  # partial results (§2.2)
        children[0].node.recover()
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert sorted(e.first("hn") for e in out) == ["r0", "r1"]
        assert giis.backend.metrics.counter("giis.query_cache.hits").value == 0
        assert len(giis.backend._query_cache) == 1  # the whole answer

    def test_an_answer_missing_a_timed_out_child_is_not_cached(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=1, cache_ttl=1e9, child_timeout=2.0)
        tb.host("blackhole").listen(2135, lambda conn: None)  # accept, never respond
        giis.backend.apply_grrp(
            reg_msg(url="ldap://blackhole:2135/", suffix="hn=bh, o=Grid",
                    ts=tb.sim.now(), ttl=1e6)
        )
        client = tb.client("user", giis)
        for _ in range(2):
            out = client.search("o=Grid", filter="(objectclass=computer)")
            assert [e.first("hn") for e in out] == ["r0"]
        assert giis.backend.metrics.counter("giis.child.timeouts").value == 2
        assert giis.backend.metrics.counter("giis.query_cache.hits").value == 0
        assert len(giis.backend._query_cache) == 0


def _answer(result):
    """An answer as a client judges sameness: entry set, referrals, code."""
    shapes = sorted(
        (str(e.dn), sorted((a, tuple(vs)) for a, vs in e.items()))
        for e in result.entries
    )
    return shapes, sorted(result.referrals), result.result.code


class TestQueryCacheConsumesTheStream:
    """The query cache records what the one collector forwards and
    replays it; it is not a second search path."""

    def _counter(self, giis, name):
        return giis.backend.metrics.counter(name).value

    def test_hit_replays_the_miss_without_touching_a_child(self):
        tb = GridTestbed(seed=1)
        vo = tb.add_giis("vo", "o=Grid", cache_ttl=30.0)
        site = tb.add_giis("site", "o=O1, o=Grid", mode="referral")
        gris = tb.standard_gris("r0", "hn=r0, o=O1, o=Grid")
        plain = tb.standard_gris("r1", "hn=r1, o=Grid")
        tb.register(gris, site, name="r0")
        tb.register(site, vo, name="site")
        tb.register(plain, vo, name="r1")
        tb.run(1.0)
        client = tb.client("user", vo)
        miss = client.search("o=Grid", filter="(objectclass=*)", check=False)
        chained = self._counter(vo, "giis.chained")
        assert chained == 2 and miss.referrals  # the site refers to its GRIS
        assert any(e.first("hn") == "r1" for e in miss.entries)
        hit = client.search("o=Grid", filter="(objectclass=*)", check=False)
        assert _answer(hit) == _answer(miss)
        assert self._counter(vo, "giis.chained") == chained
        assert self._counter(vo, "giis.query_cache.hits") == 1

    def test_size_limit_cancelled_search_stores_nothing(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=4, cache_ttl=1e9)
        client = tb.client("user", giis)
        cut = client.search(
            "o=Grid", filter="(objectclass=computer)", size_limit=2, check=False
        )
        assert cut.result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        tb.run(10.0)
        assert len(giis.backend._query_cache) == 0
        full = client.search("o=Grid", filter="(objectclass=computer)")
        assert len(full.entries) == 4  # not answered from a truncated slot
        assert len(giis.backend._query_cache) == 1

    def test_aborted_search_stores_nothing(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=2, cache_ttl=1e9)
        ctx, done = RequestContext(), []
        giis.backend.submit_search_stream(
            SearchRequest(base="o=Grid"), ctx, lambda entry: None, done.append
        )
        ctx.token.cancel("abandoned")
        tb.run(10.0)
        assert done == [] and len(giis.backend._query_cache) == 0
        assert self._counter(giis, "giis.chain.cancelled") == 1

    def test_a_caching_miss_and_its_hit_both_relay(self):
        tb = GridTestbed(seed=1)
        giis, _ = build_vo(tb, n_gris=2, cache_ttl=30.0)
        client = tb.client("user", giis)  # open policy: transparent
        relayed = giis.server.metrics.counter("ldap.entries.relayed")
        client.search("o=Grid", filter="(objectclass=computer)")  # a miss that chains
        assert self._counter(giis, "giis.relay.entries") == relayed.value == 2
        chained = self._counter(giis, "giis.chained")
        out = client.search("o=Grid", filter="(objectclass=computer)")  # a hit
        assert sorted(e.first("hn") for e in out) == ["r0", "r1"]
        assert self._counter(giis, "giis.query_cache.hits") == 1
        assert self._counter(giis, "giis.chained") == chained
        assert self._counter(giis, "giis.relay.entries") == relayed.value == 4

    def test_concurrent_lookups_stores_and_clears_keep_the_cache_sound(self, monkeypatch):
        """Lookups sweep on executor workers, stores arrive on child
        receive threads and GRRP intake moves the membership the cache
        keys on: all at once, nothing raises and the bound holds."""
        monkeypatch.setattr(core, "MAX_QUERY_CACHE", 32)
        giis = GiisBackend("o=Grid", clock=Simulator(), cache_ttl=60.0)
        giis.apply_grrp(reg_msg(suffix="o=Grid"))
        comer = reg_msg(url="ldap://gris2:2135/", suffix="o=Grid")
        goer = GrrpMessage(comer.service_url, NotificationType.UNREGISTER)
        stop_at = time.monotonic() + 1.5
        errors = []

        def loop(step):
            def run():
                i = 0
                try:
                    while time.monotonic() < stop_at:
                        step(i)
                        i += 1
                except Exception as exc:  # noqa: BLE001 - the assertion below
                    errors.append(exc)

            return threading.Thread(target=run)

        def store(i):
            giis._store_query_result(
                ("o=grid", 2, f"s{i % 64}"), _QueryCacheSlot(SearchOutcome(), 0.0)
            )

        def lookup(i):
            req = SearchRequest(base="o=Grid", filter=parse_filter(f"(hn=h{i % 64})"))
            giis.submit_search_stream(
                req, RequestContext(), lambda entry: None, lambda outcome: None
            )

        def clear(i):
            giis.apply_grrp(goer if i % 2 else comer)

        threads = [loop(step) for step in (store, store, lookup, lookup, clear)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(giis._query_cache) <= core.MAX_QUERY_CACHE


class TestReferralMode:
    def test_referrals_returned_instead_of_chaining(self):
        tb = GridTestbed(seed=2)
        giis, children = build_vo(tb, n_gris=2, mode="referral")
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out.entries) == 0  # computers live at the providers
        assert len(out.referrals) == 2
        url = LdapUrl.parse(out.referrals[0])
        assert url.host in ("r0", "r1")

    def test_client_can_follow_referral(self):
        tb = GridTestbed(seed=2)
        giis, children = build_vo(tb, n_gris=1, mode="referral")
        client = tb.client("user", giis)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        target = LdapUrl.parse(out.referrals[0])
        direct = tb.client("user", target)
        got = direct.search(target.dn, filter="(objectclass=computer)")
        assert got.entries[0].first("hn") == "r0"


class TestHierarchy:
    def build_figure5(self, tb):
        """Two resource centers + one individual under a VO directory."""
        vo = tb.add_giis("vo-dir", "o=Grid", vo_name="VO")
        center1 = tb.add_giis("center1", "o=O1, o=Grid", vo_name="Center-1")
        center2 = tb.add_giis("center2", "o=O2, o=Grid", vo_name="Center-2")
        tb.register(center1, vo, name="center1")
        tb.register(center2, vo, name="center2")
        hosts = {}
        for org, center, count in (("O1", center1, 3), ("O2", center2, 2)):
            for i in range(count):
                host = f"{org.lower()}-r{i + 1}"
                gris = tb.standard_gris(host, f"hn={host}, o={org}, o=Grid")
                tb.register(gris, center, name=host)
                hosts[host] = gris
        solo = tb.standard_gris("solo", "hn=solo, o=Grid")
        tb.register(solo, vo, name="solo")
        hosts["solo"] = solo
        tb.run(1.0)
        return vo, center1, center2, hosts

    def test_root_search_sees_everything(self):
        tb = GridTestbed(seed=3)
        vo, *_ = self.build_figure5(tb)
        client = tb.client("user", vo)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out) == 6  # 3 + 2 + 1

    def test_scoped_search_stays_in_one_org(self):
        tb = GridTestbed(seed=3)
        vo, center1, center2, _ = self.build_figure5(tb)
        client = tb.client("user", vo)
        before2 = center2.backend.metrics.counter("giis.chained").value
        out = client.search("o=O1, o=Grid", filter="(objectclass=computer)")
        assert len(out) == 3
        assert center2.backend.metrics.counter("giis.chained").value == before2  # O2 untouched

    def test_direct_center_query(self):
        tb = GridTestbed(seed=3)
        vo, center1, _, _ = self.build_figure5(tb)
        client = tb.client("user", center1)
        out = client.search("o=O1, o=Grid", filter="(objectclass=computer)")
        assert len(out) == 3

    def test_search_single_resource_from_root(self):
        tb = GridTestbed(seed=3)
        vo, *_ = self.build_figure5(tb)
        client = tb.client("user", vo)
        out = client.search("o=Grid", filter="(hn=o2-r1)")
        assert len(out) == 1
        assert str(out.entries[0].dn) == "hn=o2-r1, o=O2, o=Grid"


class TestLoopPrevention:
    def test_directory_cycle_terminates(self):
        """A registered with B and B with A must not recurse forever."""
        tb = GridTestbed(seed=88)
        a = tb.add_giis("dir-a", "o=Grid", vo_name="A", child_timeout=1.0)
        b = tb.add_giis("dir-b", "o=Grid", vo_name="B", child_timeout=1.0)
        tb.register(a, b, name="dir-a")
        tb.register(b, a, name="dir-b")
        gris = tb.standard_gris("r0", "hn=r0, o=Grid")
        tb.register(gris, a, name="r0")
        tb.run(1.0)

        client = tb.client("user", a)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        # the query completed (did not recurse forever) and found the
        # resource despite the cycle
        assert [e.first("hn") for e in out] == ["r0"]
        assert sum(
            g.backend.metrics.counter("giis.depth_limited").value for g in (a, b)
        ) >= 1

    def test_self_registration_terminates(self):
        tb = GridTestbed(seed=88)
        a = tb.add_giis("dir-a", "o=Grid", child_timeout=1.0)
        tb.register(a, a, name="self")  # operator error
        tb.run(1.0)
        client = tb.client("user", a)
        out = client.search("o=Grid", check=False)
        assert out.result.ok

    def test_depth_limit_configurable(self):
        """A deep but legitimate chain works within the limit."""
        tb = GridTestbed(seed=89)
        dirs = []
        top = tb.add_giis("d0", "o=Grid", max_chain_depth=8)
        dirs.append(top)
        parent = top
        suffix = "o=Grid"
        for i in range(1, 4):
            suffix = f"ou=l{i}, {suffix}"
            d = tb.add_giis(f"d{i}", suffix, max_chain_depth=8)
            tb.register(d, parent, name=f"d{i}")
            dirs.append(d)
            parent = d
        gris = tb.standard_gris("leaf", f"hn=leaf, {suffix}")
        tb.register(gris, parent, name="leaf")
        tb.run(1.0)
        out = tb.client("u", top).search("o=Grid", filter="(hn=leaf)")
        assert len(out) == 1


class TestMembershipSubscriptions:
    def test_registration_changes_pushed(self):
        """Persistent search on a GIIS streams VO membership changes —
        a VO operator watching resources come and go."""
        tb = GridTestbed(seed=93)
        giis = tb.add_giis("giis", "o=Grid", vo_name="VO")
        changes = []
        client = tb.client("operator", giis)
        from repro.ldap.backend import ChangeType

        client.subscribe(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE),
            lambda e, c: changes.append((c, e.first("url"))),
        )
        tb.run(0.5)
        gris = tb.standard_gris("r0", "hn=r0, o=Grid")
        registrant = tb.register(gris, giis, interval=10.0, ttl=30.0, name="r0")
        tb.run(1.0)
        assert (ChangeType.ADD, "ldap://r0:2135/") in changes

        registrant.deregister_from(str(giis.url), notify=True)
        tb.run(1.0)
        assert (ChangeType.DELETE, "ldap://r0:2135/") in changes

    def test_expiry_pushed_as_delete(self):
        tb = GridTestbed(seed=93)
        giis = tb.add_giis("giis", "o=Grid", purge_interval=5.0)
        changes = []
        client = tb.client("operator", giis)
        from repro.ldap.backend import ChangeType

        client.subscribe(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE),
            lambda e, c: changes.append(c),
        )
        gris = tb.standard_gris("r0", "hn=r0, o=Grid")
        gris_reg = tb.register(gris, giis, interval=10.0, ttl=20.0)
        tb.run(1.0)
        gris_reg.stop()  # silent death
        tb.run(60.0)
        assert ChangeType.DELETE in changes  # soft-state purge observed
