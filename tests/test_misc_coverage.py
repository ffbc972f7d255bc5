"""Coverage for less-travelled paths across modules."""

import threading
import time

import pytest

from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.ldif import LdifError, format_entry, parse_ldif
from repro.ldap.url import LdapUrl
from repro.net.clock import WallClock
from repro.testbed import GridTestbed


class TestWallClock:
    def test_now_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_call_later_fires(self):
        clock = WallClock()
        fired = threading.Event()
        clock.call_later(0.01, fired.set)
        assert fired.wait(2.0)

    def test_cancel_prevents_firing(self):
        clock = WallClock()
        fired = threading.Event()
        handle = clock.call_later(0.05, fired.set)
        handle.cancel()
        time.sleep(0.15)
        assert not fired.is_set()

    def test_cancel_idempotent(self):
        clock = WallClock()
        handle = clock.call_later(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_sleep(self):
        clock = WallClock()
        t0 = clock.now()
        clock.sleep(0.01)
        assert clock.now() - t0 >= 0.009


class TestLdifEdges:
    def test_url_valued_attribute_rejected(self):
        with pytest.raises(LdifError, match="URL-valued"):
            parse_ldif("dn: cn=x\nphoto:< file:///etc/passwd\n")

    def test_colon_leading_value_roundtrips(self):
        e = Entry("cn=x", cn="x", weird=":starts-with-colon")
        assert parse_ldif(format_entry(e))[0].first("weird") == ":starts-with-colon"

    def test_trailing_space_value_roundtrips(self):
        e = Entry("cn=x", cn="x", padded="value ")
        assert parse_ldif(format_entry(e))[0].first("padded") == "value "

    def test_empty_document(self):
        assert parse_ldif("") == []
        assert parse_ldif("# only a comment\n") == []


class TestLdapUrlEdges:
    def test_with_dn(self):
        u = LdapUrl("h", 2135).with_dn("hn=x")
        assert u.dn == DN.parse("hn=x")
        assert u.port == 2135

    def test_address(self):
        assert LdapUrl("h", 99).address == ("h", 99)

    def test_dn_with_spaces_roundtrips(self):
        u = LdapUrl("h", 2135, DN.parse("hn=host one, o=Big Org"))
        assert LdapUrl.parse(str(u)) == u


class TestRegistrantEdges:
    def test_register_with_delayed_start(self):
        from repro.grip.registration import Registrant
        from repro.net.sim import Simulator

        sim = Simulator()
        sent = []
        r = Registrant(
            sim, "u", lambda d, m: sent.append(sim.now()), interval=10.0, ttl=30.0
        )
        r.register_with("dir", immediately=False)
        sim.run_until(10.0)
        r.stop()
        assert sent == [10.0]  # first send after one interval, not at t=0


class TestGiisEdges:
    def test_referrals_from_children_propagate(self):
        """chain-mode parent + referral-mode child: the child's referral
        reaches the end client, who can chase it."""
        tb = GridTestbed(seed=91)
        parent = tb.add_giis("parent", "o=Grid", mode="chain")
        child = tb.add_giis("child", "o=A, o=Grid", mode="referral")
        tb.register(child, parent, name="child")
        gris = tb.standard_gris("leaf", "hn=leaf, o=A, o=Grid")
        tb.register(gris, child, name="leaf")
        tb.run(1.0)
        out = tb.client("u", parent).search(
            "o=Grid", filter="(objectclass=computer)", check=False
        )
        assert out.referrals  # child's referral surfaced through the parent
        target = LdapUrl.parse(out.referrals[0])
        got = tb.client("u", target).search(
            target.dn, filter="(objectclass=computer)"
        )
        assert got.entries[0].first("hn") == "leaf"

    def test_concurrent_queries_use_independent_collectors(self):
        tb = GridTestbed(seed=91)
        giis = tb.add_giis("giis", "o=Grid")
        for i in range(3):
            gris = tb.standard_gris(f"r{i}", f"hn=r{i}, o=Grid")
            tb.register(gris, giis, name=f"r{i}")
        tb.run(1.0)
        c1 = tb.client("u1", giis)
        c2 = tb.client("u2", giis)
        results = {}
        c1.search_async(
            __import__("repro.ldap.protocol", fromlist=["SearchRequest"]).SearchRequest(
                base="o=Grid",
                filter=__import__("repro.ldap.filter", fromlist=["parse"]).parse(
                    "(objectclass=computer)"
                ),
            ),
            lambda r, _e=None: results.__setitem__("a", r),
        )
        c2.search_async(
            __import__("repro.ldap.protocol", fromlist=["SearchRequest"]).SearchRequest(
                base="o=Grid",
                filter=__import__("repro.ldap.filter", fromlist=["parse"]).parse(
                    "(hn=r1)"
                ),
            ),
            lambda r, _e=None: results.__setitem__("b", r),
        )
        # NB: sim.run() would never drain with live registration streams;
        # advance bounded virtual time instead.
        tb.run(5.0)
        assert len(results["a"].entries) == 3
        assert len(results["b"].entries) == 1

    def test_sync_search_with_a_pending_child_answers_busy(self):
        from repro.ldap.backend import RequestContext
        from repro.ldap.protocol import ResultCode, SearchRequest

        tb = GridTestbed(seed=91)
        giis = tb.add_giis("giis", "o=Grid")
        gris = tb.standard_gris("r0", "hn=r0, o=Grid")
        tb.register(gris, giis, name="r0")
        tb.run(1.0)
        ctx = RequestContext()
        out = giis.backend.search(SearchRequest(base="o=Grid"), ctx)
        # The child's answer is still in flight: no silent local-only
        # answer, and the chain is cancelled rather than left running.
        assert out.result.code == ResultCode.BUSY and not out.entries
        assert ctx.cancelled
        assert giis.backend.metrics.counter("giis.chain.cancelled").value == 1

    def test_bad_mode_rejected(self):
        from repro.giis import GiisBackend
        from repro.net.sim import Simulator

        with pytest.raises(ValueError):
            GiisBackend("o=G", clock=Simulator(), mode="teleport")


class TestMds1PusherFailure:
    def test_push_failure_counted_when_central_dies(self):
        from repro.baselines import CentralDirectory, Mds1Pusher
        from repro.gris import HostConfig, StaticHostProvider
        from repro.ldap.client import LdapClient

        tb = GridTestbed(seed=92)
        central = CentralDirectory(tb.sim)
        tb.host("central").listen(389, central.server.handle_connection)
        node = tb.host("p")
        pusher = Mds1Pusher(
            tb.sim,
            LdapClient(node.connect(("central", 389))),
            "o=G",
            [StaticHostProvider(HostConfig("p"), base="hn=p")],
            interval=10.0,
        )
        pusher.start()
        tb.run(1.0)
        tb.net.node("central").crash()
        tb.net.partition(["p"], ["central"])
        tb.run(30.0)
        assert pusher.push_failures >= 1


class TestNwsEdges:
    def test_forecast_repr(self):
        from repro.gris import SeriesStore

        store = SeriesStore()
        store.observe("s", 5.0)
        store.observe("s", 5.0)
        assert "via" in repr(store.forecast("s"))

    def test_known_series(self):
        from repro.gris import SeriesStore

        store = SeriesStore()
        store.observe("a", 1.0)
        store.observe("b", 2.0)
        assert sorted(store.known_series()) == ["a", "b"]
