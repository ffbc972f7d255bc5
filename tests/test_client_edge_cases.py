"""Client robustness: failures, abandons, protocol garbage, deep trees."""

import pytest

from repro.ldap.backend import DitBackend
from repro.ldap.client import LdapClient, LdapError
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.protocol import ResultCode, SearchRequest
from repro.ldap.server import LdapServer
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork
from repro.testbed import GridTestbed


def sim_stack(seed=0):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim)
    server_node = net.add_node("server")
    client_node = net.add_node("client")
    dit = DIT()
    dit.add(Entry("o=G", objectclass="organization", o="G"))
    backend = DitBackend(dit)
    server = LdapServer(backend, clock=sim)
    server_node.listen(389, server.handle_connection)
    client = LdapClient(client_node.connect(("server", 389)), driver=sim.step)
    return sim, net, client, server, backend


class TestClientFailures:
    def test_pending_ops_fail_when_connection_dies(self):
        sim, net, client, server, _ = sim_stack()
        results = []
        client.search_async(
            SearchRequest(base="o=G", scope=Scope.SUBTREE),
            lambda r, _e: results.append(r),
        )
        net.partition(["client"], ["server"])
        sim.run()
        # the next send attempt (or close) surfaces the failure
        with pytest.raises(LdapError):
            client.search("o=G")
        assert client.closed
        assert results and not results[0].result.ok

    def test_server_crash_fails_blocking_call(self):
        sim, net, client, server, _ = sim_stack()
        net.node("server").crash()
        with pytest.raises(LdapError):
            client.search("o=G")

    def test_garbage_from_server_closes_connection(self):
        sim = Simulator()
        net = SimNetwork(sim)
        evil = net.add_node("evil")
        user = net.add_node("user")

        def evil_handler(conn):
            conn.set_receiver(lambda m: conn.send(b"\xff\xfegarbage"))

        evil.listen(389, evil_handler)
        client = LdapClient(user.connect(("evil", 389)), driver=sim.step)
        with pytest.raises(LdapError):
            client.search("o=G")
        assert client.closed

    def test_unsolicited_message_ignored(self):
        sim = Simulator()
        net = SimNetwork(sim)
        weird = net.add_node("weird")
        user = net.add_node("user")
        from repro.ldap.protocol import (
            LdapMessage,
            LdapResult,
            SearchResultDone,
            SearchResultEntry,
            encode_message,
        )

        def handler(conn):
            def on_message(m):
                # reply to msg id 999 (never issued), then the real one
                conn.send(
                    encode_message(
                        LdapMessage(999, SearchResultEntry(dn="cn=ghost"))
                    )
                )
                conn.send(
                    encode_message(LdapMessage(1, SearchResultDone(LdapResult())))
                )

            conn.set_receiver(on_message)

        weird.listen(389, handler)
        client = LdapClient(user.connect(("weird", 389)), driver=sim.step)
        out = client.search("o=G", check=False)
        assert out.result.ok
        assert out.entries == []  # ghost reply discarded

    def test_whoami_failure_path(self):
        sim, net, client, server, _ = sim_stack()
        # unsupported extended op returns protocolError
        result = []
        client.extended_async("9.9.9.9", b"", lambda r, _e: result.append(r))
        sim.run()
        assert result[0].result.code == ResultCode.PROTOCOL_ERROR

    def test_unbind_twice_is_safe(self):
        sim, net, client, server, _ = sim_stack()
        client.unbind()
        client.unbind()
        assert client.closed


class TestAbandon:
    def test_abandon_unknown_id_is_noop(self):
        sim, net, client, server, backend = sim_stack()
        from repro.ldap.protocol import AbandonRequest, LdapMessage, encode_message

        client.conn.send(encode_message(LdapMessage(0, AbandonRequest(12345))))
        sim.run()
        assert client.search("o=G").result.ok  # server still healthy

    def test_subscription_cleaned_on_unbind(self):
        sim, net, client, server, backend = sim_stack()
        client.subscribe(
            SearchRequest(base="o=G", scope=Scope.SUBTREE), lambda e, c: None
        )
        sim.run()
        assert backend.subscription_count() == 1
        client.unbind()
        sim.run()
        assert backend.subscription_count() == 0

    def test_subscription_cleaned_on_connection_loss(self):
        sim, net, client, server, backend = sim_stack()
        client.subscribe(
            SearchRequest(base="o=G", scope=Scope.SUBTREE), lambda e, c: None
        )
        sim.run()
        assert backend.subscription_count() == 1
        client.conn.close()
        sim.run()
        assert backend.subscription_count() == 0


class TestDeepHierarchy:
    def test_three_level_giis_tree(self):
        """GIIS -> GIIS -> GIIS -> GRIS chaining, plus scoping at depth."""
        tb = GridTestbed(seed=44)
        root = tb.add_giis("root", "o=Grid", vo_name="Root")
        region = tb.add_giis("region", "o=EU, o=Grid", vo_name="EU")
        site = tb.add_giis("site", "o=CERN, o=EU, o=Grid", vo_name="CERN")
        tb.register(region, root, name="eu")
        tb.register(site, region, name="cern")
        gris = tb.standard_gris("wn1", "hn=wn1, o=CERN, o=EU, o=Grid")
        tb.register(gris, site, name="wn1")
        # a second branch to prove scoping prunes it
        us = tb.add_giis("us-region", "o=US, o=Grid", vo_name="US")
        tb.register(us, root, name="us")
        gris2 = tb.standard_gris("wn2", "hn=wn2, o=US, o=Grid")
        tb.register(gris2, us, name="wn2")
        tb.run(1.0)

        client = tb.client("user", root)
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert sorted(e.first("hn") for e in out) == ["wn1", "wn2"]

        us_before = us.backend.metrics.counter("giis.chained").value
        out = client.search(
            "o=CERN, o=EU, o=Grid", filter="(objectclass=computer)"
        )
        assert [e.first("hn") for e in out] == ["wn1"]
        assert us.backend.metrics.counter("giis.chained").value == us_before  # US branch untouched

    def test_point_query_resolves_through_three_levels(self):
        tb = GridTestbed(seed=44)
        root = tb.add_giis("root", "o=Grid")
        mid = tb.add_giis("mid", "o=A, o=Grid")
        tb.register(mid, root)
        gris = tb.standard_gris("leaf", "hn=leaf, o=A, o=Grid")
        tb.register(gris, mid)
        tb.run(1.0)
        out = tb.client("u", root).search("o=Grid", filter="(hn=leaf)")
        assert len(out) == 1
        assert str(out.entries[0].dn) == "hn=leaf, o=A, o=Grid"
