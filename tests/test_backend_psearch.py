"""Unit tests for the backend layer and persistent-search controls."""

import pytest
from hypothesis import given, strategies as st

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.gris.core import GrisBackend
from repro.ldap import backend as backend_module
from repro.ldap.backend import (
    Backend,
    ChangeType,
    DitBackend,
    RequestContext,
)
from repro.ldap.client import LdapClient
from repro.ldap.dit import DIT, Scope, in_scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import (
    AddRequest,
    Control,
    ModifyRequest,
    ResultCode,
    SearchRequest,
)
from repro.ldap.psearch import (
    ENTRY_CHANGE_OID,
    PSEARCH_OID,
    EntryChangeNotification,
    PersistentSearchControl,
)
from repro.ldap.schema import GRID_SCHEMA
from repro.ldap.server import LdapServer
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import MonitorBackend, MonitoredBackend

CTX = RequestContext(identity="CN=test")


def backend():
    b = DitBackend(DIT())
    b.dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    b.dit.add(
        Entry("hn=a, o=Grid", objectclass="computer", hn="a", load5="1.0")
    )
    return b


class TestDitBackend:
    def test_search_ok(self):
        out = backend().search(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE), CTX
        )
        assert out.result.ok and len(out.entries) == 2

    def test_search_bad_base(self):
        out = backend().search(SearchRequest(base="!!!"), CTX)
        assert out.result.code == ResultCode.PROTOCOL_ERROR

    def test_search_missing_base(self):
        out = backend().search(
            SearchRequest(base="o=Nope", scope=Scope.BASE), CTX
        )
        assert out.result.code == ResultCode.NO_SUCH_OBJECT

    def test_add_and_duplicate(self):
        b = backend()
        req = AddRequest.from_entry(Entry("hn=b, o=Grid", objectclass="computer", hn="b"))
        assert b.add(req, CTX).ok
        assert b.add(req, CTX).code == ResultCode.ENTRY_ALREADY_EXISTS

    def test_add_schema_violation(self):
        b = DitBackend(DIT(schema=GRID_SCHEMA))
        req = AddRequest.from_entry(Entry("hn=x", objectclass="computer"))
        assert b.add(req, CTX).code == ResultCode.OBJECT_CLASS_VIOLATION

    def test_modify_unknown_op(self):
        b = backend()
        result = b.modify(ModifyRequest("hn=a, o=Grid", ((9, "x", ("v",)),)), CTX)
        assert result.code == ResultCode.OTHER

    def test_delete_nonleaf(self):
        b = backend()
        result = b.delete("o=Grid", CTX)
        assert result.code == ResultCode.UNWILLING_TO_PERFORM

    def test_base_backend_defaults(self):
        class Minimal(Backend):
            def search(self, req, ctx):
                raise NotImplementedError

        b = Minimal()
        assert b.add(AddRequest(), CTX).code == ResultCode.UNWILLING_TO_PERFORM
        assert b.modify(ModifyRequest(), CTX).code == ResultCode.UNWILLING_TO_PERFORM
        assert b.delete("cn=x", CTX).code == ResultCode.UNWILLING_TO_PERFORM
        assert b.subscribe(SearchRequest(), CTX, lambda e, c: None) is None

    def test_default_stream_replays_the_search_hook(self):
        entries, results = [], []
        handle = backend().submit_search_stream(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE),
            CTX,
            entries.append,
            results.append,
        )
        assert entries and len(results) == 1
        assert results[0].result.ok and not results[0].entries
        assert not handle.cancelled


_BACKENDS = {
    "dit": lambda sim: DitBackend(DIT()),
    "gris": lambda sim: GrisBackend("o=Grid", clock=sim),
    "giis-chain": lambda sim: GiisBackend("o=Grid", clock=sim),
    "giis-referral": lambda sim: GiisBackend("o=Grid", clock=sim, mode="referral"),
    "monitor": lambda sim: MonitorBackend(MetricsRegistry()),
    "monitored-giis": lambda sim: MonitoredBackend(
        GiisBackend("o=Grid", clock=sim), MonitorBackend(MetricsRegistry())
    ),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
class TestMalformedBaseDn:
    """Every backend answers a base DN that does not parse with
    protocolError — never an exception, never its text on the wire."""

    REQ = SearchRequest(base="===bad,,=", scope=Scope.SUBTREE)

    def test_through_search(self, kind):
        out = _BACKENDS[kind](Simulator()).search(self.REQ, RequestContext())
        assert out.result.code == ResultCode.PROTOCOL_ERROR
        assert out.result.message == "bad base DN" and not out.entries

    def test_through_a_served_connection(self, kind):
        sim = Simulator(seed=7)
        net = SimNetwork(sim)
        server = LdapServer(_BACKENDS[kind](sim), clock=sim)
        net.add_node("server").listen(389, server.handle_connection)
        client = LdapClient(
            net.add_node("client").connect(("server", 389)), driver=sim.step
        )
        out = client.search(self.REQ.base, check=False)
        assert out.result.code == ResultCode.PROTOCOL_ERROR
        assert out.result.message == "bad base DN"


def _open_subscriptions(b) -> int:
    if isinstance(b, GrisBackend):
        return b.subscription_count()
    return len(b._subscriptions)


class TestOneSubscriptionTable:
    """DIT and GIIS keep their persistent searches in one
    ``SubscriptionTable``; a base that does not parse is refused at the
    front end and never breaks anyone else's notifications."""

    BAD = "===bad,,="

    def _registration(self, n: int) -> GrrpMessage:
        return GrrpMessage(
            service_url=f"ldap://gris{n}:2135/",
            timestamp=0.0,
            valid_until=60.0,
            metadata={"suffix": f"hn=r{n}, o=Grid"},
        )

    def test_grrp_intake_after_a_subscription_with_a_bad_base(self):
        giis = GiisBackend("o=Grid", clock=Simulator())
        giis.subscribe(SearchRequest(base=self.BAD), CTX, lambda e, c: None)
        seen = []
        giis.subscribe(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE),
            CTX,
            lambda e, c: seen.append((str(e.first("url")), c)),
        )
        assert giis.apply_grrp(self._registration(1)).ok
        add = AddRequest.from_entry(self._registration(2).to_entry("o=Grid"))
        assert giis.add(add, CTX).ok
        assert seen == [
            ("ldap://gris1:2135/", ChangeType.ADD),
            ("ldap://gris2:2135/", ChangeType.ADD),
        ]

    def test_base_parsed_and_filter_compiled_once_per_subscription(self, monkeypatch):
        calls = {"parse": 0, "compile": 0}
        real_parse, real_compile = SearchRequest.base_dn, backend_module.compile_filter

        def counting_parse(req):
            calls["parse"] += 1
            return real_parse(req)

        def counting_compile(f):
            calls["compile"] += 1
            return real_compile(f)

        monkeypatch.setattr(SearchRequest, "base_dn", counting_parse)
        monkeypatch.setattr(backend_module, "compile_filter", counting_compile)
        b = backend()
        seen = []
        b.subscribe(
            SearchRequest(base="o=Grid", filter=parse_filter("(hn=*)")),
            CTX,
            lambda e, c: seen.append(c),
        )
        for i in range(5):
            entry = Entry(f"hn=n{i}, o=Grid", objectclass="computer", hn=f"n{i}")
            assert b.add(AddRequest.from_entry(entry), CTX).ok
        assert seen == [ChangeType.ADD] * 5
        assert calls == {"parse": 1, "compile": 1}

    def test_a_push_may_cancel_its_own_subscription(self):
        b = backend()
        seen = []

        def push(entry, change):
            seen.append(change)
            sub.cancel()

        sub = b.subscribe(SearchRequest(base="o=Grid"), CTX, push)
        for name in ("x", "y"):
            entry = Entry(f"hn={name}, o=Grid", objectclass="computer", hn=name)
            assert b.add(AddRequest.from_entry(entry), CTX).ok
        assert seen == [ChangeType.ADD] and b.subscription_count() == 0

    @pytest.mark.parametrize("changes_only", [True, False], ids=["changes-only", "initial"])
    @pytest.mark.parametrize("kind", ["dit", "gris", "giis-chain"])
    def test_persistent_search_with_a_bad_base_is_a_protocol_error(
        self, kind, changes_only
    ):
        sim = Simulator(seed=7)
        net = SimNetwork(sim)
        b = _BACKENDS[kind](sim)
        server = LdapServer(b, clock=sim)
        net.add_node("server").listen(389, server.handle_connection)
        client = LdapClient(
            net.add_node("client").connect(("server", 389)), driver=sim.step
        )
        done = []
        psc = PersistentSearchControl(changes_only=changes_only)
        client.search_async(
            SearchRequest(base=self.BAD, scope=Scope.SUBTREE),
            lambda out, _err: done.append(out.result),
            controls=(psc.to_control(),),
        )
        sim.run_until(sim.now() + 5.0)
        assert [(r.code, r.message) for r in done] == [
            (ResultCode.PROTOCOL_ERROR, "bad base DN")
        ]
        assert _open_subscriptions(b) == 0


class TestSubscriptionSemantics:
    def test_change_type_masking(self):
        b = backend()
        changes = []
        b.subscribe(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE),
            CTX,
            lambda e, c: changes.append(c),
            change_types=ChangeType.DELETE,
        )
        b.add(AddRequest.from_entry(Entry("hn=c, o=Grid", objectclass="computer", hn="c")), CTX)
        b.delete("hn=c, o=Grid", CTX)
        assert changes == [ChangeType.DELETE]

    def test_scope_respected(self):
        b = backend()
        changes = []
        b.subscribe(
            SearchRequest(base="hn=a, o=Grid", scope=Scope.BASE),
            CTX,
            lambda e, c: changes.append(str(e.dn)),
        )
        b.add(AddRequest.from_entry(Entry("hn=zz, o=Grid", objectclass="computer", hn="zz")), CTX)
        b.modify(
            ModifyRequest("hn=a, o=Grid", ((ModifyRequest.OP_REPLACE, "load5", ("7",)),)),
            CTX,
        )
        assert changes == ["hn=a, o=Grid"]

    def test_filter_respected_for_modify(self):
        b = backend()
        changes = []
        b.subscribe(
            SearchRequest(
                base="o=Grid",
                scope=Scope.SUBTREE,
                filter=parse_filter("(load5>=5)"),
            ),
            CTX,
            lambda e, c: changes.append(float(e.first("load5"))),
        )
        b.modify(
            ModifyRequest("hn=a, o=Grid", ((ModifyRequest.OP_REPLACE, "load5", ("2",)),)),
            CTX,
        )
        assert changes == []
        b.modify(
            ModifyRequest("hn=a, o=Grid", ((ModifyRequest.OP_REPLACE, "load5", ("8",)),)),
            CTX,
        )
        assert changes == [8.0]

    def test_delete_notification_skips_filter(self):
        # the deleted entry's final state can't be filter-matched
        b = backend()
        changes = []
        b.subscribe(
            SearchRequest(
                base="o=Grid",
                scope=Scope.SUBTREE,
                filter=parse_filter("(nosuchattr=1)"),
            ),
            CTX,
            lambda e, c: changes.append(c),
        )
        b.delete("hn=a, o=Grid", CTX)
        assert changes == [ChangeType.DELETE]

    def test_cancel_is_idempotent(self):
        b = backend()
        sub = b.subscribe(
            SearchRequest(base="o=Grid", scope=Scope.SUBTREE), CTX, lambda e, c: None
        )
        assert b.subscription_count() == 1
        sub.cancel()
        sub.cancel()
        assert b.subscription_count() == 0


class TestInScope:
    def test_base(self):
        assert in_scope(DN.parse("a=1"), DN.parse("a=1"), Scope.BASE)
        assert not in_scope(DN.parse("b=2, a=1"), DN.parse("a=1"), Scope.BASE)

    def test_onelevel(self):
        base = DN.parse("a=1")
        assert in_scope(DN.parse("b=2, a=1"), base, Scope.ONELEVEL)
        assert not in_scope(base, base, Scope.ONELEVEL)
        assert not in_scope(DN.parse("c=3, b=2, a=1"), base, Scope.ONELEVEL)
        assert not in_scope(DN.root(), base, Scope.ONELEVEL)

    def test_subtree(self):
        base = DN.parse("a=1")
        assert in_scope(base, base, Scope.SUBTREE)
        assert in_scope(DN.parse("c=3, b=2, a=1"), base, Scope.SUBTREE)
        assert not in_scope(DN.parse("a=2"), base, Scope.SUBTREE)


class TestPsearchCodec:
    def test_request_control_roundtrip(self):
        psc = PersistentSearchControl(
            change_types=ChangeType.ADD | ChangeType.DELETE,
            changes_only=True,
            return_ecs=False,
        )
        control = psc.to_control()
        assert control.oid == PSEARCH_OID
        assert PersistentSearchControl.from_control(control) == psc

    def test_find_in_controls(self):
        psc = PersistentSearchControl()
        controls = (Control("1.2.3"), psc.to_control())
        assert PersistentSearchControl.find(controls) == psc
        assert PersistentSearchControl.find((Control("1.2.3"),)) is None

    def test_entry_change_roundtrip(self):
        ec = EntryChangeNotification(ChangeType.MODIFY)
        control = ec.to_control()
        assert control.oid == ENTRY_CHANGE_OID
        assert EntryChangeNotification.from_control(control) == ec
        assert EntryChangeNotification.find((control,)) == ec
        assert EntryChangeNotification.find(()) is None

    @given(
        st.integers(min_value=1, max_value=15),
        st.booleans(),
        st.booleans(),
    )
    def test_control_roundtrip_property(self, change_types, changes_only, return_ecs):
        psc = PersistentSearchControl(change_types, changes_only, return_ecs)
        assert PersistentSearchControl.from_control(psc.to_control()) == psc
