"""Cross-module property and stateful tests (hypothesis)."""

import string

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.grip.messages import GrrpMessage, NotificationType
from repro.grip.registry import SoftStateRegistry
from repro.ldap.dit import DIT, Scope
from repro.ldap.dn import DN, RDN
from repro.ldap.entry import Entry
from repro.ldap.ldif import format_ldif, parse_ldif
from repro.net.sim import Simulator

_attr = st.sampled_from(["cn", "hn", "ou", "description", "system"])
_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=1000),
    min_size=1,
    max_size=20,
)
_name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def _entries(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    rdns = tuple(RDN.single(draw(_attr), draw(_name)) for _ in range(depth))
    entry = Entry(DN(rdns))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        entry.add_value(draw(_attr), draw(_value))
    return entry


class TestLdifProperties:
    @given(st.lists(_entries(), max_size=8))
    @settings(max_examples=60)
    def test_roundtrip(self, entries):
        # dedupe DNs: LDIF files list each entry once
        seen, unique = set(), []
        for e in entries:
            if e.dn not in seen:
                seen.add(e.dn)
                unique.append(e)
        assert parse_ldif(format_ldif(unique)) == unique


class TestGrrpProperties:
    @given(
        _name,
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0.1, max_value=1e5),
        st.dictionaries(_name, _name, max_size=4),
    )
    @settings(max_examples=60)
    def test_message_roundtrips_both_transports(self, url, ts, ttl, meta):
        m = GrrpMessage(
            service_url=f"ldap://{url}:2135/",
            timestamp=ts,
            valid_until=ts + ttl,
            metadata=meta,
        )
        assert GrrpMessage.from_bytes(m.to_bytes()) == m
        assert GrrpMessage.from_entry(m.to_entry("o=VO")) == m


class DitMachine(RuleBasedStateMachine):
    """Stateful model check: the DIT against a dict-of-entries model."""

    def __init__(self):
        super().__init__()
        self.dit = DIT()
        self.model = {}

    dns = Bundle("dns")

    @rule(target=dns, parent=st.none() | dns, name=_name)
    def make_dn(self, parent, name):
        base = DN.root() if parent is None else parent
        return base.child(RDN.single("cn", name))

    @rule(dn=dns, value=_name)
    def add_entry(self, dn, value):
        entry = Entry(dn, objectclass="top", cn=value)
        if dn in self.model:
            try:
                self.dit.add(entry)
                raise AssertionError("expected EntryExists")
            except Exception:
                pass
        else:
            self.dit.add(entry)
            self.model[dn] = entry

    @rule(dn=dns)
    def delete_entry(self, dn):
        has_children = any(
            other != dn and other.is_descendant_of(dn) for other in self.model
        )
        try:
            self.dit.delete(dn)
            assert dn in self.model and not has_children
            del self.model[dn]
        except Exception:
            assert dn not in self.model or has_children

    @rule(dn=dns)
    def search_subtree(self, dn):
        got = {e.dn for e in self.dit.search(dn, Scope.SUBTREE)}
        want = {d for d in self.model if d.is_within(dn)}
        assert got == want

    @rule(dn=dns)
    def search_onelevel(self, dn):
        got = {e.dn for e in self.dit.search(dn, Scope.ONELEVEL)}
        want = {
            d for d in self.model if not d.is_root() and d.parent() == dn
        }
        assert got == want

    @invariant()
    def size_matches(self):
        assert len(self.dit) == len(self.model)

    @invariant()
    def entries_retrievable(self):
        for dn, entry in self.model.items():
            assert self.dit.get(dn) == entry


TestDitStateful = DitMachine.TestCase
TestDitStateful.settings = settings(max_examples=30, stateful_step_count=30)


class RegistryMachine(RuleBasedStateMachine):
    """Soft-state registry vs a model of (url -> expiry) records."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.registry = SoftStateRegistry(self.sim)
        self.model = {}

    @rule(url=_name, ttl=st.floats(min_value=1.0, max_value=100.0))
    def register(self, url, ttl):
        now = self.sim.now()
        message = GrrpMessage(
            service_url=url, timestamp=now, valid_until=now + ttl
        )
        assert self.registry.apply(message)
        self.model[url] = now + ttl

    @rule(url=_name)
    def unregister(self, url):
        now = self.sim.now()
        message = GrrpMessage(
            service_url=url,
            notification_type=NotificationType.UNREGISTER,
            timestamp=now,
            valid_until=now,
        )
        changed = self.registry.apply(message)
        was_live = self.model.pop(url, None)
        assert bool(changed) == (was_live is not None and was_live >= now)

    @rule(dt=st.floats(min_value=0.1, max_value=50.0))
    def advance(self, dt):
        self.sim.run_until(self.sim.now() + dt)

    @invariant()
    def active_matches_model(self):
        now = self.sim.now()
        live = {u for u, exp in self.model.items() if exp >= now}
        assert set(self.registry.active_urls()) == live


TestRegistryStateful = RegistryMachine.TestCase
TestRegistryStateful.settings = settings(max_examples=30, stateful_step_count=30)
