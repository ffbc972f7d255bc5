"""Snapshot-once GIIS: built per GRRP message, shared per search, same bytes.

The registry builds everything a search needs of a registration when
its message arrives and publishes an immutable generation; a search
takes the current generation by reference.  These tests pin what that
must not change and what it must stop doing:

* a reference oracle — the per-search builder deleted from ``src/``,
  kept here — gives the same wire frames, referral lists and order
  through a served ``LdapServer`` on simnet, in chain and referral
  mode, transparent and not, over random register / refresh /
  unregister / expiry / rebirth histories;
* a search that captured generation N answers from N while N+1 is
  published;
* the query cache survives a refresh and misses on every membership
  change;
* an expired record is never served, with no sweep timer running;
* a warm restart over a WAL serves what was served before the kill;
* readers, GRRP intake and expiry running at once raise nothing, never
  see a torn mix, report each death once and leave the log in
  membership order;
* ``grrp.rebirths`` counts a death-and-rebirth through the GIIS; the
  self-monitor entry is rebuilt once a second, not once a search.

Everything here counts calls and compares bytes; nothing times.
"""

import math
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.giis import core
from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage, NotificationType
from repro.grip.registry import SoftStateRegistry
from repro.ldap.backend import DitBackend, RequestContext
from repro.ldap.dit import DIT, Scope, in_scope
from repro.ldap.dn import DN, DNError
from repro.ldap.entry import Entry
from repro.ldap.protocol import (
    LdapMessage,
    ResultCode,
    SearchResultReference,
    decode_message,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.ldap.storage.memory import MemoryEngine
from repro.ldap.storage.wal import WalEngine
from repro.ldap.url import LdapUrl
from repro.net.links import LinkModel
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork
from repro.obs.health import HealthModel
from repro.obs.metrics import MetricsRegistry
from repro.security.acl import attribute_restricted_policy, open_policy

from .test_gris_snapshot import Front, SteppedClock, entries_of, request

GRID = "o=Grid"


def reg(url, suffix, ts, ttl=60.0):
    return GrrpMessage(url, timestamp=ts, valid_until=ts + ttl, metadata={"suffix": suffix})


def unreg(url, ts):
    return GrrpMessage(url, NotificationType.UNREGISTER, timestamp=ts, valid_until=ts)


# ---------------------------------------------------------------------------
# The reference oracle: today's semantics, yesterday's cost
# ---------------------------------------------------------------------------


class ReferenceGiis(GiisBackend):
    """The per-search builder: every search rebuilds the suffix entry and
    one Entry per registration, parses every suffix and referral URL, and
    routes by DN math over every active registration."""

    def _local(self, gen, base, scope, match):
        suffix_entry = Entry(
            self.suffix, objectclass=["organization"] if self.suffix.rdns else ["top"]
        )
        if self.suffix.rdns:
            suffix_entry.put(self.suffix.rdn.attr, self.suffix.rdn.value)
        suffix_entry.put("description", f"GIIS for {self.vo_name}")
        if self.url is not None:
            suffix_entry.add_value("objectclass", "service")
            suffix_entry.put("url", str(self.url))
        out = [suffix_entry]
        for registration in self.registry.active():
            entry = registration.message.to_entry(self.suffix)
            entry.put("regsource", registration.source_identity or "unknown")
            out.append(entry)
        return [e for e in out if in_scope(e.dn, base, scope) and match(e)]

    def _route(self, base):
        targets = []
        for registration in self.registry.active():
            text = registration.message.metadata.get("suffix", "")
            try:
                suffix = DN.parse(text)
                referral = LdapUrl.parse(registration.service_url)
                referral = str(referral.with_dn(text) if text else referral)
            except DNError:
                continue
            except ValueError:
                referral = registration.service_url
            if suffix.is_within(base) or base.is_within(suffix):
                targets.append(replace(registration, referral=referral))
        return self.registry.generation(), targets


# ---------------------------------------------------------------------------
# Two identical simnet worlds, one per implementation
# ---------------------------------------------------------------------------

CHILDREN = ("c0", "c1", "c2")
SPARE = "c3"  # served by every World, registered by no state machine
URLS = [f"ldap://{host}:389/" for host in CHILDREN] + [
    "ldap://ghost:389/",  # registers, never answers a dial
    "not-an-ldap-url",
]
SUFFIXES = [
    "hn=c0, o=Grid", "hn=c1, o=Grid", "hn=c2, o=Grid", "o=Grid", "",
    "hn=c1,o=grid", "dev=d0, hn=c0, o=Grid", "o=Elsewhere", "not a dn,,",
]
BASES = [
    GRID, GRID, GRID, GRID, GRID, GRID, "", "hn=c0, o=Grid", "hn=c1, o=Grid",
    "hn=c2, o=Grid", "dev=d0, hn=c0, o=Grid",
    "hn=nope, o=Grid", "o=Elsewhere", "regid=ldap://c0:389/, o=Grid",
    "REGID=ldap://c1:389/,o=grid", "regid=ldap://never:389/, o=Grid",
    "x=y, regid=ldap://c0:389/, o=Grid",
]
FILTERS = [
    "(objectclass=*)", "(objectclass=*)", "(objectclass=*)", "(objectclass=*)",
    "(objectclass=*)", "(objectclass=giisregistration)",
    "(objectclass=computer)", "(regmeta-suffix=hn=c1*)", "(url=ldap://c2:389/)",
    "(!(objectclass=service))", "(|(objectclass=organization)(hn=c0))", "(mds-validto>=50)",
]
ATTRS = [(), (), ("url", "mds-timestamp"), ("hn",)]
PUBLIC = ["objectclass", "o", "hn", "dev", "url", "regmeta-suffix", "mds-timestamp"]


class World:
    """A GIIS of class *cls* behind two served front ends (one
    transparent, one ACL-restricted), four child GRISes, one client."""

    def __init__(self, cls, mode):
        self.sim = Simulator()
        net = SimNetwork(self.sim, LinkModel(latency=0.001))  # no jitter: same order
        for host in CHILDREN + (SPARE,):
            dit = DIT()
            dit.add(Entry(f"hn={host}, {GRID}", objectclass="computer", hn=host))
            dit.add(Entry(f"dev=d0, hn={host}, {GRID}", objectclass="device", dev="d0",
                          hn=host))
            server = LdapServer(DitBackend(dit), clock=self.sim)
            net.add_node(host).listen(389, server.handle_connection)
        node = net.add_node("giis")
        self.giis = cls(
            GRID, clock=self.sim, mode=mode, vo_name="VO", child_timeout=2.0,
            url=LdapUrl("giis", 389, DN.of(GRID)),
            connector=lambda url: node.connect(url.address),
        )
        restricted = attribute_restricted_policy(PUBLIC, ["mds-validto"], ["cn=ops"])
        for port, policy in ((389, open_policy()), (390, restricted)):
            server = LdapServer(self.giis, clock=self.sim, policy=policy)
            node.listen(port, server.handle_connection)
        client = net.add_node("client")
        self.frames = {389: [], 390: []}
        self.conns = {}
        for port, sink in self.frames.items():
            self.conns[port] = client.connect(("giis", port))
            self.conns[port].set_receiver(sink.append)
        self.msg_id = 0

    def search(self, port, req):
        """The frames one search is answered with, in arrival order."""
        self.msg_id += 1
        self.conns[port].send(encode_message(LdapMessage(self.msg_id, req)))
        self.sim.run_until(self.sim.now() + 2.5)  # past the child timeout
        frames, self.frames[port][:] = list(self.frames[port]), []
        return frames


def referrals_of(frames):
    ops = (decode_message(frame).op for frame in frames)
    return [uri for op in ops if isinstance(op, SearchResultReference) for uri in op.uris]


class GiisVsReference(RuleBasedStateMachine):
    mode = "chain"

    def __init__(self):
        super().__init__()
        self.ours = World(GiisBackend, self.mode)
        self.theirs = World(ReferenceGiis, self.mode)
        for url, suffix in zip(URLS, SUFFIXES):  # start with the three children in
            self.both(lambda w: w.giis.apply_grrp(reg(url, suffix, 0.0, 100.0), "cn=gris"))

    def both(self, act):
        for world in (self.ours, self.theirs):
            act(world)

    @rule(url=st.sampled_from(URLS), suffix=st.sampled_from(SUFFIXES),
          ttl=st.sampled_from([5.0, 60.0, 300.0]),
          identity=st.sampled_from([None, "cn=ops", "cn=gris"]))
    def register(self, url, suffix, ttl, identity):
        """New, refresh (same or changed suffix) or rebirth, as it falls."""
        self.both(lambda w: w.giis.apply_grrp(reg(url, suffix, w.sim.now(), ttl), identity))

    @rule(url=st.sampled_from(URLS))
    def unregister(self, url):
        self.both(lambda w: w.giis.apply_grrp(unreg(url, w.sim.now())))

    @rule(dt=st.sampled_from([0.5, 4.0, 7.0, 30.0]))
    def advance(self, dt):
        self.both(lambda w: w.sim.run_until(w.sim.now() + dt))

    @rule(url=st.sampled_from(URLS), suffix=st.sampled_from(SUFFIXES))
    def die_and_come_back(self, url, suffix):
        """Expire unobserved (no read, no sweep timer), then register again."""
        def act(w):
            w.giis.apply_grrp(reg(url, suffix, w.sim.now(), 5.0))
            w.sim.run_until(w.sim.now() + 6.0)
            w.giis.apply_grrp(reg(url, suffix, w.sim.now(), 20.0))
        self.both(act)

    @rule(port=st.sampled_from([389, 390]), picks=st.lists(
        st.tuples(st.sampled_from(BASES),
                  st.sampled_from([Scope.BASE, Scope.ONELEVEL, Scope.SUBTREE, Scope.SUBTREE]),
                  st.sampled_from(FILTERS), st.sampled_from(ATTRS),
                  st.sampled_from([0, 0, 0, 2])),
        min_size=6, max_size=6))
    def search(self, port, picks):
        for base, scope, filt, attrs, size_limit in picks:
            req = request(base, scope, filt, attributes=attrs, size_limit=size_limit)
            got, expected = self.ours.search(port, req), self.theirs.search(port, req)
            assert got == expected, req  # same bytes, same order
            assert referrals_of(got) == referrals_of(expected)
            assert decode_message(got[-1]).op.result is not None  # concluded

    def teardown(self):
        ours, theirs = self.ours.giis.registry, self.theirs.giis.registry
        assert ours.active_urls() == theirs.active_urls()
        for name in ("grrp.expired", "grrp.rebirths", "grrp.refreshed"):
            assert ours.metrics.counter(name).value == theirs.metrics.counter(name).value


class ReferralGiisVsReference(GiisVsReference):
    mode = "referral"


TestChainFramesEqualTheReference = GiisVsReference.TestCase
TestChainFramesEqualTheReference.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestReferralFramesEqualTheReference = ReferralGiisVsReference.TestCase
TestReferralFramesEqualTheReference.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)


# ---------------------------------------------------------------------------
# A captured generation stays whole while the next is published
# ---------------------------------------------------------------------------


def vo(clock, n=6, mode="referral", **kw):
    giis = GiisBackend(GRID, clock=clock, mode=mode, **kw)
    for k in range(n):
        giis.apply_grrp(reg(f"ldap://n{k}:389/", f"hn=n{k}, {GRID}", clock.now()), "cn=gris")
    return giis


def listing(giis, base=GRID, scope=Scope.ONELEVEL, on_entry=None):
    """One search of the registration tier: (entries, referrals)."""
    entries, done = [], []

    def collect(entry):
        entries.append(entry)
        if on_entry is not None:
            on_entry(entry)

    giis.submit_search_stream(
        request(base, scope, "(objectclass=giisregistration)"), RequestContext(),
        collect, done.append,
    )
    assert done and done[0].result.ok
    return entries, done[0].referrals


def test_a_captured_generation_is_untouched_by_the_next():
    sim = Simulator()
    giis = vo(sim)
    gen = giis.registry.generation()
    records = list(gen.by_url.values())
    pristine = [(r.service_url, list(r.entry.items()), r.referral) for r in records]

    sim.run_until(10.0)
    giis.apply_grrp(reg("ldap://n0:389/", f"hn=n0, {GRID}", 10.0))  # refresh
    giis.apply_grrp(reg("ldap://n1:389/", f"hn=moved, {GRID}", 10.0))  # new suffix
    giis.apply_grrp(unreg("ldap://n2:389/", 10.0))
    giis.apply_grrp(reg("ldap://new:389/", f"hn=new, {GRID}", 10.0))

    assert list(gen.by_url.values()) == records
    assert all(a is b for a, b in zip(gen.by_url.values(), records))
    assert [(r.service_url, list(r.entry.items()), r.referral) for r in records] == pristine
    assert [gen.by_url[url] for url in gen.by_dn.values()] == records
    now = giis.registry.generation()
    assert now is not gen and now.membership > gen.membership
    assert list(now.by_url) == [f"ldap://n{k}:389/" for k in (0, 1, 3, 4, 5)] + [
        "ldap://new:389/"
    ]
    assert now.by_url["ldap://n0:389/"] is not gen.by_url["ldap://n0:389/"]
    assert now.by_url["ldap://n3:389/"] is gen.by_url["ldap://n3:389/"]


def test_a_search_answers_from_one_generation_while_the_next_is_published():
    sim = Simulator()
    giis = vo(sim)
    before = [r.entry for r in giis.registry.active()]

    def churn(entry):
        """Runs in the middle of the stream, after the first entry."""
        if entry is before[0]:
            giis.apply_grrp(unreg("ldap://n4:389/", 0.0))
            giis.apply_grrp(reg("ldap://n5:389/", f"hn=n5, {GRID}", 0.0))
            giis.apply_grrp(reg("ldap://late:389/", f"hn=late, {GRID}", 0.0))

    entries, referrals = listing(giis, on_entry=churn)
    assert all(a is b for a, b in zip(entries, before)) and len(entries) == 6
    assert referrals == [f"ldap://n{k}/hn=n{k}, {GRID}" for k in range(6)]  # 389 is implied
    entries, referrals = listing(giis)
    assert [e.first("url") for e in entries] == [
        f"ldap://{h}:389/" for h in ("n0", "n1", "n2", "n3", "n5", "late")
    ]
    assert len(referrals) == 6 and referrals[-1].startswith("ldap://late")


def test_routes_are_remembered_per_membership_and_follow_a_changed_suffix(monkeypatch):
    sim = Simulator()
    giis = vo(sim)
    builds = []
    build = core._Routes.build
    monkeypatch.setattr(
        core._Routes, "build", lambda gen: (builds.append(gen.membership), build(gen))[1]
    )

    def referred(base):
        return listing(giis, base, Scope.SUBTREE)[1]

    membership = giis.registry.generation().membership
    assert referred(f"hn=n1, {GRID}") == [f"ldap://n1/hn=n1, {GRID}"]
    for ts in (1.0, 2.0):  # plain refreshes: same membership, same table
        giis.apply_grrp(reg("ldap://n1:389/", f"hn=n1, {GRID}", ts))
        assert referred(f"hn=n1, {GRID}") == [f"ldap://n1/hn=n1, {GRID}"]
    assert builds == [membership] and giis.registry.generation().membership == membership

    giis.apply_grrp(reg("ldap://n1:389/", f"hn=moved, {GRID}", 3.0))
    assert giis.registry.generation().membership == membership + 1
    assert referred(f"hn=n1, {GRID}") == []
    assert referred(f"hn=moved, {GRID}") == [f"ldap://n1/hn=moved, {GRID}"]
    assert len(referred(GRID)) == 6 and referred(GRID)[1] == f"ldap://n1/hn=moved, {GRID}"
    assert builds == [membership, membership + 1]


# Suffix spellings that name the same DN (case, whitespace, AVA order in a
# multi-valued RDN), their neighbours, and ones that do not parse.
RDNS = ["hn=a", "HN=A", "hn= a", "hn=b", "cn=x+hn=a", "HN=A + CN=X", "o=Grid", "o=grid",
        "O=GRID ", "ou=o1"]
MALFORMED = ["not a dn,,", "hn=a,,o=Grid", "=x"]
dns = st.lists(st.sampled_from(RDNS), max_size=3).map(", ".join)


@settings(max_examples=60, deadline=None)
@given(
    suffixes=st.lists(st.one_of(dns, st.sampled_from(MALFORMED)), min_size=1, max_size=8),
    moves=st.lists(st.tuples(st.integers(0, 7), st.one_of(dns, st.just(None))), max_size=4),
    bases=st.lists(dns, min_size=1, max_size=4),
)
def test_route_is_exactly_the_namespace_intersection_in_membership_order(suffixes, moves, bases):
    """Whatever the spelling, _route answers what DN math over every
    live registration answers, across suffix changes and departures."""
    giis = GiisBackend(GRID, clock=Simulator())
    urls = [f"ldap://h{k}:389/" for k in range(len(suffixes))]
    for url, suffix in zip(urls, suffixes):
        giis.apply_grrp(reg(url, suffix, 0.0))

    def check():
        for text in bases:
            base = DN.parse(text)
            expected = [
                r.service_url for r in giis.registry.active()
                if r.suffix_dn is not None
                and (r.suffix_dn.is_within(base) or base.is_within(r.suffix_dn))
            ]
            assert [r.service_url for r in giis._route(base)[1]] == expected

    check()
    for k, suffix in moves:  # a changed suffix, or a departure
        url = urls[k % len(urls)]
        giis.apply_grrp(unreg(url, 0.0) if suffix is None else reg(url, suffix, 0.0))
        check()


def test_two_searches_hand_out_the_same_objects_and_a_refresh_replaces_one():
    sim = Simulator()
    giis = vo(sim)
    first, _ = listing(giis)
    second, _ = listing(giis)
    assert all(a is b for a, b in zip(first, second))
    assert giis.local_entries()[1:] == first and giis.local_entries()[1] is first[0]
    giis.apply_grrp(reg("ldap://n2:389/", f"hn=n2, {GRID}", 1.0))
    third, _ = listing(giis)
    assert [a is b for a, b in zip(first, third)] == [True, True, False, True, True, True]
    assert third[2]._wire is not None and third[2]._wire is not first[2]._wire


def test_encode_cache_serves_registration_entries_and_a_refresh_replaces_the_cell():
    sim = Simulator()
    giis = vo(sim, n=4)
    front = Front(giis, clock=sim)
    req = request(GRID, Scope.SUBTREE, "(objectclass=*)")
    front.search(req)
    assert front.counter("ldap.encode.cache.misses") == 5  # suffix + 4
    front.search(req)
    assert front.counter("ldap.encode.cache.hits") == 5
    assert front.counter("ldap.encode.cache.uncached") == 0
    giis.apply_grrp(reg("ldap://n1:389/", f"hn=n1, {GRID}", 7.0))
    stamps = [e.timestamp() for e in entries_of(front.search(req))[1:]]
    assert stamps == [0.0, 7.0, 0.0, 0.0]
    assert front.counter("ldap.encode.cache.misses") == 6


# ---------------------------------------------------------------------------
# Query cache: keyed on membership
# ---------------------------------------------------------------------------


def test_query_cache_survives_a_refresh_and_misses_on_every_membership_change():
    world = World(GiisBackend, "chain")
    giis, sim = world.giis, world.sim
    giis.cache_ttl = 1e9
    for host in CHILDREN:
        giis.apply_grrp(reg(f"ldap://{host}:389/", f"hn={host}, {GRID}", 0.0, ttl=100.0))
    req = request(GRID, Scope.SUBTREE, "(objectclass=computer)")

    def probe():
        """(hit?, hosts answered) of one more identical search."""
        hits = giis.metrics.counter("giis.query_cache.hits").value
        found = sorted(e.first("hn") for e in entries_of(world.search(389, req)))
        return giis.metrics.counter("giis.query_cache.hits").value - hits == 1, found

    assert probe() == (False, ["c0", "c1", "c2"])
    assert probe() == (True, ["c0", "c1", "c2"])
    for host in CHILDREN:  # 3 refreshes: still a hit, and still the recorded stamps
        giis.apply_grrp(reg(f"ldap://{host}:389/", f"hn={host}, {GRID}", sim.now(), ttl=100.0))
    assert probe() == (True, ["c0", "c1", "c2"])
    giis.apply_grrp(reg(f"ldap://{SPARE}:389/", f"hn={SPARE}, {GRID}", sim.now(), ttl=10.0))
    assert probe() == (False, ["c0", "c1", "c2", "c3"])  # register
    assert probe()[0]
    giis.apply_grrp(unreg("ldap://c2:389/", sim.now()))
    assert probe() == (False, ["c0", "c1", "c3"])  # unregister
    assert probe()[0]
    sim.run_until(sim.now() + 11.0)  # c3 expires, unobserved
    assert probe() == (False, ["c0", "c1"])  # expiry
    assert probe()[0]
    giis.apply_grrp(reg("ldap://c1:389/", "o=Elsewhere", sim.now(), ttl=100.0))
    assert probe() == (False, ["c0"])  # suffix change: c1 no longer covers o=Grid
    assert probe() == (True, ["c0"])


def test_uncached_answer_caching_miss_and_caching_hit_are_the_same_frames():
    world = World(GiisBackend, "chain")
    giis = world.giis
    for host in CHILDREN:
        giis.apply_grrp(reg(f"ldap://{host}:389/", f"hn={host}, {GRID}", 0.0, ttl=1e6))
    chained = giis.metrics.counter("giis.chained")
    for port, attrs in ((389, ()), (390, ()), (390, ("hn", "url"))):
        req = request(GRID, Scope.SUBTREE, "(objectclass=*)", attributes=attrs)
        answers = []
        for ttl in (0.0, 1e9, 1e9):  # uncached, caching miss, caching hit
            giis.cache_ttl = ttl
            world.msg_id = 0  # one message id: the frames compare as bytes
            before = chained.value
            answers.append(world.search(port, req))
        assert len(answers[0]) == 11  # suffix, 3 registrations, 6 child entries, done
        assert answers[0] == answers[1] == answers[2], port
        assert chained.value == before  # the hit touched no child
        giis._query_cache.clear()


# ---------------------------------------------------------------------------
# Expiry with nothing sweeping
# ---------------------------------------------------------------------------


def test_an_expired_record_is_never_served_with_no_sweep_timer():
    sim = Simulator()
    expired = []
    giis = vo(sim, n=0)
    fan_expire = giis.registry.on_expire
    giis.registry.on_expire = lambda r: (expired.append(r.service_url), fan_expire(r))
    giis.apply_grrp(reg("ldap://short:389/", f"hn=short, {GRID}", 0.0, ttl=30.0))
    giis.apply_grrp(reg("ldap://long:389/", f"hn=long, {GRID}", 0.0, ttl=300.0))
    front = Front(giis, clock=sim)
    listed = request(GRID, Scope.SUBTREE, "(objectclass=giisregistration)")
    probe = request("regid=ldap://short:389/, o=Grid", Scope.BASE)
    scoped = request(f"hn=short, {GRID}", Scope.SUBTREE)

    sim.run_until(30.0)  # the last instant it holds
    assert len(entries_of(front.search(listed))) == 2
    assert len(entries_of(front.search(probe))) == 1
    assert len(referrals_of(front.search(scoped))) == 1
    sim.run_until(30.5)
    assert sim.pending() == 0  # nothing scheduled: no timer will sweep
    assert [e.first("url") for e in entries_of(front.search(listed))] == ["ldap://long:389/"]
    assert entries_of(front.search(probe)) == []
    assert referrals_of(front.search(scoped)) == []
    assert expired == ["ldap://short:389/"]
    assert not giis.registry.is_registered("ldap://short:389/")
    assert len(giis.registry) == len(giis.children()) == 1
    assert giis.metrics.get("grrp.registrations.active").value == 1


def test_rebirth_through_the_giis_is_counted_and_seen_by_observers():
    sim = Simulator()
    giis = vo(sim, n=0)
    seen = []
    for name in ("on_expire", "on_register"):
        fan = getattr(giis.registry, name)
        setattr(giis.registry, name, lambda r, n=name, f=fan: (seen.append(n), f(r)))
    url = "ldap://gris:389/"
    assert giis.apply_grrp(reg(url, f"hn=g, {GRID}", 0.0, ttl=30.0)).ok
    sim.run_until(31.0)  # dies unobserved
    assert giis.apply_grrp(reg(url, f"hn=g, {GRID}", 31.0, ttl=30.0)).ok
    assert seen == ["on_register", "on_expire", "on_register"]
    assert giis.metrics.counter("grrp.expired").value == 1
    assert giis.metrics.counter("grrp.rebirths").value == 1
    assert giis.metrics.counter("grrp.refreshed").value == 0
    assert giis.registry.lookup(url).refresh_count == 0

    refusing = GiisBackend(GRID, clock=sim, accept=lambda m, i: False)
    refused = refusing.apply_grrp(reg(url, f"hn=g, {GRID}", 31.0))
    assert refused.code == ResultCode.INSUFFICIENT_ACCESS_RIGHTS
    assert refused.message == "registration refused by VO membership policy"
    assert refusing.apply_grrp(unreg(url, 31.0)).ok  # nothing to refuse a stranger


# ---------------------------------------------------------------------------
# Self-monitor entry: once a second, not once a search
# ---------------------------------------------------------------------------


def test_self_monitor_entry_is_rebuilt_once_a_second_not_once_a_search():
    sim = Simulator()
    metrics = MetricsRegistry()
    giis = vo(sim, n=3, metrics=metrics)
    health = HealthModel(metrics, sim, server_id="giis-1")
    calls = [0]
    attrs = health.attrs
    health.attrs = lambda: (calls.__setitem__(0, calls[0] + 1), attrs())[1]
    giis.enable_self_monitor(health)
    front = Front(giis, clock=sim)
    req = request(GRID, Scope.SUBTREE, "(objectclass=mdsserver)")

    uptimes = set()
    for step in range(40):  # 40 searches inside one second
        sim.run_until(step * 0.025)
        (entry,) = entries_of(front.search(req))
        uptimes.add(entry.first("Mds-Server-Uptime-Seconds"))
    giis.local_entries()
    front.search(request(f"mds-server-name=giis-1, {GRID}", Scope.BASE))
    assert calls == [1] and len(uptimes) == 1
    assert front.counter("ldap.encode.cache.hits") >= 39

    sim.run_until(1.5)
    (entry,) = entries_of(front.search(req))
    assert calls == [2] and entry.first("Mds-Server-Uptime-Seconds") not in uptimes
    assert str(entry.dn) == f"mds-server-name=giis-1, {GRID}"


# ---------------------------------------------------------------------------
# Warm restart
# ---------------------------------------------------------------------------


def test_warm_restart_over_a_wal_serves_the_frames_served_before_the_kill(tmp_path):
    clock = SteppedClock()
    clock.t = 1000.0
    giis = vo(clock, n=5, storage=WalEngine(tmp_path / "reg", fsync="never"))
    clock.t = 1010.0
    giis.apply_grrp(reg("ldap://n3:389/", f"hn=n3, {GRID}", 1010.0), "cn=gris")
    giis.apply_grrp(reg("ldap://n1:389/", f"hn=elsewhere, {GRID}", 1012.0), "cn=gris")
    giis.apply_grrp(unreg("ldap://n4:389/", 1012.0))
    reqs = [
        request(GRID, Scope.ONELEVEL, "(objectclass=giisregistration)"),
        request(f"hn=n3, {GRID}", Scope.SUBTREE),
        request("regid=ldap://n1:389/, o=Grid", Scope.BASE),
    ]
    front = Front(giis, clock=clock)
    before = [front.search(req) for req in reqs]
    assert [e.timestamp() for e in entries_of(before[0])] == [1000.0, 1012.0, 1000.0, 1010.0]
    # SIGKILL: no shutdown, no flush beyond what each acknowledged append did.

    clock.t = 1020.0
    reborn = GiisBackend(GRID, clock=clock, mode="referral",
                         storage=WalEngine(tmp_path / "reg", fsync="never"))
    assert reborn.replayed_registrations == 4
    front = Front(reborn, clock=clock)
    after = [front.search(req) for req in reqs]
    for was, now in zip(before, after):  # (the WAL does not keep attribute order)
        assert entries_of(now) == entries_of(was)
        assert referrals_of(now) == referrals_of(was)
    assert reborn.registry.active_urls() == giis.registry.active_urls()
    reborn.shutdown()
    giis.shutdown()


# ---------------------------------------------------------------------------
# Readers, GRRP intake and expiry, all at once
# ---------------------------------------------------------------------------


class RecordingRegistry(SoftStateRegistry):
    """Keeps every generation the registry publishes."""

    published = None

    def __setattr__(self, name, value):
        if name == "_gen" and self.published is not None:
            self.published.append(value)
        super().__setattr__(name, value)


class OpLog(MemoryEngine):
    """A storage engine that also remembers the order of its writes."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def apply(self, op):
        self.ops.append((op.kind, op.dn))
        return super().apply(op)


def test_readers_grrp_intake_and_expiry_at_once_stay_sound():
    """Searches, ``active()``/``len()``/the gauge, one GRRP intake thread
    and a clock running past deadlines: nothing raises, every answer is
    one published generation, each death is reported once, and the log
    ends up holding exactly the live membership."""
    clock = SteppedClock()
    log = OpLog()
    giis = GiisBackend(GRID, clock=clock, mode="referral", storage=log)
    registry = giis.registry
    registry.__class__ = RecordingRegistry
    registry.published = []
    deaths = []
    fan_expire = registry.on_expire
    registry.on_expire = lambda r: (
        deaths.append((r.service_url, r.message.timestamp)), fan_expire(r)
    )
    gauge = giis.metrics.get("grrp.registrations.active")
    stop_at = time.monotonic() + 1.5
    errors, answers, short_lived = [], set(), []

    def intake(i):
        """Steady members refresh and churn; short-lived ones are left to
        die and sometimes come back.  The clock only moves here."""
        clock.t += 0.01
        now = clock.t
        k = i % 16
        if i % 7 == 3:
            giis.apply_grrp(unreg(f"ldap://steady{k}:389/", now))
        else:
            giis.apply_grrp(reg(f"ldap://steady{k}:389/", f"hn=s{k}, {GRID}", now, ttl=1e6))
        if i % 5 == 0:
            url = f"ldap://short{(i // 5) % 40}:389/"  # back after 2 s: long dead
            if giis.apply_grrp(reg(url, f"hn=short, {GRID}", now, ttl=0.3)).ok:
                short_lived.append((url, now))

    def search(i):
        entries, referrals = listing(giis)
        urls = [e.first("url") for e in entries]
        assert referrals == [
            str(LdapUrl.parse(u).with_dn(e.first("regmeta-suffix")))
            for u, e in zip(urls, entries)
        ]
        answers.add(tuple((e.first("url"), e.timestamp()) for e in entries))

    def read(i):
        active = registry.active()
        assert len({r.service_url for r in active}) == len(active)
        len(registry)
        assert not math.isnan(gauge.value)  # a gauge swallows what its callback raises

    def loop(step):
        def run():
            i = 0
            try:
                while time.monotonic() < stop_at:
                    step(i)
                    i += 1
            except Exception as exc:  # noqa: BLE001 - the assertion below
                errors.append(repr(exc))

        return threading.Thread(target=run)

    threads = [loop(step) for step in (intake, search, search, read, read)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    published = {
        tuple((r.service_url, r.message.timestamp) for r in gen.by_url.values())
        for gen in registry.published
    } | {()}  # the empty table, before the first message
    assert answers and answers <= published
    # The log, replayed in the order it was written, is the membership.
    assert set(log.entries) == {r.entry.dn for r in registry.active()}
    held = set()
    for kind, dn in log.ops:
        held.add(dn) if kind == "put" else held.discard(dn)
    assert held == set(log.entries)
    # Every short-lived registration died exactly once.
    clock.t += 10.0
    registry.sweep()
    counted = Counter(d for d in deaths if d[0].startswith("ldap://short"))
    assert len(short_lived) > 10
    assert counted == Counter(short_lived)
