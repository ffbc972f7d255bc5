"""Snapshot-once GRIS: built per refresh, shared per search, same bytes.

The GRIS builds each provider snapshot's served form once per refresh
and answers every search from it without copying.  These tests pin
what that must not change and what it must stop doing:

* a reference oracle — a test-local GRIS that copies, stamps and
  rebases every cached entry on every request and matches linearly —
  produces the same wire frames for random provider sets and requests;
* the served snapshot is never mutated, and is handed out by identity;
* a search does O(candidates) entry work, a cache hit none;
* a refresh is atomic to concurrent readers, with and without indexes;
* the server's encode cache hits on GRIS entries, and a refresh
  replaces the cells (new stamps on the wire, never stale bytes);
* a warm restart over a WAL serves the persisted stamps, each provider
  its own, and recovery keeps only whole snapshot branches;
* a GRIS without durable storage writes nothing;
* a polling subscription cancelled from its own push stops polling.

Everything here counts calls and compares bytes; nothing times.
"""

import random
import struct
import sys
import threading

import pytest

from repro.gris import FunctionProvider, GrisBackend, ProviderCache, ProviderError
from repro.gris.provider import InformationProvider
from repro.ldap.backend import Backend, ChangeType, RequestContext, SearchOutcome
from repro.ldap.dit import Scope, in_scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import compile_filter, parse as parse_filter
from repro.ldap.protocol import (
    LdapMessage,
    LdapResult,
    ResultCode,
    SearchRequest,
    SearchResultEntry,
    decode_message,
    encode_message,
)
from repro.ldap.server import LdapServer
from repro.ldap.storage import WAL_HEADER, ChangeOp, MemoryEngine, WalEngine
from repro.net.clock import Clock, TimerHandle
from repro.net.sim import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.security.acl import attribute_restricted_policy, open_policy

from .test_conclude_once import FakeConn

SUFFIX = "o=Site, o=Grid"


# ---------------------------------------------------------------------------
# Harness: frames are captured off a connection double, without sockets
# ---------------------------------------------------------------------------


class Front:
    """An LdapServer (inline executor) over *backend*, one connection."""

    def __init__(self, backend, policy=None, clock=None):
        self.server = LdapServer(backend, policy=policy, clock=clock)
        self.conn = FakeConn()
        self.server.handle_connection(self.conn)
        self._msg_id = 0

    def search(self, req):
        """The frames the server answers *req* with."""
        self._msg_id += 1
        self.conn.receiver(encode_message(LdapMessage(self._msg_id, req)))
        frames, self.conn.sent = self.conn.sent, []
        return frames

    def counter(self, name):
        return int(self.server.metrics.counter(name).value)


def entries_of(frames):
    """The SearchResultEntry frames, decoded back to entries."""
    ops = (decode_message(frame).op for frame in frames)
    return [op.to_entry() for op in ops if isinstance(op, SearchResultEntry)]


def request(base=SUFFIX, scope=Scope.SUBTREE, filt="(objectclass=*)", **kw):
    return SearchRequest(base=base, scope=scope, filter=parse_filter(filt), **kw)


# ---------------------------------------------------------------------------
# The reference oracle: today's semantics, yesterday's cost
# ---------------------------------------------------------------------------


class ReferenceGris(Backend):
    """Copies, stamps and rebases every cached entry on every request.

    Independent of :mod:`repro.gris.cache` and of indexing: its own
    TTL table, a first-wins dict merge, a linear filter pass.
    """

    def __init__(self, suffix, clock):
        self.suffix = DN.of(suffix)
        self.clock = clock
        self.providers = []
        self.suffix_entry = None
        self.slots = {}  # provider name -> (entries as provided, produced_at)

    def _cached(self, provider):
        ttl = provider.cache_ttl
        slot = self.slots.get(provider.name)
        if slot is None or ttl <= 0 or self.clock.now() - slot[1] > ttl:
            try:
                slot = self.slots[provider.name] = (provider.provide(), self.clock.now())
            except ProviderError:
                if slot is None:
                    return None  # skip the failed source
        raw, produced_at = slot
        out = []
        for entry in raw:
            served = entry.copy()
            served.stamp(now=produced_at, ttl=ttl if ttl > 0 else None)
            out.append(served.with_dn(DN(entry.dn.rdns + self.suffix.rdns)))
        return out

    def _intersects(self, provider, base, scope):
        pbase = DN(provider.namespace.rdns + self.suffix.rdns)
        if scope == Scope.BASE:
            return base.is_within(pbase)
        return pbase.is_within(base) or base.is_within(pbase)

    def _search_impl(self, req, ctx):
        base = req.base_dn()
        if not (base.is_within(self.suffix) or self.suffix.is_within(base)):
            return SearchOutcome(
                result=LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=str(self.suffix))
            )
        merged = {}
        if self.suffix_entry is not None:
            merged[self.suffix] = self.suffix_entry.with_dn(self.suffix)
        for provider in self.providers:
            if not self._intersects(provider, base, req.scope):
                continue
            entries = provider.search(req, self.suffix)
            if entries is None:
                entries = self._cached(provider)
            for entry in entries or ():
                merged.setdefault(entry.dn, entry)
        match = compile_filter(req.filter)
        found = [
            e for e in merged.values() if in_scope(e.dn, base, req.scope) and match(e)
        ]
        if req.scope == Scope.BASE and not found:
            return SearchOutcome(
                result=LdapResult(ResultCode.NO_SUCH_OBJECT, matched_dn=req.base)
            )
        found.sort(key=lambda e: e.dn.sort_key)
        return SearchOutcome(entries=found)


class PairsProvider(InformationProvider):
    """Filter-aware: answers each request itself, never through the cache."""

    def __init__(self):
        super().__init__("pairs", namespace="net=pairs")

    def search(self, req, suffix):
        self._invoked()
        return [
            Entry(f"link=l{i}, net=pairs, {suffix}", objectclass="link", hn=f"h{i}",
                  rtt=str(self.invocations))
            for i in range(2)
        ]


def make_providers(with_direct):
    """One fresh provider set; content is a function of invocation count,
    so two GRISes refreshing in lockstep see the same data."""

    def hosts(p):
        out = []
        for h in range(6):
            out.append(Entry(f"hn=h{h}", objectclass="computer", hn=f"h{h}",
                             cpu="x86" if h % 2 else "sparc",
                             load5=str(p.invocations + h)))
            for d in range(2):
                out.append(Entry(f"dev=d{d}, hn=h{h}", objectclass="device",
                                 dev=f"d{d}", hn=f"h{h}"))
        return out

    def live(p):
        return [
            Entry("hn=live", objectclass="computer", hn="live", cpu="x86",
                  load5=str(p.invocations)),
            Entry("dev=d0, hn=live", objectclass="device", dev="d0", hn="live"),
        ]

    def overlap(p):
        # hn=h1 is also named by "hosts" (registered first: it wins);
        # hn=h9 comes and goes with the generation.
        out = [
            Entry("hn=h1", objectclass="computer", hn="h1", cpu="shadowed"),
            Entry("hn=extra", objectclass="computer", hn="extra", cpu="x86"),
        ]
        if p.invocations % 2:
            out.append(Entry("hn=h9", objectclass="computer", hn="h9", cpu="sparc"))
        return out

    def broken(p):
        raise RuntimeError("always down")

    def flaky(p):
        if p.invocations > 1:
            raise RuntimeError("down after the first answer")
        return [Entry("hn=flaky", objectclass="computer", hn="flaky", cpu="x86")]

    specs = [
        ("hosts", hosts, "", 30.0),
        ("live", live, "hn=live", 0.0),
        ("overlap", overlap, "", 10.0),
        ("broken", broken, "hn=broken", 5.0),
        ("flaky", flaky, "hn=flaky", 7.0),
    ]
    providers = []
    for name, fn, namespace, ttl in specs:
        provider = FunctionProvider(name, None, namespace=namespace, cache_ttl=ttl)
        provider._fn = lambda p=provider, fn=fn: fn(p)
        providers.append(provider)
    if with_direct:
        providers.append(PairsProvider())
    return providers


BASES = [
    SUFFIX, SUFFIX, "", "o=Grid", f"hn=h1, {SUFFIX}", f"hn=live, {SUFFIX}",
    f"dev=d0, hn=h2, {SUFFIX}", f"hn=nope, {SUFFIX}", "o=Elsewhere",
    f"net=pairs, {SUFFIX}", f"hn=flaky, {SUFFIX}",
]
FILTERS = [
    # index-answerable with hn and cpu indexed (objectclass always is)
    "(objectclass=*)", "(hn=h1)", "(objectclass=computer)", "(cpu=*)",
    "(&(objectclass=device)(hn=h2))", "(|(hn=h1)(hn=extra)(hn=h9))", "(cpu=shadowed)",
    "(cpu=x86)",  # hn=h1 matches through "hosts", not through the "overlap" that shadows it
    # not index-answerable
    "(hn=h*)", "(!(cpu=x86))", "(load5>=3)", "(dev=d0)",
]
ATTRS = [(), (), ("hn",), ("hn", "load5", "mds-timestamp"), ("*",), ("nosuch",)]
RESTRICTED = ["objectclass", "hn", "dev", "cpu", "o"]


def random_request(rng):
    return request(
        base=rng.choice(BASES),
        scope=rng.choice([Scope.BASE, Scope.ONELEVEL, Scope.SUBTREE, Scope.SUBTREE]),
        filt=rng.choice(FILTERS),
        attributes=rng.choice(ATTRS),
        types_only=rng.random() < 0.2,
        size_limit=rng.choice([0, 0, 0, 1, 3]),
    )


def build_pair(sim, index_attrs, with_direct, with_suffix_entry):
    gris = GrisBackend(SUFFIX, clock=sim, index_attrs=index_attrs)
    reference = ReferenceGris(SUFFIX, sim)
    for provider in make_providers(with_direct):
        gris.add_provider(provider)
    reference.providers = make_providers(with_direct)
    if with_suffix_entry:
        site = Entry(SUFFIX, objectclass="organization", o="Site")
        gris.set_suffix_entry(site)
        reference.suffix_entry = site
    return gris, reference


@pytest.mark.parametrize("index_attrs", [None, ("hn", "cpu")], ids=["linear", "indexed"])
@pytest.mark.parametrize("restricted", [False, True], ids=["open", "acl"])
@pytest.mark.parametrize("seed", range(6))
def test_wire_frames_equal_the_copying_reference(seed, restricted, index_attrs):
    rng = random.Random(seed)
    sim = Simulator()
    gris, reference = build_pair(
        sim, index_attrs, with_direct=seed % 3 == 0, with_suffix_entry=seed % 2 == 0
    )

    def policy():
        if restricted:
            return attribute_restricted_policy(RESTRICTED, ["load5"], ["cn=ops"])
        return open_policy()

    ours = Front(gris, policy(), clock=sim)
    theirs = Front(reference, policy(), clock=sim)
    answered = 0
    for _ in range(60):
        sim.run_until(sim.now() + rng.choice([0, 0, 0.5, 3, 12, 40]))
        req = random_request(rng)
        got, expected = ours.search(req), theirs.search(req)
        assert got == expected, req
        answered += len(got) - 1
    assert answered > 30  # the series did return entries
    if index_attrs and seed % 3:
        assert gris._search_indexed.value > 0  # and did plan some of them


# ---------------------------------------------------------------------------
# Immutability and sharing
# ---------------------------------------------------------------------------


def site_gris(clock, hosts=4, devices=3, index_attrs=("hn",), ttl=1000.0, **kw):
    """One cached provider of hosts x (1 + devices) entries."""
    gris = GrisBackend(SUFFIX, clock=clock, index_attrs=index_attrs, **kw)
    gris.set_suffix_entry(Entry(SUFFIX, objectclass="organization", o="Site"))

    def site():
        out = []
        for h in range(hosts):
            out.append(Entry(f"hn=h{h}", objectclass="computer", hn=f"h{h}", cpu="x86",
                             load5=str(h)))
            out.extend(
                Entry(f"dev=d{d}, hn=h{h}", objectclass="device", dev=f"d{d}", hn=f"h{h}")
                for d in range(devices)
            )
        return out

    provider = FunctionProvider("site", site, cache_ttl=ttl)
    gris.add_provider(provider)
    return gris, provider


def frozen(source):
    """A pristine deep copy of a served source: order, DNs, attributes."""
    return [(str(dn), list(entry.items())) for dn, entry in source.by_dn.items()]


def test_served_snapshot_survives_a_mixed_series_untouched():
    sim = Simulator()
    gris, provider = site_gris(sim)
    gris._search_impl(request(), RequestContext())  # the one refresh
    served = gris._served["site"]
    pristine = frozen(served)
    identities = list(served.by_dn.values())

    rng = random.Random(1)
    fronts = [
        Front(gris, open_policy(), clock=sim),
        Front(gris, attribute_restricted_policy(RESTRICTED, ["load5"]), clock=sim),
    ]
    pushed = []
    gris.subscribe(request(filt="(objectclass=computer)"), RequestContext(),
                   lambda entry, change: pushed.append(entry))
    for _ in range(80):
        rng.choice(fronts).search(random_request(rng))
        sim.run_until(sim.now() + rng.choice([0, 1, 6]))  # psearch ticks every 5 s
    assert len(gris.snapshot()) == 17  # diagnostics read, never write

    assert provider.invocations == 1
    assert gris._served["site"] is served
    assert list(served.by_dn.values()) == identities
    assert all(a is b for a, b in zip(served.by_dn.values(), identities))
    assert frozen(served) == pristine
    assert pushed == []  # nothing changed, so nothing was pushed


def test_two_searches_in_one_ttl_hand_out_the_same_objects():
    sim = Simulator()
    gris, _ = site_gris(sim)
    runs = []
    for _ in range(2):
        seen = []
        done = []
        gris.submit_search_stream(
            request(filt="(hn=h2)"), RequestContext(), seen.append, done.append
        )
        assert done[0].result.ok and len(seen) == 4
        runs.append(seen)
        sim.run_until(sim.now() + 10)
    assert all(a is b for a, b in zip(*runs))
    assert all(e.dn.is_within(DN.of(SUFFIX)) for e in runs[0])


def test_pushed_entries_are_private_copies():
    sim = Simulator()
    state = {"load": "1"}
    gris = GrisBackend(SUFFIX, clock=sim)
    gris.add_provider(FunctionProvider(
        "p", lambda: [Entry("hn=h0", objectclass="computer", load5=state["load"])],
        cache_ttl=3.0))
    pushed = []
    gris.subscribe(request(), RequestContext(), lambda e, c: pushed.append((c, e)))
    state["load"] = "2"
    sim.run_until(11.0)
    assert [c for c, _ in pushed] == [ChangeType.MODIFY]
    _, entry = pushed[0]
    assert entry.first("load5") == "2"
    entry.put("load5", "tampered")
    current = gris._search_impl(request(), RequestContext()).entries[0]
    assert current is not entry and current.first("load5") == "2"


# ---------------------------------------------------------------------------
# Work bound: per-search entry work is O(candidates), a cache hit is O(1)
# ---------------------------------------------------------------------------


@pytest.fixture
def entry_work(monkeypatch):
    """Counts Entry.copy / with_dn / stamp calls."""
    calls = {"copy": 0, "with_dn": 0, "stamp": 0}
    for name in calls:
        original = getattr(Entry, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Entry, name, counting)
    return calls


def test_planned_lookup_touches_only_its_matches(entry_work):
    sim = Simulator()
    gris, provider = site_gris(sim, hosts=25, devices=19)  # 500 entries, 20 per host
    warm = gris._search_impl(request(filt="(hn=h3)"), RequestContext())
    assert len(warm.entries) == 20 and len(gris._served["site"].by_dn) == 500
    built = dict(entry_work)
    assert built["stamp"] == 500  # once per refresh, not per search

    for calls in entry_work:
        entry_work[calls] = 0
    out = gris._search_impl(request(filt="(hn=h7)"), RequestContext())
    assert len(out.entries) == 20 and gris._search_indexed.value == 2
    assert entry_work == {"copy": 0, "with_dn": 0, "stamp": 0}

    # Through the front end: the transparent lane adds nothing, the ACL
    # lane builds its own visible entries and projects the matches only.
    assert len(Front(gris, clock=sim).search(request(filt="(hn=h7)"))) == 21
    assert entry_work == {"copy": 0, "with_dn": 0, "stamp": 0}
    acl = Front(gris, attribute_restricted_policy(RESTRICTED, ["load5"]), clock=sim)
    assert len(acl.search(request(filt="(hn=h7)"))) == 21
    assert sum(entry_work.values()) <= 20 + 1
    assert provider.invocations == 1


def test_cache_hit_does_no_entry_work(entry_work):
    cache = ProviderCache()
    provider = FunctionProvider(
        "p", lambda: [Entry(f"cn=x{i}", cn=f"x{i}") for i in range(50)], cache_ttl=30.0
    )
    first, produced_at = cache.get(provider, now=1.0)
    assert entry_work["stamp"] == 50
    for name in entry_work:
        entry_work[name] = 0
    again, same_time = cache.get(provider, now=20.0)
    assert again is first and same_time == produced_at == 1.0
    assert entry_work == {"copy": 0, "with_dn": 0, "stamp": 0}
    assert cache.stats.hits == 1


def test_polling_ticks_settle_unchanged_entries_by_identity(entry_work, monkeypatch):
    compares = [0]
    original = Entry.same_attrs

    def counting(self, other, ignoring=()):
        compares[0] += 1
        return original(self, other, ignoring)

    monkeypatch.setattr(Entry, "same_attrs", counting)
    sim = Simulator()
    pushed = []

    # One TTL for the whole run: every tick sees the same shared objects.
    gris, provider = site_gris(sim, ttl=1000.0)
    gris.subscribe(request(), RequestContext(), lambda e, c: pushed.append(c))
    for name in entry_work:
        entry_work[name] = 0
    sim.run_until(52.0)  # ten ticks
    assert provider.invocations == 1 and pushed == []
    assert compares == [0] and entry_work == {"copy": 0, "with_dn": 0, "stamp": 0}

    # A TTL shorter than the poll interval: every tick sees a new
    # generation with the same payload and new stamps; payloads are
    # compared in place (no copies beyond the refresh's own) and match.
    gris, provider = site_gris(sim, ttl=3.0)
    gris.subscribe(request(), RequestContext(), lambda e, c: pushed.append(c))
    for name in entry_work:
        entry_work[name] = 0
    sim.run_until(sim.now() + 26.0)  # five ticks, five refreshes of 16 entries
    assert provider.invocations == 6 and pushed == []
    assert compares == [5 * 16]
    assert entry_work["stamp"] == 5 * 16 and entry_work["with_dn"] == 5 * 16


def test_a_push_that_cancels_its_own_subscription_stops_the_polling():
    sim = Simulator()
    state = {"load": "1"}
    gris = GrisBackend(SUFFIX, clock=sim)
    gris.add_provider(FunctionProvider(
        "p",
        lambda: [Entry(f"hn=h{i}", objectclass="computer", load5=state["load"])
                 for i in range(2)],
        cache_ttl=3.0))
    pushed = []

    def push(entry, change):
        pushed.append(change)
        subscription.cancel()

    subscription = gris.subscribe(request(), RequestContext(), push)
    state["load"] = "2"  # both entries change; the first push cancels
    sim.run_until(60.0)
    assert pushed == [ChangeType.MODIFY]  # nothing goes out after the cancel
    assert gris.subscription_count() == 0
    assert sim.pending() == 0  # and no poll stays armed


# ---------------------------------------------------------------------------
# Refresh atomicity under concurrent readers
# ---------------------------------------------------------------------------


class SteppedClock(Clock):
    """now() is whatever the test last set; timers never fire."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def call_later(self, delay, fn):
        return TimerHandle(lambda: None)


@pytest.mark.parametrize("index_attrs", [None, ("gen",)], ids=["linear", "indexed"])
def test_refresh_is_atomic_to_concurrent_searches(index_attrs):
    """Generations A (hosts 0-39) and B (hosts 20-59) alternate across TTL
    expiries while workers search: every answer is all-A or all-B."""
    spans = {"A": range(0, 40), "B": range(20, 60)}
    complete = {
        gen: {f"hn=h{i}, {SUFFIX}" for i in hosts} for gen, hosts in spans.items()
    }
    clock = SteppedClock()
    gris = GrisBackend(SUFFIX, clock=clock, index_attrs=index_attrs, provider_workers=2)
    provider = FunctionProvider("flip", None, cache_ttl=1.0)

    def flip():
        gen = "AB"[provider.invocations % 2]
        return [
            Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}", gen=gen)
            for i in spans[gen]
        ]

    provider._fn = flip
    gris.add_provider(provider)
    # a second provider, so collects fan out on the provider pool
    gris.add_provider(FunctionProvider(
        "other", lambda: [Entry("sw=s0", objectclass="switch")], cache_ttl=1.0))

    stop = threading.Event()
    errors = []
    answers = [0]

    def reader(filt):
        req = request(filt=filt)
        while not stop.is_set():
            found = gris._search_impl(req, RequestContext()).entries
            gens = {e.first("gen") for e in found}
            dns = {str(e.dn) for e in found}
            if len(gens) != 1 or dns != complete[next(iter(gens))]:
                errors.append((filt, sorted(gens), len(dns)))
                return
            answers[0] += 1

    # index-answerable (objectclass) and not (substring): both lanes
    filters = ["(objectclass=computer)", "(hn=h*)", "(gen=*)"]
    workers = [threading.Thread(target=reader, args=(f,), daemon=True) for f in filters * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for _ in range(150):  # 150 TTL expiries
            clock.t += 2.0
            gris._search_impl(request(filt="(gen=*)"), RequestContext())
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        gris.shutdown(wait=False)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert provider.invocations >= 150 and answers[0] > 0


# ---------------------------------------------------------------------------
# Encode lane: GRIS entries hit the server's cache; a refresh replaces cells
# ---------------------------------------------------------------------------


def test_encode_cache_serves_gris_entries_and_a_refresh_replaces_the_cells():
    sim = Simulator()
    sim.run_until(100.0)
    gris, provider = site_gris(sim, ttl=30.0)
    front = Front(gris, clock=sim)
    req = request(filt="(hn=h1)")

    front.search(req)
    assert front.counter("ldap.encode.cache.misses") == 4
    assert front.counter("ldap.encode.cache.hits") == 0
    front.search(req)
    second = front.search(req)
    assert front.counter("ldap.encode.cache.hits") == 8
    assert front.counter("ldap.encode.cache.uncached") == 0
    assert [e.timestamp() for e in entries_of(second)] == [100.0] * 4
    old_cells = [e._wire for e in gris._served["site"].by_dn.values()]
    assert all(cell is not None for cell in old_cells)

    sim.run_until(140.0)  # past the TTL: the next search refreshes
    third = front.search(req)
    assert provider.invocations == 2
    fresh = entries_of(third)
    assert [e.timestamp() for e in fresh] == [140.0] * 4
    assert [e.valid_to() for e in fresh] == [170.0] * 4
    new_cells = [e._wire for e in gris._served["site"].by_dn.values()]
    assert not set(map(id, old_cells)) & set(map(id, new_cells))
    # and the cached bytes equal a from-scratch encode of the served entries
    expected = gris._search_impl(req, RequestContext()).entries
    assert [
        encode_message(LdapMessage(front._msg_id, SearchResultEntry.from_entry(e)))
        for e in expected
    ] == third[:-1]


# ---------------------------------------------------------------------------
# Durability: warm restart serves the persisted snapshots, one branch each
# ---------------------------------------------------------------------------

BRANCH = "gris-view-provider=site"


def hosts(n=5, **attrs):
    return lambda: [
        Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}", **attrs) for i in range(n)
    ]


def wal_gris(path, clock, ttl=300.0, fn=hosts()):
    metrics = MetricsRegistry()
    gris = GrisBackend(SUFFIX, clock=clock, index_attrs=("hn",), metrics=metrics,
                       storage=WalEngine(path, metrics=metrics))
    provider = FunctionProvider("site", fn, cache_ttl=ttl)
    gris.add_provider(provider)
    return gris, provider


def stored(gris):
    """What the engine holds, by DN text: what a restart recovers from."""
    return {str(dn): entry for dn, entry in gris.storage.entries.items()}


def test_warm_restart_serves_the_persisted_stamps_and_plans(tmp_path):
    clock = SteppedClock()
    clock.t = 1000.0
    gris, provider = wal_gris(tmp_path / "view", clock)
    before = Front(gris, clock=clock).search(request(filt="(hn=h3)"))
    assert provider.invocations == 1
    assert [e.timestamp() for e in entries_of(before)] == [1000.0]
    held = stored(gris)
    assert held[BRANCH].is_a("grissnapshot") and held[BRANCH].first("viewversion") == "1000.0"
    assert sorted(held) == sorted([BRANCH] + [f"hn=h{i}, {SUFFIX}, {BRANCH}" for i in range(5)])
    gris.shutdown()

    clock.t = 1100.0  # the process was down for a while; the data is 100 s old
    reborn, provider = wal_gris(tmp_path / "view", clock)
    assert reborn.recovered_providers == 1
    appends = reborn.metrics.counter("storage.wal.appends").value
    front = Front(reborn, clock=clock)
    after = front.search(request(filt="(hn=h3)"))
    assert entries_of(after) == entries_of(before)  # (the WAL does not keep attribute order)
    assert [e.valid_to() for e in entries_of(after)] == [1300.0]
    assert provider.invocations == 0  # served from the recovered snapshot
    assert reborn._search_indexed.value == 1
    assert reborn.metrics.counter("storage.wal.appends").value == appends  # no resync
    front.search(request(filt="(hn=h3)"))
    assert front.counter("ldap.encode.cache.hits") == 1

    clock.t = 1400.0  # TTL lapsed: the normal refresh cycle takes over
    fresh = entries_of(front.search(request(filt="(hn=h3)")))
    assert provider.invocations == 1
    assert [e.timestamp() for e in fresh] == [1400.0]
    assert reborn.metrics.counter("storage.wal.appends").value > appends
    reborn.remove_provider("site")
    assert stored(reborn) == {} and "site" not in reborn._served  # entries and marker gone
    reborn.shutdown()


def test_durable_overlap_recovers_each_providers_own_entries(tmp_path):
    """Providers a and b both name hn=x, and a wins.  After a restart b's
    recovered snapshot holds b's entry, so once a drops hn=x the merge
    serves b's, not a stale copy of a's."""
    clock = SteppedClock()
    clock.t = 1000.0
    a_names_x = [True]

    def start():
        gris = GrisBackend(SUFFIX, clock=clock, index_attrs=("hn",),
                           storage=WalEngine(tmp_path / "view"))
        providers = {}
        for name, ttl in (("a", 10.0), ("b", 300.0)):
            def fn(name=name):
                if name == "a" and not a_names_x[0]:
                    return []
                return [Entry("hn=x", objectclass="computer", hn="x", role=name)]

            providers[name] = FunctionProvider(name, fn, cache_ttl=ttl)
            gris.add_provider(providers[name])
        return gris, providers

    def roles(gris):
        found = gris._search_impl(request(filt="(hn=x)"), RequestContext()).entries
        return [e.first("role") for e in found]

    gris, _ = start()
    assert roles(gris) == ["a"]
    gris.shutdown()

    a_names_x[0] = False
    clock.t = 1050.0  # a's snapshot lapsed while the process was down; b's did not
    reborn, providers = start()
    assert reborn.recovered_providers == 2
    assert roles(reborn) == ["b"]
    assert providers["a"].invocations == 1 and providers["b"].invocations == 0
    reborn.shutdown()


def test_recovery_deletes_a_malformed_branch_and_the_mirrored_layout(tmp_path):
    """A branch whose marker is unreadable, and what a mirrored view left
    (a ``grisviewmeta`` marker listing ``viewdn``, entries at served
    DNs), are deleted at recovery; their providers re-probe."""
    engine = WalEngine(tmp_path / "view")
    for entry in (
        Entry(f"hn=h0, {SUFFIX}", objectclass="computer", hn="h0"),
        Entry(BRANCH, attrs={"gris-view-provider": "site", "objectclass": "grisviewmeta",
                             "viewversion": "900.0", "viewdn": f"hn=h0, {SUFFIX}"}),
        Entry(f"hn=o1, {SUFFIX}, gris-view-provider=other", objectclass="computer", hn="o1"),
        Entry("gris-view-provider=other", attrs={
            "gris-view-provider": "other", "objectclass": "grissnapshot",
            "viewversion": "not a time"}),
    ):
        engine.apply(ChangeOp.put(entry))
    engine.close()

    clock = SteppedClock()
    clock.t = 1000.0
    gris, site = wal_gris(tmp_path / "view", clock)
    other = FunctionProvider(
        "other", lambda: [Entry("hn=o1", objectclass="computer", hn="o1")],
        namespace="hn=o1", cache_ttl=300.0)
    gris.add_provider(other)
    assert gris.recovered_providers == 0 and gris._served == {}
    assert stored(gris) == {}

    found = gris._search_impl(request(filt="(objectclass=computer)"), RequestContext())
    assert site.invocations == 1 and other.invocations == 1
    assert len(found.entries) == 6
    assert len(stored(gris)) == 1 + 5 + 1 + 1  # two whole branches
    gris.shutdown()


def test_a_crash_mid_refresh_recovers_one_generation_whole_or_none(tmp_path):
    """Cut the log after every record a refresh appends: each restart
    serves the old generation whole, the new one whole, or re-probes."""
    clock = SteppedClock()
    clock.t = 1000.0
    generation = [1]

    def site():
        gen = generation[0]
        span = range(0, 5) if gen == 1 else range(2, 7)
        return [Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}", gen=str(gen))
                for i in span]

    path = tmp_path / "view"
    gris, _ = wal_gris(path, clock, ttl=10.0, fn=site)
    gris._search_impl(request(), RequestContext())
    settled = (path / "wal.log").stat().st_size
    generation[0] = 2
    clock.t = 1020.0
    gris._search_impl(request(), RequestContext())
    gris.shutdown()
    raw = (path / "wal.log").read_bytes()

    whole = {
        1000.0: {f"hn=h{i}, {SUFFIX}" for i in range(0, 5)},
        1020.0: {f"hn=h{i}, {SUFFIX}" for i in range(2, 7)},
    }
    cuts = [settled]
    while cuts[-1] < len(raw):
        length, _crc = struct.unpack_from("<II", raw, cuts[-1])
        cuts.append(cuts[-1] + WAL_HEADER + length)
    outcomes = []
    for cut in cuts:
        crashed = tmp_path / f"cut{cut}"
        crashed.mkdir()
        (crashed / "wal.log").write_bytes(raw[:cut])
        reborn, _ = wal_gris(crashed, clock, ttl=10.0, fn=site)
        served = reborn._served.get("site")
        if served is None:
            assert stored(reborn) == {}
            outcomes.append(None)
        else:
            gens = {e.first("gen") for e in served.by_dn.values()}
            assert {str(dn) for dn in served.by_dn} == whole[served.produced_at]
            assert gens == {"1" if served.produced_at == 1000.0 else "2"}
            outcomes.append(served.produced_at)
        reborn.shutdown()
    assert outcomes[0] == 1000.0 and outcomes[-1] == 1020.0
    assert None in outcomes
    assert len(cuts) == 1 + 1 + 2 + 5 + 1  # marker out, 2 dropped, 5 puts, marker in


def test_a_gris_without_durable_storage_writes_nothing():
    class CountingEngine(MemoryEngine):
        def __init__(self):
            super().__init__()
            self.ops = []

        def apply(self, op):
            self.ops.append(op)
            return super().apply(op)

    sim = Simulator()
    engine = CountingEngine()
    gris, _ = site_gris(sim, ttl=5.0, storage=engine)
    for _ in range(3):
        gris._search_impl(request(filt="(hn=h1)"), RequestContext())
        sim.run_until(sim.now() + 10)  # each search refreshes
    assert len(gris._served["site"].by_dn) == len(gris._served["site"].index) == 16
    assert gris._search_indexed.value == 3
    gris.remove_provider("site")
    assert "site" not in gris._served
    assert engine.ops == [] and engine.entries == {}
