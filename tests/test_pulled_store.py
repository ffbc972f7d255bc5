"""One pulled store, derived views: same answers as the stores it replaced.

``PullIndex`` keeps the entries of each provider's latest pull in one
map; the relational and matchmaker directories derive their tables and
ads from it, and ``NameIndex`` ranks by ``Registration.seq``.  These
tests pin what that must not change and what it fixes:

* a reference oracle — the per-directory stores deleted from ``src/``
  (``store``/``evict`` over private tables and ads, ``_order``/``_tick``
  in the name index), kept here — gives the same tables, rows in the
  same order, worked join, ads and name answers as the derived views,
  after every step of random register / refresh / rename / unregister /
  expiry / rebirth / re-pull histories over providers that share DNs;
* a pull answered after its provider left, expired or was reborn is not
  kept (§4.3: nothing could ever evict it);
* follow-up and periodic pulls search the namespace the provider
  advertises now, not the one it first registered.

Two behaviours of the deleted stores are artefacts of mutating in place
and are deliberately not kept; the comparison names each where it makes
the allowance.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.giis import MatchmakerDirectory, NameIndex, RelationalDirectory
from repro.giis.core import GiisBackend, GiisIndex
from repro.giis.matchmaker import ClassAd, _host_component
from repro.giis.relational import Row, Table
from repro.grip.messages import GrrpMessage
from repro.grip.registry import Registration
from repro.ldap.attributes import CASE_EXACT
from repro.ldap.backend import DitBackend
from repro.ldap.client import SearchResult
from repro.ldap.dit import DIT, Scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.index import AttributeIndex
from repro.ldap.protocol import SearchRequest
from repro.ldap.server import LdapServer
from repro.ldap.url import LdapUrl
from repro.net.links import LinkModel
from repro.net.sim import Simulator
from repro.net.simnet import SimNetwork

from .test_giis_snapshot import unreg

GRID = "o=Grid"
LATENCY = 0.001


def reg(url, suffix, ts, ttl=60.0, name=None):
    metadata = {"suffix": suffix}
    if name is not None:
        metadata["name"] = name
    return GrrpMessage(url, timestamp=ts, valid_until=ts + ttl, metadata=metadata)


# ---------------------------------------------------------------------------
# The reference oracle: one private store per directory
# ---------------------------------------------------------------------------


class StoringPullIndex(GiisIndex):
    """The base the deleted stores plugged into: every answer is handed
    to ``store`` and every departure to ``evict``.  It carries the two
    fixes of this change (an answer nobody is registered for is dropped;
    pulls follow the advertised namespace) so the stores can be compared
    over the same histories."""

    def __init__(self, filter_text="(objectclass=*)", refresh_interval=None):
        self.filter_text = filter_text
        self.refresh_interval = refresh_interval
        self.giis: Optional[GiisBackend] = None
        self.pulls = 0
        self.pull_failures = 0
        self._timers: Dict[str, object] = {}
        self._asked: Dict[str, str] = {}

    def attach(self, giis):
        self.giis = giis

    def store(self, registration: Registration, entries: List[Entry]) -> None:
        raise NotImplementedError

    def evict(self, registration: Registration) -> None:
        raise NotImplementedError

    def on_register(self, registration):
        self.pull(registration)
        self._schedule_refresh(registration.service_url)

    def on_refresh(self, registration):
        if self._asked.get(registration.service_url) not in (None, registration.suffix_text):
            self.pull(registration)

    def on_expire(self, registration):
        timer = self._timers.pop(registration.service_url, None)
        if timer is not None:
            timer.cancel()
        self._asked.pop(registration.service_url, None)
        self.evict(registration)

    def pull(self, registration):
        url = registration.service_url
        self._asked[url] = registration.suffix_text
        client = self.giis._client_for(url)
        if client is None:
            self.pull_failures += 1
            return
        req = SearchRequest(
            base=registration.suffix_text,
            scope=Scope.SUBTREE,
            filter=parse_filter(self.filter_text),
        )
        self.pulls += 1

        def on_done(result: SearchResult, _error=None) -> None:
            live = self.giis.registry.lookup(url)
            if (
                not result.result.ok
                or live is None
                or live.seq != registration.seq
                or live.suffix_text != registration.suffix_text
            ):
                self.pull_failures += 1
                return
            self.store(registration, result.entries)

        client.search_async(req, on_done)

    def _schedule_refresh(self, url):
        if self.refresh_interval is None:
            return

        def tick():
            current = self.giis.registry.lookup(url)
            if current is None:
                self._timers.pop(url, None)
                return
            self.pull(current)
            self._timers[url] = self.giis.clock.call_later(self.refresh_interval, tick)

        self._timers[url] = self.giis.clock.call_later(self.refresh_interval, tick)


class ReferenceRelational(StoringPullIndex):
    """Shreds each pull into per-objectclass tables at store time and
    filters a provider's rows back out at evict time."""

    def __init__(self, filter_text="(objectclass=*)", refresh_interval=None):
        super().__init__(filter_text, refresh_interval)
        self._tables: Dict[str, Table] = {}
        self._by_provider: Dict[str, List[Tuple[str, Row]]] = {}

    def store(self, registration, entries):
        self.evict(registration)
        placed: List[Tuple[str, Row]] = []
        for entry in entries:
            row: Row = {"dn": str(entry.dn), "provider": registration.service_url}
            for attr, values in entry.items():
                row[attr.lower()] = values[0]
            for oc in entry.object_classes:
                table = self._tables.setdefault(oc.lower(), Table(oc.lower()))
                table.rows.append(dict(row))
                placed.append((oc.lower(), row))
        self._by_provider[registration.service_url] = placed

    def evict(self, registration):
        placed = self._by_provider.pop(registration.service_url, ())
        if not placed:
            return
        url = registration.service_url
        for name in {t for t, _ in placed}:
            table = self._tables.get(name)
            if table is not None:
                table.rows = [r for r in table.rows if r.get("provider") != url]

    def refresh_all(self):
        for registration in self.giis.registry.active():
            self.pull(registration)

    def table(self, objectclass):
        return self._tables.get(objectclass.lower(), Table(objectclass.lower()))

    def tables(self):
        return sorted(self._tables)

    def row_count(self):
        return sum(len(t) for t in self._tables.values())

    # The worked join reads only table(); run the shipped one over these tables.
    idle_computers_on_idle_networks = RelationalDirectory.idle_computers_on_idle_networks


class ReferenceMatchmaker(StoringPullIndex):
    """Builds one provider's ads at store time; dedupes by DN per call."""

    def __init__(self, refresh_interval=None):
        super().__init__("(objectclass=*)", refresh_interval)
        self._ads: Dict[str, Dict[str, ClassAd]] = {}  # provider -> dn -> ad

    def store(self, registration, entries):
        ads: Dict[str, ClassAd] = {}
        hosts: Dict[str, ClassAd] = {}
        for entry in entries:
            if entry.is_a("computer"):
                ad = ClassAd.from_entry(entry, provider=registration.service_url)
                ads[str(entry.dn)] = ad
                host = entry.first("hn")
                if host:
                    hosts[host.lower()] = ad
        for entry in entries:
            if entry.is_a("computer"):
                continue
            host = _host_component(entry)
            if host is None:
                continue
            ad = hosts.get(host.lower())
            if ad is None:
                continue
            for attr, values in entry.items():
                if attr.lower() not in ("objectclass",):
                    ad.attrs.setdefault(attr.lower(), values[0])
        # Not kept: the deleted store overwrote in place, so a re-pulled
        # provider kept its slot here while the relational store moved it
        # last.  One store has one order, the relational one; the pop
        # makes this reference say so.  It only decides which copy of a
        # machine reachable through two providers is offered.
        self._ads.pop(registration.service_url, None)
        self._ads[registration.service_url] = ads

    def evict(self, registration):
        self._ads.pop(registration.service_url, None)

    def machine_ads(self):
        by_dn: Dict[str, ClassAd] = {}
        for ads in self._ads.values():
            for dn, ad in ads.items():
                by_dn.setdefault(dn, ad)
        return list(by_dn.values())


class ReferenceNameIndex(GiisIndex):
    """Remembers registration recency in a tick counter of its own."""

    NAME_ATTR = "regname"

    def __init__(self):
        self._index = AttributeIndex((self.NAME_ATTR,), rules={self.NAME_ATTR: CASE_EXACT})
        self._raw: Dict[str, str] = {}
        self._order: Dict[str, int] = {}
        self._tick = 0

    @staticmethod
    def _name_of(registration):
        return registration.message.metadata.get("name", registration.service_url)

    def on_register(self, registration):
        url = registration.service_url
        name = self._name_of(registration)
        self._index.discard(url)
        self._index.add(url, lambda a: (name,) if a == self.NAME_ATTR else ())
        self._raw[url] = name
        self._tick += 1
        self._order[url] = self._tick

    def on_refresh(self, registration):
        url = registration.service_url
        if url in self._raw:
            tick = self._order[url]
            self.on_register(registration)
            self._tick -= 1
            self._order[url] = tick

    def on_expire(self, registration):
        url = registration.service_url
        self._index.discard(url)
        self._raw.pop(url, None)
        self._order.pop(url, None)

    def resolve(self, name):
        urls = self._index.equality(self.NAME_ATTR, name)
        if not urls:
            return None
        return max(urls, key=lambda u: self._order.get(u, 0))

    def names(self):
        return sorted(set(self._raw.values()))

    def __len__(self):
        return len(set(self._raw.values()))


# ---------------------------------------------------------------------------
# One simnet world: three providers that overlap, one GIIS, both designs on it
# ---------------------------------------------------------------------------

HOSTS = ("a", "b")
URLS = ["ldap://a:389/", "ldap://b:389/", "ldap://center:389/",
        "ldap://ghost:389/"]  # ghost registers, never answers a dial
# What each URL may advertise; a refresh that picks another one moves it.
SUFFIXES = {
    "ldap://a:389/": ["hn=a, o=Grid", "queue=default, hn=a, o=Grid"],
    "ldap://b:389/": ["hn=b, o=Grid"],
    "ldap://center:389/": [GRID, "hn=a, o=Grid"],  # serves a's and b's DNs too
    "ldap://ghost:389/": ["hn=ghost, o=Grid"],
}
NAMES = ["alpha", "beta", None]  # None: the URL is the name


def host_entries(host, load, bandwidth):
    return [
        Entry(f"hn={host}, {GRID}", objectclass="computer", hn=host, cpucount="4"),
        Entry(f"perf=load, hn={host}, {GRID}", objectclass=["perf", "loadaverage"],
              perf="load", load5=load),
        Entry(f"queue=default, hn={host}, {GRID}", objectclass="queue", queue="default"),
        Entry(f"link={host}:hub, hn={host}, {GRID}", objectclass="networklink",
              link=f"{host}:hub", src=host, dst="hub", bandwidth=bandwidth),
    ]


class RecordingBackend(DitBackend):
    """A provider that remembers the base of every search it served."""

    def __init__(self, dit):
        super().__init__(dit)
        self.bases: List[str] = []

    def _search_impl(self, req, ctx):
        self.bases.append(req.base)
        return super()._search_impl(req, ctx)


class World:
    def __init__(self, *indexes):
        self.sim = Simulator()
        net = SimNetwork(self.sim, LinkModel(latency=LATENCY))  # no jitter: same order
        self.dits = {host: DIT() for host in (*HOSTS, "center")}
        self.dits["center"].add(Entry(GRID, objectclass="organization", o="Grid"))
        for host, load, bandwidth in (("a", "0.3", "120.0"), ("b", "2.5", "80.0")):
            for where in (host, "center"):
                for entry in host_entries(host, load, bandwidth):
                    self.dits[where].add(entry)
        self.dits["center"].add(
            Entry(f"hn=center, {GRID}", objectclass="computer", hn="center", cpucount="16")
        )
        self.providers = {}
        for host, dit in self.dits.items():
            self.providers[host] = RecordingBackend(dit)
            server = LdapServer(self.providers[host], clock=self.sim)
            net.add_node(host).listen(389, server.handle_connection)
        node = net.add_node("giis")
        self.giis = GiisBackend(
            GRID, clock=self.sim, url=LdapUrl("giis", 389, DN.of(GRID)),
            connector=lambda url: node.connect(url.address),
        )
        for index in indexes:
            self.giis.add_index(index)

    def run(self, dt):
        self.sim.run_until(self.sim.now() + dt)


def rows_of(relational):
    return {oc: relational.table(oc).rows for oc in relational.tables()}


def ads_of(matchmaker):
    return [(ad.name, ad.attrs) for ad in matchmaker.machine_ads()]


class DerivedVsStored(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.relational = RelationalDirectory(refresh_interval=30.0)
        self.matchmaker = MatchmakerDirectory(refresh_interval=30.0)
        self.names = NameIndex()
        self.ref_relational = ReferenceRelational(refresh_interval=30.0)
        self.ref_matchmaker = ReferenceMatchmaker(refresh_interval=30.0)
        self.ref_names = ReferenceNameIndex()
        self.world = World(
            self.relational, self.ref_relational, self.matchmaker, self.ref_matchmaker,
            self.names, self.ref_names,
        )

    @rule(url=st.sampled_from(URLS), moved=st.integers(0, 1),
          name=st.sampled_from(NAMES), ttl=st.sampled_from([5.0, 60.0, 300.0]))
    def register(self, url, moved, name, ttl):
        """New, refresh (same or changed name, same or moved suffix) or
        rebirth, as it falls."""
        choices = SUFFIXES[url]
        w = self.world
        w.giis.apply_grrp(reg(url, choices[moved % len(choices)], w.sim.now(), ttl, name))

    @rule(url=st.sampled_from(URLS))
    def unregister(self, url):
        self.world.giis.apply_grrp(unreg(url, self.world.sim.now()))

    @rule(dt=st.sampled_from([LATENCY, 0.5, 7.0, 31.0, 70.0]))
    def advance(self, dt):
        """Deliver what is in flight; past 5 s short leases lapse, past
        30 s the periodic re-pull has fired."""
        self.world.run(dt)

    @rule(url=st.sampled_from(URLS), name=st.sampled_from(NAMES))
    def die_and_come_back(self, url, name):
        w = self.world
        w.giis.apply_grrp(reg(url, SUFFIXES[url][0], w.sim.now(), 5.0, name))
        w.run(6.0)
        w.giis.apply_grrp(reg(url, SUFFIXES[url][0], w.sim.now(), 20.0, name))

    @rule()
    def refresh_all(self):
        self.relational.refresh_all()
        self.ref_relational.refresh_all()

    @rule(where=st.sampled_from(["a", "b", "center"]), host=st.sampled_from(HOSTS),
          load=st.sampled_from(["0.1", "0.9", "4.0"]))
    def drift(self, where, host, load):
        """A provider's data changes; the center's copy may lag."""
        if where in (host, "center"):
            self.world.dits[where].modify(
                f"perf=load, hn={host}, {GRID}", lambda e: e.put("load5", load)
            )

    @invariant()
    def same_answers(self):
        ours, theirs = self.relational, self.ref_relational
        # Not kept: the deleted store left a table behind, empty, after its
        # last row was evicted; a derived view lists what providers publish.
        assert ours.tables() == [t for t in theirs.tables() if theirs.table(t).rows]
        assert rows_of(ours) == {oc: rows for oc, rows in rows_of(theirs).items() if rows}
        assert ours.row_count() == theirs.row_count()
        assert (ours.idle_computers_on_idle_networks().rows
                == theirs.idle_computers_on_idle_networks().rows)
        assert ads_of(self.matchmaker) == ads_of(self.ref_matchmaker)
        assert self.names.names() == self.ref_names.names()
        assert len(self.names) == len(self.ref_names)
        for name in (*NAMES[:2], *URLS, "nobody"):
            assert self.names.resolve(name) == self.ref_names.resolve(name)
        for mine, reference in ((ours, theirs), (self.matchmaker, self.ref_matchmaker)):
            assert (mine.pulls, mine.pull_failures) == (reference.pulls, reference.pull_failures)

    def teardown(self):
        self.world.run(100.0)  # everything in flight lands, every 60 s lease lapses
        self.same_answers()


TestDerivedViewsEqualTheStoredOnes = DerivedVsStored.TestCase
TestDerivedViewsEqualTheStoredOnes.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


def test_the_world_exercises_overlap_and_the_worked_join():
    """The state machine's scene is not vacuous: shared DNs give duplicate
    rows, one ad per machine, and the join has an answer."""
    relational, matchmaker = RelationalDirectory(), MatchmakerDirectory()
    world = World(relational, matchmaker)
    for url in URLS[:3]:
        world.giis.apply_grrp(reg(url, SUFFIXES[url][0], 0.0, name="alpha"))
    world.run(1.0)
    assert relational.table("computer").column("hn") == ["a", "b", "a", "b", "center"]
    assert relational.table("computer").column("provider") == [
        URLS[0], URLS[1], URLS[2], URLS[2], URLS[2]
    ]
    assert [ad.name for ad in matchmaker.machine_ads()] == [
        f"hn=a, {GRID}", f"hn=b, {GRID}", f"hn=center, {GRID}"
    ]
    assert [ad.value("provider") for ad in matchmaker.machine_ads()] == URLS[:3]
    assert relational.idle_computers_on_idle_networks().column("hn") == ["a"]


# ---------------------------------------------------------------------------
# An answer nobody is registered for is not kept (§4.3)
# ---------------------------------------------------------------------------

A = URLS[0]


def followers():
    relational, matchmaker, names = RelationalDirectory(), MatchmakerDirectory(), NameIndex()
    return World(relational, matchmaker, names), relational, matchmaker, names


def assert_knows_nothing(world, relational, matchmaker, names):
    assert not world.giis.registry.is_registered(A)
    assert relational.row_count() == 0 and relational.tables() == []
    assert relational.table("computer").column("hn") == []
    assert matchmaker.machine_ads() == []
    assert names.names() == [] and len(names) == 0
    assert relational.pull_failures == 1 and matchmaker.pull_failures == 1


def test_an_answer_that_arrives_after_unregister_is_dropped():
    world, *indexes = followers()
    world.giis.apply_grrp(reg(A, "hn=a, o=Grid", 0.0, name="a"))  # issues the pulls
    world.giis.apply_grrp(unreg(A, 0.0))  # lands before their answers
    world.run(300.0)
    assert_knows_nothing(world, *indexes)
    assert world.providers["a"].bases == ["hn=a, o=Grid"] * 2  # both were answered


def test_an_answer_that_arrives_after_expiry_is_dropped():
    world, *indexes = followers()
    world.giis.apply_grrp(reg(A, "hn=a, o=Grid", 0.0, ttl=LATENCY / 2, name="a"))
    world.run(300.0)  # no sweep timer runs: the answer itself finds the lease lapsed
    assert_knows_nothing(world, *indexes)


def test_an_answer_for_a_previous_incarnation_is_dropped():
    world, relational, matchmaker, names = followers()
    world.giis.apply_grrp(reg(A, "hn=a, o=Grid", 0.0, ttl=LATENCY / 2, name="a"))
    world.run(LATENCY * 0.75)  # died; its pull has not reached the provider yet
    world.dits["a"].modify("perf=load, hn=a, o=Grid", lambda e: e.put("load5", "9.9"))
    world.giis.apply_grrp(reg(A, "queue=default, hn=a, o=Grid", world.sim.now(), name="a"))
    assert world.giis.registry.metrics.counter("grrp.rebirths").value == 1
    world.run(1.0)
    # Two pulls each, one kept: what the reborn provider advertises.
    assert (relational.pulls, relational.pull_failures) == (2, 1)
    assert (matchmaker.pulls, matchmaker.pull_failures) == (2, 1)
    assert relational.tables() == ["queue"] and relational.row_count() == 1
    assert matchmaker.machine_ads() == []
    assert names.resolve("a") == A


# ---------------------------------------------------------------------------
# Pulls follow the namespace the provider advertises now
# ---------------------------------------------------------------------------


def test_pulls_follow_a_suffix_changing_refresh():
    relational, matchmaker = RelationalDirectory(refresh_interval=30.0), MatchmakerDirectory()
    world = World(relational, matchmaker)
    world.giis.apply_grrp(reg(A, "hn=a, o=Grid", 0.0, ttl=300.0))
    world.run(1.0)
    assert relational.tables() == ["computer", "loadaverage", "networklink", "perf", "queue"]
    assert len(matchmaker.machine_ads()) == 1
    served = world.providers["a"].bases
    del served[:]

    narrowed = "queue=default, hn=a, o=Grid"
    world.giis.apply_grrp(reg(A, narrowed, world.sim.now(), ttl=300.0))
    assert world.giis.registry.lookup(A).suffix_text == narrowed
    world.run(1.0)  # re-pulled at once, not at the next tick
    assert served == [narrowed, narrowed]  # one per directory
    assert relational.tables() == ["queue"]
    assert relational.table("queue").column("dn") == [narrowed]
    assert matchmaker.machine_ads() == []

    del served[:]
    world.run(95.0)  # the periodic pulls at t=30, 60 and 90
    assert served == [narrowed] * 3
    assert relational.tables() == ["queue"] and relational.row_count() == 1

    # A refresh that keeps the suffix costs no pull.
    world.giis.apply_grrp(reg(A, narrowed, world.sim.now(), ttl=300.0))
    world.run(1.0)
    assert served == [narrowed] * 3


# ---------------------------------------------------------------------------
# Answers, departures and readers at once
# ---------------------------------------------------------------------------


def test_readers_answers_and_departures_at_once_leave_no_stale_view():
    """Answers land on one thread, membership changes on others, readers
    derive on theirs.  A lost change-counter bump would leave a reader a
    view of providers that are gone; a map read while it was resized
    would raise."""
    import sys
    import threading
    import time

    from repro.net.clock import WallClock

    class AnswersAtOnce:
        """A pooled client whose child answers before search_async returns."""

        def search_async(self, req, on_done):
            host = req.base.partition(",")[0].partition("=")[2]
            on_done(SearchResult(entries=host_entries(host, "0.5", "100.0")))

    relational, matchmaker = RelationalDirectory(), MatchmakerDirectory()
    giis = GiisBackend(GRID, clock=WallClock())
    giis._client_for = lambda url: AnswersAtOnce()
    giis.add_index(relational)
    giis.add_index(matchmaker)
    urls = [f"ldap://n{k}:389/" for k in range(6)]
    failures, stop = [], threading.Event()

    def churn(url, host):
        try:
            while not stop.is_set():
                giis.apply_grrp(reg(url, f"hn={host}, {GRID}", time.time(), ttl=600.0))
                relational.refresh_all()
                giis.apply_grrp(unreg(url, time.time()))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    def read():
        try:
            while not stop.is_set():
                live = {r["provider"] for r in relational.table("computer").rows}
                assert live <= set(urls)
                assert relational.row_count() % 5 == 0  # whole answers only
                assert len(matchmaker.machine_ads()) <= len(urls)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=churn, args=(url, f"n{k}")) for k, url in enumerate(urls)]
    threads += [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len(giis.registry) == 0
    assert relational.row_count() == 0 and matchmaker.machine_ads() == []
    assert relational.pulls > len(urls)
