"""The GRIS concurrency contract (§10.3 under a multi-worker executor).

Covers the provider-cache overhaul — single-flight coalescing,
stale-while-revalidate, negative caching with exponential backoff — and
the parallel provider fan-out: latency = max(provider), deterministic
inline mode for the simulator, cancellation, and gauge hygiene.
"""

import threading
import time

import pytest

from repro.gris import FunctionProvider, GrisBackend, ProviderCache, ProviderError
from repro.ldap.backend import RequestContext
from repro.ldap.dit import Scope
from repro.ldap.entry import Entry
from repro.ldap.executor import CancelToken
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.net.clock import WallClock
from repro.net.sim import Simulator


def req(base="o=O1", scope=Scope.SUBTREE, filt="(objectclass=*)"):
    return SearchRequest(base=base, scope=scope, filter=parse_filter(filt))


def count(cache, name):
    """One of *cache*'s counters on its metrics registry."""
    return cache.metrics.counter(name).value


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestSingleFlight:
    def test_concurrent_misses_invoke_provider_once(self):
        """N concurrent cold misses coalesce onto one provide() call."""
        release = threading.Event()

        def slow():
            release.wait(5.0)
            return [Entry("cn=x", cn="x")]

        cache = ProviderCache()
        provider = FunctionProvider("p", slow, cache_ttl=60.0)
        results = []

        def query():
            results.append(cache.get(provider, now=0.0))

        threads = [threading.Thread(target=query) for _ in range(6)]
        for t in threads:
            t.start()
        # 1 leader in provide(), 5 coalesced waiters blocked on its flight.
        assert wait_until(lambda: count(cache, "gris.cache.coalesced") == 5)
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert provider.invocations == 1
        assert len(results) == 6
        assert all(produced == 0.0 for _, produced in results)
        assert count(cache, "gris.cache.misses") == 6 and count(cache, "gris.cache.hits") == 0

    def test_coalesced_waiters_share_leader_failure(self):
        release = threading.Event()

        def slow_boom():
            release.wait(5.0)
            raise RuntimeError("backend down")

        cache = ProviderCache()
        provider = FunctionProvider("p", slow_boom, cache_ttl=60.0)
        errors = []

        def query():
            try:
                cache.get(provider, now=0.0)
            except ProviderError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        assert wait_until(lambda: count(cache, "gris.cache.coalesced") == 3)
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert provider.invocations == 1
        assert len(errors) == 4
        assert count(cache, "gris.cache.failures") == 1  # one flight, one failure

    def test_threaded_stress_accounting_is_consistent(self):
        """Hammering one provider from many threads loses no updates."""
        cache = ProviderCache()
        provider = FunctionProvider(
            "p", lambda: [Entry("cn=x", cn="x")], cache_ttl=0.002
        )
        per_thread, n_threads = 150, 8

        def worker():
            for _ in range(per_thread):
                cache.get(provider, now=time.monotonic())

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        total = per_thread * n_threads
        assert count(cache, "gris.cache.hits") + count(cache, "gris.cache.misses") == total
        assert 1 <= provider.invocations <= total


class TestStaleWhileRevalidate:
    def make(self, swr=30.0):
        tasks = []
        cache = ProviderCache(
            stale_while_revalidate=swr,
            refresh_runner=lambda fn: tasks.append(fn) or True,
        )
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            return [Entry("cn=x", cn=str(calls["n"]))]

        return cache, tasks, FunctionProvider("p", fn, cache_ttl=10.0)

    def test_stale_served_while_background_refresh_runs(self):
        cache, tasks, provider = self.make()
        _, produced = cache.get(provider, now=0.0)  # cold miss
        assert produced == 0.0
        entries, produced = cache.get(provider, now=15.0)  # expired, in window
        assert produced == 0.0  # stale snapshot answered immediately
        assert entries[0].first("cn") == "1"
        assert count(cache, "gris.cache.revalidations") == 1
        assert provider.invocations == 1 and len(tasks) == 1
        tasks.pop()()  # run the background refresh
        assert provider.invocations == 2
        entries, produced = cache.get(provider, now=15.0)
        assert produced == 15.0  # revalidation landed
        assert entries[0].first("cn") == "2"

    def test_only_one_revalidation_in_flight(self):
        cache, tasks, provider = self.make()
        cache.get(provider, now=0.0)
        cache.get(provider, now=15.0)
        cache.get(provider, now=16.0)  # refresh already running: serve stale
        assert len(tasks) == 1 and count(cache, "gris.cache.revalidations") == 1
        assert provider.invocations == 1

    def test_beyond_window_blocks_on_refresh(self):
        cache, tasks, provider = self.make(swr=30.0)
        cache.get(provider, now=0.0)
        _, produced = cache.get(provider, now=50.0)  # past ttl+swr = 40
        assert produced == 50.0 and provider.invocations == 2
        assert not tasks  # refreshed inline, not in the background

    def test_ready_means_get_answers_from_the_held_snapshot(self):
        cache, tasks, provider = self.make(swr=30.0)
        assert not cache.ready(provider, now=0.0)  # nothing held yet
        cache.get(provider, now=0.0)
        assert cache.ready(provider, now=10.0)  # within the TTL
        assert cache.ready(provider, now=40.0)  # within ttl + window
        assert not cache.ready(provider, now=40.5)  # past the window
        assert count(cache, "gris.cache.hits") == 0 and count(cache, "gris.cache.misses") == 1  # counts nothing
        bare = ProviderCache(stale_while_revalidate=30.0)  # no runner
        bare.get(provider, now=0.0)
        assert bare.ready(provider, now=10.0)
        assert not bare.ready(provider, now=15.0)  # would refresh inline
        per_request = FunctionProvider("q", lambda: [], cache_ttl=0.0)
        bare.get(per_request, now=0.0)
        assert not bare.ready(per_request, now=0.0)  # TTL 0: never held

    def test_without_runner_swr_degrades_to_blocking_refresh(self):
        """Inline/simulator mode: no background threads, fully deterministic."""
        cache = ProviderCache(stale_while_revalidate=30.0)
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            return [Entry("cn=x", cn="x")]

        provider = FunctionProvider("p", fn, cache_ttl=10.0)
        cache.get(provider, now=0.0)
        _, produced = cache.get(provider, now=15.0)
        assert produced == 15.0 and provider.invocations == 2
        assert count(cache, "gris.cache.revalidations") == 0


class TestFailureBackoff:
    def test_backoff_skips_then_recovers(self):
        healthy = {"ok": False}

        def fn():
            if not healthy["ok"]:
                raise RuntimeError("down")
            return [Entry("cn=x", cn="x")]

        cache = ProviderCache(backoff_base=2.0, backoff_max=60.0)
        provider = FunctionProvider("p", fn, cache_ttl=5.0)
        with pytest.raises(ProviderError):
            cache.get(provider, now=0.0)
        assert count(cache, "gris.cache.failures") == 1
        # Backing off until t=2: the provider is not even invoked.
        with pytest.raises(ProviderError):
            cache.get(provider, now=1.0)
        assert provider.invocations == 1
        assert count(cache, "gris.provider.backoff_skips") == 1
        assert cache.in_backoff("p", 1.0)
        # Past the backoff: retried, fails again, the delay doubles.
        with pytest.raises(ProviderError):
            cache.get(provider, now=2.5)
        assert provider.invocations == 2
        with pytest.raises(ProviderError):
            cache.get(provider, now=6.0)  # 2.5 + 4 = 6.5 still ahead
        assert provider.invocations == 2
        # Recovery resets the failure history.
        healthy["ok"] = True
        _, produced = cache.get(provider, now=7.0)
        assert produced == 7.0 and provider.invocations == 3
        assert not cache.in_backoff("p", 7.0)

    def test_backoff_serves_stale_snapshot_without_probing(self):
        healthy = {"ok": True}

        def fn():
            if not healthy["ok"]:
                raise RuntimeError("down")
            return [Entry("cn=x", cn="x")]

        cache = ProviderCache(backoff_base=1.0)
        provider = FunctionProvider("p", fn, cache_ttl=1.0)
        cache.get(provider, now=0.0)
        healthy["ok"] = False
        _, produced = cache.get(provider, now=2.0)  # fails -> stale served
        assert produced == 0.0 and count(cache, "gris.cache.failures") == 1
        _, produced = cache.get(provider, now=2.5)  # in backoff: no probe
        assert produced == 0.0
        assert provider.invocations == 2
        assert count(cache, "gris.provider.backoff_skips") == 1
        assert count(cache, "gris.cache.stale_served") == 2

    def test_backoff_caps_at_maximum(self):
        cache = ProviderCache(backoff_base=1.0, backoff_max=4.0)
        provider = FunctionProvider("p", lambda: 1 / 0, cache_ttl=1.0)
        now = 0.0
        for _ in range(6):  # uncapped this would reach 32s
            with pytest.raises(ProviderError):
                cache.get(provider, now=now)
            now += 4.0 + 0.1
        assert provider.invocations == 6  # every probe happened: cap held


def build_gris(workers, provider_specs, clock=None, swr=0.0):
    """A GRIS over FunctionProviders described as (name, namespace, entries)."""
    gris = GrisBackend(
        "o=O1",
        clock=clock or WallClock(),
        provider_workers=workers,
        stale_while_revalidate=swr,
    )
    gris.set_suffix_entry(Entry("o=O1", objectclass="organization", o="O1"))
    for name, namespace, entries in provider_specs:
        gris.add_provider(
            FunctionProvider(
                name, lambda entries=entries: entries, namespace=namespace,
                cache_ttl=300.0,
            )
        )
    return gris


HOST_SPECS = [
    (
        f"host-{i}",
        f"hn=h{i}",
        [Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}", cpucount=str(i + 1))],
    )
    for i in range(4)
]


class TestParallelCollect:
    def test_parallel_results_match_inline_results(self):
        inline = build_gris(0, HOST_SPECS, clock=Simulator())
        parallel = build_gris(4, HOST_SPECS, clock=Simulator())
        try:
            a = inline.search(req(), RequestContext())
            b = parallel.search(req(), RequestContext())
            assert [str(e.dn) for e in a.entries] == [str(e.dn) for e in b.entries]
            assert len(a.entries) == 5  # suffix + 4 hosts
        finally:
            parallel.shutdown()

    def test_inline_collect_is_deterministic_under_simulator(self):
        runs = []
        for _ in range(2):
            gris = build_gris(0, HOST_SPECS, clock=Simulator())
            out = gris.search(req(), RequestContext())
            runs.append([(str(e.dn), e.first("cpucount")) for e in out.entries])
        assert runs[0] == runs[1]

    def test_parallel_latency_is_max_not_sum(self):
        naptime = 0.15

        def sleepy(i):
            def fn():
                time.sleep(naptime)
                return [Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}")]

            return fn

        specs = [(f"slow-{i}", f"hn=h{i}", None) for i in range(4)]
        gris = GrisBackend("o=O1", clock=WallClock(), provider_workers=4)
        for i, (name, namespace, _) in enumerate(specs):
            gris.add_provider(
                FunctionProvider(name, sleepy(i), namespace=namespace, cache_ttl=300.0)
            )
        try:
            started = time.monotonic()
            out = gris.search(req(), RequestContext())
            elapsed = time.monotonic() - started
            assert len(out.entries) == 4
            # Sequential dispatch would need >= 4 * naptime = 0.6s.
            assert elapsed < 3 * naptime
        finally:
            gris.shutdown()

    def test_cold_search_stampede_invokes_each_provider_once(self):
        """K identical cold searches at once: every provider's refresh
        runs once, the other K-1 probes of it wait on that flight."""
        providers, searches = 3, 3
        release = threading.Event()

        def gated(i):
            def fn():
                release.wait(5.0)
                return [Entry(f"hn=h{i}", objectclass="computer", hn=f"h{i}")]

            return fn

        # One worker per probe, so every probe reaches the cache at once.
        gris = GrisBackend("o=O1", clock=WallClock(), provider_workers=providers * searches)
        for i in range(providers):
            gris.add_provider(
                FunctionProvider(f"p{i}", gated(i), namespace=f"hn=h{i}", cache_ttl=300.0)
            )
        answers = []
        threads = [
            threading.Thread(target=lambda: answers.append(gris.search(req(), RequestContext())))
            for _ in range(searches)
        ]
        try:
            for t in threads:
                t.start()
            waiters = providers * (searches - 1)
            assert wait_until(lambda: count(gris.cache, "gris.cache.coalesced") == waiters)
            release.set()
            for t in threads:
                t.join(timeout=5.0)
            assert [p.invocations for p in gris.providers()] == [1] * providers
            assert [len(out.entries) for out in answers] == [providers] * searches
        finally:
            release.set()
            gris.shutdown()

    def test_cancel_aborts_parallel_fanout(self):
        release = threading.Event()
        entered = threading.Event()

        def stuck():
            entered.set()
            release.wait(5.0)
            return [Entry("hn=h0", objectclass="computer", hn="h0")]

        gris = GrisBackend("o=O1", clock=WallClock(), provider_workers=2)
        gris.add_provider(
            FunctionProvider("stuck-a", stuck, namespace="hn=h0", cache_ttl=300.0)
        )
        gris.add_provider(
            FunctionProvider("stuck-b", stuck, namespace="hn=h1", cache_ttl=300.0)
        )
        token = CancelToken()
        outcome = []
        searcher = threading.Thread(
            target=lambda: outcome.append(
                gris.search(req(), RequestContext(token=token))
            )
        )
        try:
            searcher.start()
            assert entered.wait(5.0)  # fan-out is in flight
            token.cancel("abandon")
            searcher.join(timeout=5.0)
            assert not searcher.is_alive()  # returned without the probes
            cancelled = gris.metrics.counter("gris.collect.cancelled")
            assert cancelled.value == 1
        finally:
            release.set()
            gris.shutdown()

    def test_cancel_frees_a_search_stuck_on_its_only_provider(self):
        """A lone provider that must refresh is probed on the pool too, so
        cancelling releases the search instead of leaving it in provide()."""
        release = threading.Event()
        entered = threading.Event()

        def stuck():
            entered.set()
            release.wait(10.0)
            return [Entry("hn=h0", objectclass="computer", hn="h0")]

        gris = GrisBackend("o=O1", clock=WallClock(), provider_workers=2)
        gris.add_provider(
            FunctionProvider("stuck", stuck, namespace="hn=h0", cache_ttl=300.0)
        )
        token = CancelToken()
        searcher = threading.Thread(
            target=lambda: gris.search(req(), RequestContext(token=token))
        )
        try:
            searcher.start()
            assert entered.wait(5.0)
            token.cancel("abandon")
            searcher.join(timeout=1.0)
            assert not searcher.is_alive()
            assert gris.metrics.counter("gris.collect.cancelled").value == 1
        finally:
            release.set()
            searcher.join(timeout=10.0)
            gris.shutdown()

    def test_pool_metrics_registered_under_gris_namespace(self):
        gris = build_gris(2, HOST_SPECS)
        try:
            gris.search(req(), RequestContext())
            snap = gris.metrics.snapshot()
            assert "gris.executor.submitted{pool=gris-provider}" in snap
            assert snap["gris.executor.submitted{pool=gris-provider}"]["value"] >= 4
            assert any(k.startswith("gris.collect.seconds") for k in snap)
        finally:
            gris.shutdown()


class TestReadyProbesInline:
    """A probe that reads a held snapshot runs on the search's own thread;
    the provider pool gets only the probes that may block."""

    COUNTERS = (
        "gris.executor.submitted{pool=gris-provider}",
        "gris.provider.dispatches",
        "gris.cache.hits",
    )

    def make(self, swr=0.0):
        """Five providers: the four hosts (TTL 300 s) and h4 (TTL 10 s)."""
        sim = Simulator()
        cpus = {"h4": "1"}
        gris = build_gris(4, HOST_SPECS, clock=sim, swr=swr)
        gris.add_provider(
            FunctionProvider(
                "host-4",
                lambda: [Entry("hn=h4", objectclass="computer", hn="h4", cpucount=cpus["h4"])],
                namespace="hn=h4",
                cache_ttl=10.0,
            )
        )
        return sim, gris, cpus

    def counts(self, gris):
        snap = gris.metrics.snapshot()
        return tuple(snap[name]["value"] for name in self.COUNTERS)

    @staticmethod
    def h4_cpus(gris):
        out = gris.search(req(), RequestContext())
        assert len(out.entries) == 6  # suffix + five hosts
        return {e.first("hn"): e.first("cpucount") for e in out.entries}["h4"]

    def test_warm_searches_do_no_pool_work_and_count_the_same(self):
        sim, gris, cpus = self.make()
        try:
            self.h4_cpus(gris)  # cold: all five refresh on the pool
            submitted, dispatches, hits = self.counts(gris)
            for _ in range(200):
                self.h4_cpus(gris)
            assert self.counts(gris) == (submitted, dispatches + 5 * 200, hits + 5 * 200)
            cpus["h4"] = "9"
            sim.run_for(11.0)  # h4 past its TTL, the other four within theirs
            assert self.h4_cpus(gris) == "9"
            assert self.counts(gris)[0] == submitted + 1
        finally:
            gris.shutdown()

    def test_snapshot_inside_the_revalidation_window_is_read_inline(self):
        sim, gris, cpus = self.make(swr=30.0)
        try:
            self.h4_cpus(gris)
            submitted = self.counts(gris)[0]
            cpus["h4"] = "9"
            sim.run_for(15.0)  # h4 past its TTL, inside ttl + window
            assert self.h4_cpus(gris) == "1"  # served stale at once
            # One pool task: the background provide(), not the probe.
            assert self.counts(gris)[0] == submitted + 1
            assert count(gris.cache, "gris.cache.revalidations") == 1
        finally:
            gris.shutdown()


class TestGaugeHygiene:
    def test_remove_provider_unregisters_cache_age_gauge(self):
        gris = GrisBackend("o=O1", clock=Simulator())
        gris.add_provider(FunctionProvider("p", lambda: [Entry("cn=x", cn="x")]))
        assert gris.metrics.get("gris.cache.age", {"provider": "p"}) is not None
        gris.remove_provider("p")
        assert gris.metrics.get("gris.cache.age", {"provider": "p"}) is None
        assert not any(
            name.startswith("gris.cache.age") for name in gris.metrics.snapshot()
        )

    def test_readding_provider_rewires_the_gauge(self):
        sim = Simulator()
        gris = GrisBackend("o=O1", clock=sim)
        gris.add_provider(
            FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=60.0)
        )
        gris.remove_provider("p")
        gris.add_provider(
            FunctionProvider("p", lambda: [Entry("cn=y", cn="y")], cache_ttl=60.0)
        )
        gris.search(req(), RequestContext())
        gauge = gris.metrics.get("gris.cache.age", {"provider": "p"})
        assert gauge is not None and gauge.value == 0.0

    def test_remove_provider_unregisters_the_seconds_histogram(self):
        gris = GrisBackend("o=O1", clock=Simulator())
        gris.add_provider(
            FunctionProvider("p", lambda: [Entry("cn=x", objectclass="thing", cn="x")], cache_ttl=60.0)
        )
        gris.search(req(), RequestContext())
        labels = {"provider": "p"}
        assert gris.metrics.get("gris.provider.seconds", labels).count == 1
        assert "p" in gris._served
        gris.remove_provider("p")
        assert gris.metrics.get("gris.provider.seconds", labels) is None
        assert not any(
            name.startswith("gris.provider.seconds") for name in gris.metrics.snapshot()
        )
        assert "p" not in gris._served  # the served snapshot goes with it
        assert gris.search(req(), RequestContext()).entries == []

    def test_probes_do_not_look_the_histogram_up_per_request(self, monkeypatch):
        gris = GrisBackend("o=O1", clock=Simulator())
        gris.add_provider(
            FunctionProvider("p", lambda: [Entry("cn=x", objectclass="thing", cn="x")], cache_ttl=60.0)
        )
        lookups = []
        original = gris.metrics.histogram
        monkeypatch.setattr(
            gris.metrics,
            "histogram",
            lambda name, *a, **kw: lookups.append(name) or original(name, *a, **kw),
        )
        for _ in range(3):
            assert len(gris.search(req(), RequestContext()).entries) == 1
        assert lookups == []
        assert gris.metrics.get("gris.provider.seconds", {"provider": "p"}).count == 3
