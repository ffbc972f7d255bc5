"""Tests for the GRIS framework: providers, caching, dispatch, NWS."""

import random

import pytest

from repro.gris import (
    DynamicHostProvider,
    FunctionProvider,
    GrisBackend,
    HostConfig,
    NetworkPairsProvider,
    ProviderCache,
    ProviderError,
    QueueProvider,
    QueueState,
    ScriptProvider,
    SeriesStore,
    SimulatedLoadSensor,
    StaticHostProvider,
    StorageProvider,
    pair_series,
)
from repro.ldap.backend import ChangeType, RequestContext
from repro.ldap.dit import Scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import ResultCode, SearchRequest
from repro.net.sim import Simulator

CTX = RequestContext()


def req(base="o=O1", scope=Scope.SUBTREE, filt="(objectclass=*)"):
    return SearchRequest(base=base, scope=scope, filter=parse_filter(filt))


class TestProviders:
    def test_static_host_provider(self):
        p = StaticHostProvider(HostConfig("hostX", cpu_count=8, memory_mb=2048))
        entries = p.provide()
        assert len(entries) == 1
        assert entries[0].first("cpucount") == "8"
        assert entries[0].first("memorysize") == "2048 MB"
        assert p.invocations == 1

    def test_dynamic_host_provider(self):
        sensor = SimulatedLoadSensor(random.Random(0), mean=2.0)
        p = DynamicHostProvider("hostX", sensor)
        e = p.provide()[0]
        assert e.is_a("loadaverage")
        assert float(e.first("load1")) >= 0.0
        assert e.dn == DN.parse("perf=loadavg, hn=hostX")

    def test_simulated_load_reverts_to_mean(self):
        sensor = SimulatedLoadSensor(random.Random(1), mean=4.0, initial=0.0)
        values = [sensor()[0] for _ in range(300)]
        assert abs(sum(values[200:]) / 100 - 4.0) < 1.0

    def test_storage_provider(self):
        p = StorageProvider(
            "hostX", "scratch", "/disks/scratch1", lambda: (33515 * 1024**2, 66000 * 1024**2)
        )
        e = p.provide()[0]
        assert e.first("free") == "33515 MB"
        assert e.is_a("filesystem")

    def test_queue_provider_reflects_state(self):
        state = QueueState(jobs=3)
        p = QueueProvider("hostX", state=state)
        assert p.provide()[0].first("jobcount") == "3"
        state.jobs = 9
        assert p.provide()[0].first("jobcount") == "9"

    def test_script_provider_parses_ldif(self):
        script = lambda: "dn: hn=hostX\nobjectclass: computer\nhn: hostX\n"
        p = ScriptProvider("script1", script, cost=0.05)
        entries = p.provide()
        assert entries[0].first("hn") == "hostX"
        assert p.total_cost == pytest.approx(0.05)

    def test_script_provider_bad_ldif(self):
        p = ScriptProvider("bad", lambda: "garbage without dn\n")
        with pytest.raises(ProviderError):
            p.provide()

    def test_function_provider_failure_wrapped(self):
        def boom():
            raise RuntimeError("sensor offline")

        p = FunctionProvider("boom", boom)
        with pytest.raises(ProviderError, match="sensor offline"):
            p.provide()

    def test_provider_returns_copies(self):
        shared = Entry("hn=x", objectclass="computer", hn="x")
        p = FunctionProvider("p", lambda: [shared])
        out = p.provide()[0]
        out.put("hn", "tampered")
        assert shared.first("hn") == "x"


class TestProviderCache:
    def test_hit_within_ttl(self):
        sim = Simulator()
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=30.0)
        cache.get(p, now=0.0)
        cache.get(p, now=10.0)
        assert p.invocations == 1
        counters = cache.metrics.counter
        assert counters("gris.cache.hits").value == counters("gris.cache.misses").value == 1

    def test_miss_after_ttl(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=30.0)
        cache.get(p, now=0.0)
        cache.get(p, now=31.0)
        assert p.invocations == 2

    def test_zero_ttl_always_refreshes(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=0.0)
        cache.get(p, now=0.0)
        cache.get(p, now=0.0)
        assert p.invocations == 2

    def test_entries_stamped_with_production_time(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=30.0)
        entries, produced = cache.get(p, now=5.0)
        assert produced == 5.0
        assert entries[0].timestamp() == 5.0
        assert entries[0].valid_to() == 35.0
        # served from cache at t=20: stamp still says produced at 5
        entries2, _ = cache.get(p, now=20.0)
        assert entries2[0].timestamp() == 5.0

    def test_stale_served_on_failure(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("down")
            return [Entry("cn=x", cn="x")]

        cache = ProviderCache()
        p = FunctionProvider("p", flaky, cache_ttl=10.0)
        cache.get(p, now=0.0)
        entries, produced = cache.get(p, now=50.0)  # expired + failing
        assert produced == 0.0
        assert cache.metrics.counter("gris.cache.stale_served").value == 1

    def test_failure_without_cache_raises(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: 1 / 0, cache_ttl=10.0)
        with pytest.raises(ProviderError):
            cache.get(p, now=0.0)

    def test_invalidate(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=100.0)
        cache.get(p, now=0.0)
        cache.invalidate("p")
        cache.get(p, now=1.0)
        assert p.invocations == 2

    def test_age(self):
        cache = ProviderCache()
        p = FunctionProvider("p", lambda: [Entry("cn=x", cn="x")], cache_ttl=100.0)
        assert cache.age("p", now=0.0) is None
        cache.get(p, now=2.0)
        assert cache.age("p", now=10.0) == 8.0


def make_gris(sim=None):
    sim = sim or Simulator()
    gris = GrisBackend("o=O1", clock=sim)
    gris.set_suffix_entry(Entry("o=O1", objectclass="organization", o="O1"))
    gris.add_provider(StaticHostProvider(HostConfig("hostX", cpu_count=4)))
    sensor = SimulatedLoadSensor(random.Random(0), mean=1.0)
    gris.add_provider(DynamicHostProvider("hostX", sensor, cache_ttl=10.0))
    gris.add_provider(
        StorageProvider("hostX", "scratch", "/scratch", lambda: (10 * 1024**3, 20 * 1024**3))
    )
    return sim, gris


class TestGrisBackend:
    def test_merged_subtree_search(self):
        _, gris = make_gris()
        out = gris.search(req(), CTX)
        dns = {str(e.dn) for e in out.entries}
        assert "o=O1" in dns
        assert "hn=hostX, o=O1" in dns
        assert "perf=loadavg, hn=hostX, o=O1" in dns
        assert "store=scratch, hn=hostX, o=O1" in dns

    def test_base_search(self):
        _, gris = make_gris()
        out = gris.search(req(base="hn=hostX, o=O1", scope=Scope.BASE), CTX)
        assert len(out.entries) == 1

    def test_base_search_missing(self):
        _, gris = make_gris()
        out = gris.search(req(base="hn=ghost, o=O1", scope=Scope.BASE), CTX)
        assert out.result.code == ResultCode.NO_SUCH_OBJECT

    def test_onelevel(self):
        _, gris = make_gris()
        out = gris.search(req(base="hn=hostX, o=O1", scope=Scope.ONELEVEL), CTX)
        dns = {str(e.dn) for e in out.entries}
        assert dns == {"perf=loadavg, hn=hostX, o=O1", "store=scratch, hn=hostX, o=O1"}

    def test_disjoint_base_rejected(self):
        _, gris = make_gris()
        out = gris.search(req(base="o=SomewhereElse"), CTX)
        assert out.result.code == ResultCode.NO_SUCH_OBJECT

    def test_search_from_root_includes_suffix(self):
        _, gris = make_gris()
        out = gris.search(req(base=""), CTX)
        assert any(str(e.dn) == "o=O1" for e in out.entries)

    def test_filter_applied(self):
        _, gris = make_gris()
        out = gris.search(req(filt="(objectclass=filesystem)"), CTX)
        assert len(out.entries) == 1

    def test_namespace_pruning(self):
        """Providers whose namespace is outside the scope are not invoked."""
        sim, gris = make_gris()
        extra = FunctionProvider(
            "other-host",
            lambda: [Entry("hn=other", objectclass="computer", hn="other")],
            namespace="hn=other",
        )
        gris.add_provider(extra)
        gris.search(req(base="hn=hostX, o=O1"), CTX)
        assert extra.invocations == 0
        gris.search(req(base="o=O1"), CTX)
        assert extra.invocations == 1

    def test_caching_respects_provider_ttl(self):
        sim, gris = make_gris()
        dyn = gris._providers["dynamic-host-hostX"]
        gris.search(req(), CTX)
        gris.search(req(), CTX)
        assert dyn.invocations == 1  # TTL 10s, same virtual instant
        sim.run_until(11.0)
        gris.search(req(), CTX)
        assert dyn.invocations == 2

    def test_provider_failure_skipped(self):
        sim, gris = make_gris()
        gris.add_provider(FunctionProvider("broken", lambda: 1 / 0))
        out = gris.search(req(), CTX)
        assert out.result.ok
        assert len(out.entries) >= 4
        assert gris.metrics.counter("gris.provider.errors").value == 1

    def test_duplicate_provider_rejected(self):
        _, gris = make_gris()
        with pytest.raises(ValueError):
            gris.add_provider(FunctionProvider("broken", lambda: []))
            gris.add_provider(FunctionProvider("broken", lambda: []))

    def test_remove_provider(self):
        _, gris = make_gris()
        gris.remove_provider("storage-hostX-scratch")
        out = gris.search(req(filt="(objectclass=filesystem)"), CTX)
        assert len(out.entries) == 0

    def test_entries_carry_currency_metadata(self):
        _, gris = make_gris()
        out = gris.search(req(filt="(objectclass=loadaverage)"), CTX)
        e = out.entries[0]
        assert e.timestamp() is not None
        assert e.valid_to() is not None

    def test_writes_refused(self):
        from repro.ldap.protocol import AddRequest

        _, gris = make_gris()
        result = gris.add(AddRequest(dn="cn=x"), CTX)
        assert result.code == ResultCode.UNWILLING_TO_PERFORM


class TestGrisSubscriptions:
    def test_polling_detects_modify(self):
        sim, gris = make_gris()
        changes = []
        gris.subscribe(
            req(filt="(objectclass=loadaverage)"),
            CTX,
            lambda e, c: changes.append((c, e.first("load1"))),
        )
        sim.run_until(60.0)  # several poll+TTL cycles; load values drift
        assert changes
        assert all(c == ChangeType.MODIFY for c, _ in changes)

    def test_polling_detects_add_and_delete(self):
        sim, gris = make_gris()
        changes = []
        gris.subscribe(req(), CTX, lambda e, c: changes.append((c, str(e.dn))))
        new = FunctionProvider(
            "late", lambda: [Entry("hn=late", objectclass="computer", hn="late")]
        )
        sim.run_until(2.0)
        gris.add_provider(new)
        sim.run_until(12.0)
        assert (ChangeType.ADD, "hn=late, o=O1") in changes
        gris.remove_provider("late")
        sim.run_until(22.0)
        assert (ChangeType.DELETE, "hn=late, o=O1") in changes

    def test_cancel(self):
        sim, gris = make_gris()
        changes = []
        sub = gris.subscribe(req(), CTX, lambda e, c: changes.append(c))
        sub.cancel()
        assert gris.subscription_count() == 0
        sim.run_until(60.0)
        assert changes == []


class TestSeriesStoreAndForecasters:
    def test_constant_series_forecast(self):
        store = SeriesStore()
        for _ in range(20):
            store.observe("s", 5.0)
        f = store.forecast("s")
        assert f.value == pytest.approx(5.0)

    def test_adaptive_picks_good_forecaster_on_trend(self):
        # On a pure linear trend AR(1) should beat running mean.
        from repro.gris import AdaptiveForecaster

        bank = AdaptiveForecaster()
        for i in range(100):
            bank.update(float(i))
        best = bank.best()
        pred = best.predict()
        assert pred > 95.0  # mean would predict ~50

    def test_adaptive_on_noisy_constant(self):
        from repro.gris import AdaptiveForecaster

        rng = random.Random(0)
        bank = AdaptiveForecaster()
        for _ in range(300):
            bank.update(10.0 + rng.gauss(0, 1.0))
        forecast = bank.forecast()
        assert abs(forecast.value - 10.0) < 1.0
        # a smoothing forecaster should beat last-value here
        assert forecast.method != "last"

    def test_probe_on_demand(self):
        probes = []

        def probe(series):
            probes.append(series)
            return 42.0

        store = SeriesStore(probe=probe, min_samples=3)
        f = store.forecast("bw:a->b")
        assert f.value == pytest.approx(42.0)
        assert store.probes_run == 3

    def test_no_probe_no_series(self):
        store = SeriesStore()
        assert store.forecast("unknown") is None

    def test_forecaster_warmup(self):
        from repro.gris import Ar1, Ewma, SlidingMedian

        for f in (Ar1(), Ewma(0.3), SlidingMedian(5)):
            assert f.predict() is None
            f.update(1.0)
            assert f.predict() == pytest.approx(1.0)

    def test_median_robust_to_outlier(self):
        from repro.gris import SlidingMedian

        m = SlidingMedian(5)
        for v in [1.0, 1.0, 100.0, 1.0, 1.0]:
            m.update(v)
        assert m.predict() == pytest.approx(1.0)

    def test_bad_params(self):
        from repro.gris import Ewma, SlidingMean

        with pytest.raises(ValueError):
            SlidingMean(0)
        with pytest.raises(ValueError):
            Ewma(0.0)


class TestNetworkPairsProvider:
    def make(self, strict=False):
        rng = random.Random(0)
        store = SeriesStore(probe=lambda s: 100.0 + rng.gauss(0, 5), min_samples=3)
        lat = SeriesStore(probe=lambda s: 0.04, min_samples=1)
        return NetworkPairsProvider(store, lat, strict=strict)

    def test_lazy_generation_via_filter(self):
        p = self.make()
        out = p.search(
            SearchRequest(
                base="nw=links, o=O1",
                scope=Scope.SUBTREE,
                filter=parse_filter("(&(src=ucla.edu)(dst=anl.gov))"),
            ),
            suffix=DN.parse("o=O1"),
        )
        assert len(out) == 1
        e = out[0]
        assert e.first("src") == "ucla.edu"
        assert 80 < float(e.first("bandwidth")) < 120
        assert e.has("latency")
        assert str(e.dn).startswith("link=ucla.edu:anl.gov")

    def test_lazy_generation_via_base_dn(self):
        p = self.make()
        out = p.search(
            SearchRequest(base="link=a:b, nw=links, o=O1", scope=Scope.BASE),
            suffix=DN.parse("o=O1"),
        )
        assert len(out) == 1

    def test_wide_search_partial_results(self):
        p = self.make()
        # materialize two pairs first
        for pair in ("(&(src=a)(dst=b))", "(&(src=c)(dst=d))"):
            p.search(
                SearchRequest(
                    base="nw=links, o=O1",
                    scope=Scope.SUBTREE,
                    filter=parse_filter(pair),
                ),
                suffix=DN.parse("o=O1"),
            )
        wide = p.search(
            SearchRequest(base="nw=links, o=O1", scope=Scope.SUBTREE),
            suffix=DN.parse("o=O1"),
        )
        assert len(wide) == 2  # only materialized links; namespace is infinite

    def test_strict_mode_returns_nothing_for_wide(self):
        p = self.make(strict=True)
        out = p.search(
            SearchRequest(base="nw=links, o=O1", scope=Scope.SUBTREE),
            suffix=DN.parse("o=O1"),
        )
        assert out == []

    def test_integration_with_gris(self):
        sim = Simulator()
        gris = GrisBackend("o=O1", clock=sim)
        gris.add_provider(self.make())
        out = gris.search(
            SearchRequest(
                base="nw=links, o=O1",
                scope=Scope.SUBTREE,
                filter=parse_filter("(&(src=x)(dst=y))"),
            ),
            CTX,
        )
        assert len(out.entries) == 1
        assert str(out.entries[0].dn) == "link=x:y, nw=links, o=O1"

    def test_series_name_helper(self):
        assert pair_series("a", "b", "bw") == "bw:a->b"
