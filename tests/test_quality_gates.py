"""Repository-wide quality gates and cross-implementation checks."""

import ast
import importlib
import pathlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro


def _all_modules():
    root = pathlib.Path(repro.__file__).parent
    names = ["repro"]
    for info in pkgutil.walk_packages([str(root)], prefix="repro."):
        names.append(info.name)
    return names


def _import_statements():
    """(file:line, module, imported names) for every import under src/,
    examples/, tests/ and benchmarks/; ``import a.b`` names nothing.
    Walking the syntax tree keeps a gate from matching its own text."""
    root = pathlib.Path(__file__).parents[1]
    for top in ("src", "examples", "tests", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        yield where, alias.name, set()
                elif isinstance(node, ast.ImportFrom):
                    yield where, node.module or "", {a.name for a in node.names}


class TestDocumentation:
    @pytest.mark.parametrize("name", _all_modules())
    def test_every_module_has_a_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"

    def test_public_classes_documented(self):
        undocumented = []
        for name in _all_modules():
            module = importlib.import_module(name)
            for attr in getattr(module, "__all__", []):
                obj = getattr(module, attr, None)
                if isinstance(obj, type) and obj.__module__ == name:
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{name}.{attr}")
        assert not undocumented, f"undocumented public classes: {undocumented}"


class TestOneSearchPath:
    def test_backend_search_surface_and_no_lane_switches(self):
        """``submit_search_stream`` is the contract and ``search`` its one
        synchronous consumer; the slow lanes have no constructor switch."""
        import inspect

        from repro.giis.core import GiisBackend
        from repro.ldap.backend import Backend
        from repro.ldap.server import LdapServer

        surface = {
            name
            for name in vars(Backend)
            if "search" in name and not name.startswith("_")
        }
        assert surface == {"submit_search_stream", "search"}
        for cls, switch in ((GiisBackend, "relay"), (LdapServer, "encode_cache")):
            assert switch not in inspect.signature(cls.__init__).parameters


class TestOneWireTransport:
    """The reactor is the only socket path: nothing selects a transport."""

    GONE = {"TcpEndpoint", "TcpConnection", "TRANSPORTS"}

    def test_nothing_imports_the_thread_transport(self):
        offenders = []
        for where, module, names in _import_statements():
            last = module.rpartition(".")[2]
            if last == "tcp" or (last in ("net", "") and "tcp" in names) or names & self.GONE:
                offenders.append(where)
        assert not offenders

    def test_server_has_no_transport_flag(self):
        from repro.tools.grid_info_server import build_parser

        assert "--transport" not in build_parser().format_help()

    def test_make_endpoint_accepts_only_reactor(self):
        from repro.net import ReactorEndpoint, make_endpoint

        endpoint = make_endpoint("reactor")
        endpoint.close()
        assert type(endpoint) is ReactorEndpoint
        with pytest.raises(ValueError):
            make_endpoint("threads")


class TestOneDurableEngine:
    """WAL is the only durable engine and ``PullIndex`` the only pulled
    store: no mirror engine, no unread index, no per-directory copies."""

    GONE = {"SqliteEngine", "EntryCacheIndex"}

    def test_nothing_imports_the_deleted_engine_or_index(self):
        gone = self.GONE | {"sqlite3", "sqlite"}
        offenders = [
            where
            for where, module, names in _import_statements()
            if (names | set(module.split("."))) & gone
        ]
        assert not offenders

    def test_backends_and_server_help(self):
        from repro.ldap.storage import BACKENDS
        from repro.tools.grid_info_server import build_parser

        assert BACKENDS == ("memory", "wal")
        assert "sqlite" not in build_parser().format_help().lower()

    def test_giis_takes_no_index_attrs(self):
        import inspect

        from repro.giis import GiisBackend

        assert "index_attrs" not in inspect.signature(GiisBackend).parameters

    def test_no_directory_keeps_a_store_of_its_own(self):
        from repro.giis import PullIndex

        def family(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from family(sub)

        shipped = [c for c in family(PullIndex) if c.__module__.startswith("repro.")]
        assert len(shipped) >= 3  # the base, relational, matchmaker
        for cls in shipped:
            assert not {"store", "evict"} & set(vars(cls)), cls


class TestGrisServesItsSnapshots:
    """Each served GRIS snapshot carries its own index; no DIT mirrors it."""

    def test_gris_core_imports_no_dit(self):
        offenders = [
            where
            for where, module, names in _import_statements()
            if where.startswith("src/repro/gris/core.py:") and "DIT" in names
        ]
        assert not offenders

    def test_gris_backend_has_no_view(self):
        from repro.gris import GrisBackend
        from repro.ldap.storage import MemoryEngine
        from repro.net.sim import Simulator

        gris = GrisBackend("o=Grid", Simulator(), index_attrs=("hn",), storage=MemoryEngine())
        assert not hasattr(gris, "_view")
        assert not [name for name in (*vars(GrisBackend), *vars(gris)) if "view" in name]


class TestGiisSearchBuildsNothing:
    """Per-message work stays per message: a GIIS search neither builds a
    registration entry nor parses a URL, however many providers are in."""

    def test_searches_build_no_entries_and_a_refresh_builds_one(self, monkeypatch):
        import inspect

        from repro.giis.core import GiisBackend
        from repro.grip.messages import GrrpMessage
        from repro.ldap.backend import RequestContext
        from repro.ldap.dit import Scope
        from repro.ldap.protocol import SearchRequest
        from repro.ldap.url import LdapUrl
        from repro.net.sim import Simulator

        calls = {"to_entry": 0, "parse": 0}
        to_entry, parse = GrrpMessage.to_entry, LdapUrl.parse.__func__

        def counting_to_entry(self, *args, **kwargs):
            calls["to_entry"] += 1
            return to_entry(self, *args, **kwargs)

        def counting_parse(cls, text):
            calls["parse"] += 1
            return parse(cls, text)

        monkeypatch.setattr(GrrpMessage, "to_entry", counting_to_entry)
        monkeypatch.setattr(LdapUrl, "parse", classmethod(counting_parse))

        def message(k, ts):
            return GrrpMessage(
                f"ldap://node{k}:2135/", timestamp=ts, valid_until=ts + 600.0,
                metadata={"suffix": f"hn=node{k}, o=Grid"},
            )

        giis = GiisBackend("o=Grid", clock=Simulator(), mode="referral")
        for k in range(50):
            giis.apply_grrp(message(k, 0.0))
        assert calls == {"to_entry": 50, "parse": 50}

        def search(base, scope):
            entries, done = [], []
            giis.submit_search_stream(
                SearchRequest(base=base, scope=scope), RequestContext(),
                entries.append, done.append,
            )
            return len(entries), len(done[0].referrals)

        calls.update(to_entry=0, parse=0)
        for i in range(100):
            assert search(f"hn=node{i % 50}, o=Grid", Scope.SUBTREE) == (0, 1)  # discovery
            assert search("o=Grid", Scope.SUBTREE) == (51, 50)  # VO-wide
        assert calls == {"to_entry": 0, "parse": 0}

        giis.apply_grrp(message(7, 1.0))  # one refresh: one entry, the referral carried over
        assert calls == {"to_entry": 1, "parse": 0}

        # and the search path never asks the registry for a copied list
        for method in ("submit_search_stream", "_route", "_local", "local_entries"):
            assert "registry.active()" not in inspect.getsource(getattr(GiisBackend, method))


class TestServerFilteringMatchesLocalSemantics:
    """Cross-check: entries a server returns for a filter are exactly
    the entries whose full content matches the filter locally."""

    @given(
        st.sampled_from(
            [
                "(objectclass=computer)",
                "(load5<=3.0)",
                "(&(objectclass=computer)(cpucount>=4))",
                "(|(system=*irix*)(system=*linux*))",
                "(!(load5>=2.0))",
                "(hn=host00*)",
                "(cpucount~=8)",
            ]
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_wire_results_equal_local_filtering(self, filter_text):
        from repro.ldap.backend import DitBackend
        from repro.ldap.client import LdapClient
        from repro.ldap.dit import DIT, Scope
        from repro.ldap.dn import DN
        from repro.ldap.entry import Entry
        from repro.ldap.filter import parse as parse_filter
        from repro.ldap.server import LdapServer
        from repro.net.sim import Simulator
        from repro.net.simnet import SimNetwork

        dit = DIT()
        for i in range(12):
            host = f"host{i:03d}"
            dit.add(
                Entry(
                    f"hn={host}",
                    objectclass="computer",
                    hn=host,
                    system="linux" if i % 2 else "mips irix",
                    cpucount=1 << (i % 4),
                    load5=f"{i / 4:.1f}",
                )
            )
        sim = Simulator()
        net = SimNetwork(sim)
        net.add_node("s").listen(
            389, LdapServer(DitBackend(dit), clock=sim).handle_connection
        )
        client = LdapClient(net.add_node("u").connect(("s", 389)), driver=sim.step)
        over_wire = {
            str(e.dn) for e in client.search("", Scope.SUBTREE, filter_text)
        }
        filt = parse_filter(filter_text)
        local = {
            str(e.dn)
            for e in dit.search(DN.root(), Scope.SUBTREE)
            if filt.matches(e)
        }
        assert over_wire == local


class TestGiisCachePreservesStamps:
    def test_cached_entries_keep_original_timestamps(self):
        """Query-cache hits serve the originally-stamped data, so
        consumers can still judge currency (§2.1/§3)."""
        from repro.testbed import GridTestbed

        tb = GridTestbed(seed=95)
        giis = tb.add_giis("giis", "o=Grid", cache_ttl=300.0)
        gris = tb.standard_gris("r0", "hn=r0, o=Grid", load_ttl=5.0)
        tb.register(gris, giis, name="r0")
        tb.run(1.0)
        client = tb.client("u", giis)
        first = client.search("o=Grid", filter="(objectclass=loadaverage)")
        stamp0 = first.entries[0].timestamp()
        tb.run(60.0)
        again = client.search("o=Grid", filter="(objectclass=loadaverage)")
        assert giis.backend.metrics.counter("giis.query_cache.hits").value >= 1
        assert again.entries[0].timestamp() == stamp0  # honest staleness
        # the consumer can detect it is stale relative to the TTL
        assert again.entries[0].is_stale(tb.sim.now())
