"""Tests for GRIS configuration files and the CLI tools."""

import io
import json
import threading
import time

import pytest

from repro.gris.config import (
    ConfigError,
    build_gris,
    load_config,
)
from repro.ldap.backend import RequestContext
from repro.ldap.dit import Scope
from repro.ldap.filter import parse as parse_filter
from repro.ldap.protocol import SearchRequest
from repro.net.sim import Simulator
from repro.tools.grid_info_search import main as search_main
from repro.tools.grid_info_server import main as server_main, start_server
from repro.tools.grid_info_top import main as top_main

CTX = RequestContext()


def write_config(tmp_path, **overrides):
    config = {
        "suffix": "hn=cfg-host, o=Demo",
        "providers": [
            {
                "type": "static-host",
                "hostname": "cfg-host",
                "cpu_count": 8,
                "memory_mb": 2048,
                "base": "",
            },
            {"type": "dynamic-host", "hostname": "cfg-host", "base": "", "cache_ttl": 5},
            {
                "type": "storage",
                "hostname": "cfg-host",
                "store": "root",
                "path": "/",
                "base": "",
            },
            {"type": "queue", "hostname": "cfg-host", "base": ""},
        ],
    }
    config.update(overrides)
    path = tmp_path / "gris.json"
    path.write_text(json.dumps(config))
    return path


class TestConfig:
    def test_load_and_build(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path, load_sensor=lambda: (0.1, 0.2, 0.3))
        assert len(config.providers) == 4
        gris = build_gris(config, clock=Simulator())
        req = SearchRequest(
            base="hn=cfg-host, o=Demo",
            scope=Scope.SUBTREE,
            filter=parse_filter("(objectclass=*)"),
        )
        out = gris.search(req, CTX)
        classes = {oc for e in out.entries for oc in e.object_classes}
        assert {"computer", "loadaverage", "filesystem", "queue"} <= classes

    def test_static_host_values(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path, load_sensor=lambda: (0, 0, 0))
        gris = build_gris(config, clock=Simulator())
        req = SearchRequest(
            base="hn=cfg-host, o=Demo",
            scope=Scope.BASE,
            filter=parse_filter("(objectclass=*)"),
        )
        entry = gris.search(req, CTX).entries[0]
        assert entry.first("cpucount") == "8"
        assert entry.first("memorysize") == "2048 MB"

    def test_ldif_provider(self, tmp_path):
        (tmp_path / "site.ldif").write_text(
            "dn: ou=site-info\nobjectclass: organizationalunit\nou: site-info\n"
        )
        path = write_config(
            tmp_path,
            providers=[{"type": "ldif", "file": "site.ldif", "name": "site"}],
        )
        config = load_config(path)
        gris = build_gris(config, clock=Simulator())
        req = SearchRequest(
            base="hn=cfg-host, o=Demo",
            scope=Scope.SUBTREE,
            filter=parse_filter("(ou=site-info)"),
        )
        assert len(gris.search(req, CTX).entries) == 1

    def test_registrations_parsed(self, tmp_path):
        path = write_config(
            tmp_path,
            registrations=[
                {
                    "directory": "ldap://giis:2135/o=Grid",
                    "interval": 10,
                    "ttl": 30,
                    "name": "cfg-host",
                    "vo": "DemoVO",
                }
            ],
        )
        config = load_config(path)
        assert len(config.registrations) == 1
        spec = config.registrations[0]
        assert spec.directory == "ldap://giis:2135/o=Grid"
        assert spec.ttl == 30.0

    @pytest.mark.parametrize(
        "broken",
        [
            {"suffix": "not a=dn==broken,"},
            {"providers": [{"type": "warp-drive"}]},
            {"providers": [{"type": "static-host"}]},  # missing hostname
            {"providers": [{"type": "ldif", "file": "missing.ldif"}]},
            {"registrations": [{"interval": 5}]},  # missing directory
        ],
    )
    def test_malformed_configs(self, tmp_path, broken):
        path = write_config(tmp_path, **broken)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1,2,3]")
        with pytest.raises(ConfigError, match="suffix"):
            load_config(path)


class TestCliTools:
    @pytest.fixture
    def running_server(self, tmp_path):
        path = write_config(tmp_path)
        endpoint, port, registrants, server = start_server(str(path), port=0)
        yield port
        endpoint.close()

    def test_search_cli_ldif_output(self, running_server):
        out = io.StringIO()
        rc = search_main(
            [
                "-H",
                "127.0.0.1",
                "-p",
                str(running_server),
                "-b",
                "hn=cfg-host, o=Demo",
                "-s",
                "sub",
                "(objectclass=computer)",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "dn: hn=cfg-host, o=Demo" in text
        assert "# 1 entries returned" in text

    def test_search_cli_attr_selection(self, running_server):
        out = io.StringIO()
        rc = search_main(
            [
                "-p",
                str(running_server),
                "-b",
                "hn=cfg-host, o=Demo",
                "(objectclass=computer)",
                "cpucount",
            ],
            out=out,
        )
        assert rc == 0
        assert "cpucount: 8" in out.getvalue()
        assert "memorysize" not in out.getvalue()

    def test_search_cli_no_such_object(self, running_server):
        out = io.StringIO()
        rc = search_main(
            ["-p", str(running_server), "-b", "o=Nowhere", "-s", "base"],
            out=out,
        )
        assert rc == 1

    def test_search_cli_connection_refused(self):
        rc = search_main(["-p", "1", "-b", ""])
        assert rc == 2

    def test_top_cli_runs_on_one_endpoint(self, tmp_path):
        """One loop thread for the whole run — not one per server per
        refresh — and none left behind."""
        path = write_config(tmp_path)
        servers = [
            start_server(str(path), port=0, monitor=True) for _ in range(3)
        ]
        try:
            before = set(threading.enumerate())
            loops = set()

            class Out(io.StringIO):
                def flush(self):  # called once per refresh
                    loops.update(
                        t
                        for t in set(threading.enumerate()) - before
                        if t.name == "reactor"
                    )

            out = Out()
            specs = [f"127.0.0.1:{port}" for _, port, _, _ in servers]
            rc = top_main(["--count", "3", "--interval", "0.01"] + specs, out=out)
            assert rc in (0, 1)  # every server reachable, whatever its health
            assert out.getvalue().count("3 server(s)") == 3
            assert len(loops) == 1
            assert not any(t.is_alive() for t in loops)
        finally:
            for endpoint, _, _, server in servers:
                server.recorder.stop()
                endpoint.close()
                server.executor.shutdown()

    def test_server_cli_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = server_main(["--config", str(bad), "--port", "0"], run_forever=False)
        assert rc == 2

    def test_server_cli_starts(self, tmp_path):
        path = write_config(tmp_path)
        rc = server_main(["--config", str(path), "--port", "0"], run_forever=False)
        assert rc == 0

    def test_server_registers_with_directory(self, tmp_path):
        """End-to-end over real TCP: a config-driven GRIS registers with
        a GIIS, which then chains queries to it."""
        from repro.giis.core import GiisBackend
        from repro.ldap.server import LdapServer
        from repro.net.clock import WallClock
        from repro.net.reactor import ReactorEndpoint

        clock = WallClock()
        giis_endpoint = ReactorEndpoint()
        giis = GiisBackend(
            "o=Demo",
            clock=clock,
            connector=lambda url: giis_endpoint.connect(url.address),
        )
        giis_server = LdapServer(giis, clock=clock)
        giis_port = giis_endpoint.listen(0, giis_server.handle_connection)

        path = write_config(
            tmp_path,
            registrations=[
                {
                    "directory": f"ldap://127.0.0.1:{giis_port}/o=Demo",
                    "interval": 1,
                    "ttl": 10,
                    "name": "cfg-host",
                }
            ],
        )
        gris_endpoint, gris_port, registrants, _ = start_server(str(path), port=0)
        try:
            deadline = time.time() + 5.0
            while not giis.registry.active() and time.time() < deadline:
                time.sleep(0.02)
            active = giis.registry.active()
            assert len(active) == 1
            assert f":{gris_port}" in active[0].service_url

            # and the GIIS can chain a query through to the GRIS
            from repro.ldap.client import LdapClient

            client = LdapClient(giis_endpoint.connect(("127.0.0.1", giis_port)))
            out = client.search("o=Demo", filter="(objectclass=computer)")
            assert len(out.entries) == 1
            assert out.entries[0].first("hn") == "cfg-host"
            client.unbind()
        finally:
            for registrant in registrants:
                registrant.stop()
            gris_endpoint.close()
            giis_endpoint.close()


class TestCliGsiAuth:
    def test_search_cli_with_credential(self, tmp_path):
        """grid-info-search --credential performs a GSI bind over TCP."""
        import random
        import time

        from repro.ldap.backend import DitBackend
        from repro.ldap.dit import DIT
        from repro.ldap.entry import Entry
        from repro.ldap.server import LdapServer
        from repro.net.reactor import ReactorEndpoint
        from repro.security import (
            CertificateAuthority,
            GsiAuthenticator,
            TrustStore,
            authenticated_policy,
            credential_to_json,
        )

        rng = random.Random(7)
        # real wall-clock validity: the server checks against time.time()
        ca = CertificateAuthority("CN=CliCA", rng=rng, bits=256, now=time.time())
        alice = ca.issue("CN=alice", rng=rng, bits=256, now=time.time())
        cred_file = tmp_path / "alice.cred"
        cred_file.write_text(credential_to_json(alice))

        endpoint = ReactorEndpoint()
        dit = DIT()
        dit.add(Entry("o=Sec", objectclass="organization", o="Sec"))
        server_holder = {}

        def start(port_placeholder):
            auth = GsiAuthenticator(
                TrustStore([ca.certificate]),
                f"ldap://127.0.0.1:{port_placeholder}/",
                clock=time.time,
            )
            server = LdapServer(
                DitBackend(dit), authenticator=auth, policy=authenticated_policy()
            )
            return server

        # bind the listener first to learn the port, then set the target
        import socket as _socket

        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = start(port)
        endpoint.listen(port, server.handle_connection)
        try:
            # anonymous: policy hides everything
            out = io.StringIO()
            rc = search_main(["-p", str(port), "-b", "o=Sec"], out=out)
            assert rc == 0
            assert "# 0 entries returned" in out.getvalue()

            # authenticated via --credential: entry visible
            out = io.StringIO()
            rc = search_main(
                ["-p", str(port), "-b", "o=Sec", "--credential", str(cred_file)],
                out=out,
            )
            assert rc == 0
            assert "dn: o=Sec" in out.getvalue()

            # bad credential file
            bad = tmp_path / "bad.cred"
            bad.write_text("junk")
            rc = search_main(
                ["-p", str(port), "-b", "o=Sec", "--credential", str(bad)]
            )
            assert rc == 2
        finally:
            endpoint.close()

    def test_trust_store_roundtrip(self):
        import random

        from repro.security import CertificateAuthority, TrustStore
        from repro.security.gsi import trust_store_from_json, trust_store_to_json

        ca = CertificateAuthority("CN=X", rng=random.Random(2), bits=256)
        trust = TrustStore([ca.certificate])
        back = trust_store_from_json(trust_store_to_json(trust))
        assert back.anchors() == trust.anchors()

    def test_trust_store_malformed(self):
        from repro.security import AuthError
        from repro.security.gsi import trust_store_from_json

        import pytest as _pytest

        with _pytest.raises(AuthError):
            trust_store_from_json("nope")
