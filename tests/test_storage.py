"""Durable DIT storage: the ChangeOp choke point and the two engines.

Layers:

* unit tests for :class:`ChangeOp` (record round-trip) and the
  :func:`make_storage` factory's validation errors;
* engine equivalence: the same mutation sequence through memory- and
  WAL-backed DITs yields byte-identical trees and searches, before and
  after a restart;
* crash-tail semantics: a WAL truncated or corrupted at any byte
  recovers exactly the prefix of fully-framed ops (hypothesis property
  with an independent frame-offset oracle), planned searches included,
  and a crash at any point inside ``snapshot()`` recovers the whole tree;
* snapshot/compaction lifecycle, including the auto-snapshot threshold
  and replay of a stale log over its own snapshot (idempotence);
* GIIS/GRIS warm restart: registrations and the materialized view
  survive a process death, over both real transports;
* the ``clear()`` index-gauge regression (per-attribute
  ``ldap.index.size`` must read zero after a wholesale clear).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.giis.core import GiisBackend
from repro.grip.messages import GrrpMessage
from repro.ldap.dit import DIT, EntryExists, Scope
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.storage import (
    BACKENDS,
    ChangeKind,
    ChangeOp,
    MemoryEngine,
    StorageError,
    WalEngine,
    entry_from_record,
    entry_to_record,
    make_storage,
    parse_storage_spec,
    read_wal,
)
from repro.ldap.storage.wal import SNAPSHOT_FILE, WAL_FILE, _encode_record
from repro.net.clock import WallClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _host(n, cpu="x86"):
    return Entry(
        f"hn=node{n}, o=Site, o=Grid",
        objectclass=["computer"],
        hn=[f"node{n}"],
        cpu=[cpu],
    )


def _engines(tmp_path, tag=""):
    return {
        "memory": MemoryEngine(),
        "wal": WalEngine(tmp_path / f"wal{tag}"),
    }


class TestChangeOp:
    def test_put_roundtrip_preserves_attr_case(self):
        entry = Entry("hn=a, o=G", attrs={"ObjectClass": ["computer"], "Hn": "a"})
        op = ChangeOp.put(entry)
        back = ChangeOp.from_record(json.loads(json.dumps(op.to_record())))
        assert back.kind == ChangeKind.PUT
        assert back.entry == entry
        assert dict(back.entry.items()) == dict(entry.items())

    def test_delete_and_clear_roundtrip(self):
        dn = DN.parse("hn=a, o=G")
        assert ChangeOp.from_record(ChangeOp.delete(dn).to_record()).dn == dn
        assert ChangeOp.from_record(ChangeOp.clear().to_record()).kind == ChangeKind.CLEAR

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            ChangeOp.from_record({"op": "compact"})

    def test_entry_record_roundtrip(self):
        entry = _host(1)
        assert entry_from_record(entry_to_record(entry)) == entry


class TestFactory:
    def test_backend_names(self, tmp_path):
        for backend in BACKENDS:
            engine = make_storage(backend, tmp_path / backend)
            assert engine.backend_name == backend
            engine.close()

    def test_unknown_backend(self):
        with pytest.raises(StorageError, match="unknown storage backend"):
            make_storage("bdb", "/tmp/x")

    def test_durable_backend_requires_path(self):
        with pytest.raises(StorageError, match="requires a data"):
            make_storage("wal")

    def test_unknown_fsync_policy(self, tmp_path):
        spec = parse_storage_spec({"backend": "wal", "path": str(tmp_path)})
        assert spec.fsync == "batch"
        with pytest.raises(StorageError, match="unknown fsync policy"):
            parse_storage_spec({"backend": "wal", "fsync": "sometimes"})

    def test_unknown_option_rejected(self):
        with pytest.raises(StorageError, match="unknown storage option"):
            parse_storage_spec({"backend": "wal", "dir": "/x"})

    def test_negative_snapshot_every_rejected(self):
        with pytest.raises(StorageError, match="snapshot_every"):
            parse_storage_spec({"snapshot_every": -1})

    def test_config_spec_defers_path_check_to_factory(self):
        # A config may say {"backend": "wal"} and rely on --data-dir.
        spec = parse_storage_spec({"backend": "wal"})
        with pytest.raises(StorageError, match="requires a data"):
            make_storage(spec)

    def test_memory_ignores_path(self):
        assert make_storage("memory").backend_name == "memory"


class TestAnUnknownBackendStopsTheServer:
    """A name that is not an engine — the deleted ``sqlite`` included —
    ends startup with status 2; it never falls back to memory."""

    def test_config_naming_it(self, tmp_path, capsys):
        from repro.tools.grid_info_server import main

        config = tmp_path / "giis.json"
        config.write_text(
            json.dumps({"suffix": "o=Grid", "giis": {}, "storage": {"backend": "sqlite"}})
        )
        args = ["--config", str(config), "--port", "0", "--data-dir", str(tmp_path / "d")]
        assert main(args, run_forever=False) == 2
        message = "unknown storage backend 'sqlite' (choose from memory, wal)"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_flag_naming_it(self, tmp_path, capsys):
        from repro.tools.grid_info_server import main

        config = tmp_path / "giis.json"
        config.write_text(json.dumps({"suffix": "o=Grid", "giis": {}}))
        with pytest.raises(SystemExit) as refused:  # argparse: not among the choices
            main(["--config", str(config), "--storage", "sqlite"], run_forever=False)
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'sqlite'" in err and "wal" in err


def _mutate(dit):
    """A fixed mutation sequence exercising every DIT write op."""
    dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
    dit.add(Entry("o=Site, o=Grid", objectclass="organization", o="Site"))
    for n in range(6):
        dit.add(_host(n))
    dit.replace(_host(0, cpu="sparc"))
    dit.modify("hn=node1, o=Site, o=Grid", lambda e: e.put("cpu", "mips"))
    dit.delete("hn=node5, o=Site, o=Grid")
    with pytest.raises(EntryExists):
        dit.add(_host(2))
    dit.load([_host(7), _host(8)])
    dit.delete("hn=node8, o=Site, o=Grid")


def _shape(dit):
    return [(str(e.dn), sorted((a, list(v)) for a, v in e.items())) for e in dit.dump()]


class TestEngineEquivalence:
    def test_same_sequence_same_tree(self, tmp_path):
        shapes = {}
        for name, engine in _engines(tmp_path).items():
            dit = DIT(index_attrs=("cpu",), storage=engine)
            _mutate(dit)
            out = dit.search("o=Grid", Scope.SUBTREE, parse_filter("(cpu=x86)"))
            assert dit.metrics.counter("ldap.search.planned").value == 1
            shapes[name] = (_shape(dit), [str(e.dn) for e in out])
            engine.close()
        assert shapes["wal"] == shapes["memory"]

    @pytest.mark.parametrize("backend", ["wal"])
    def test_restart_is_byte_identical(self, tmp_path, backend):
        baseline = DIT(index_attrs=("cpu",))
        _mutate(baseline)

        engine = _engines(tmp_path)[backend]
        _mutate(DIT(index_attrs=("cpu",), storage=engine))
        engine.close()

        reopened = _engines(tmp_path)[backend]
        dit = DIT(index_attrs=("cpu",), storage=reopened)
        assert _shape(dit) == _shape(baseline)
        planned = dit.search("o=Grid", Scope.SUBTREE, parse_filter("(cpu=mips)"))
        expect = baseline.search("o=Grid", Scope.SUBTREE, parse_filter("(cpu=mips)"))
        assert [str(e.dn) for e in planned] == [str(e.dn) for e in expect]
        assert dit.metrics.counter("ldap.search.planned").value == 1
        reopened.close()

    def test_clear_persists(self, tmp_path):
        engine = WalEngine(tmp_path / "w")
        dit = DIT(storage=engine)
        dit.add(Entry("o=Grid", objectclass="organization", o="Grid"))
        dit.clear()
        dit.add(Entry("o=New", objectclass="organization", o="New"))
        engine.close()
        dit2 = DIT(storage=WalEngine(tmp_path / "w"))
        assert [str(dn) for dn in dit2.dns()] == ["o=New"]
        dit2.storage.close()


class TestWalLifecycle:
    def test_snapshot_compacts_the_log(self, tmp_path):
        engine = WalEngine(tmp_path / "w", fsync="never")
        dit = DIT(storage=engine)
        _mutate(dit)
        assert engine.wal_size > 0
        written = engine.snapshot()
        assert written == len(dit)
        assert engine.wal_size == 0
        assert engine.ops_since_snapshot == 0
        engine.close()
        dit2 = DIT(storage=WalEngine(tmp_path / "w"))
        assert dit2.replayed_ops == 0  # state came from the snapshot alone
        assert _shape(dit2) == _shape(dit)
        dit2.storage.close()

    def test_auto_snapshot_threshold(self, tmp_path):
        engine = WalEngine(tmp_path / "w", fsync="never", snapshot_every=5)
        dit = DIT(storage=engine)
        for n in range(11):
            dit.add(_host(n))
        # Two auto-snapshots fired; at most the tail ops remain logged.
        assert engine.ops_since_snapshot < 5
        engine.close()

    def test_stale_log_over_snapshot_is_idempotent(self, tmp_path):
        """A crash between snapshot-rename and WAL-truncate must be safe."""
        engine = WalEngine(tmp_path / "w", fsync="never")
        dit = DIT(storage=engine)
        _mutate(dit)
        shape = _shape(dit)
        wal_bytes = (tmp_path / "w" / WAL_FILE).read_bytes()
        engine.snapshot()
        engine.close()
        # Resurrect the pre-snapshot log: replay now applies every old op
        # on top of the snapshot that already contains their effects.
        (tmp_path / "w" / WAL_FILE).write_bytes(wal_bytes)
        dit2 = DIT(storage=WalEngine(tmp_path / "w"))
        assert dit2.replayed_ops > 0
        assert _shape(dit2) == shape
        dit2.storage.close()

    def test_corrupt_frame_discards_the_tail(self, tmp_path):
        engine = WalEngine(tmp_path / "w", fsync="never")
        for n in range(4):
            engine.apply(ChangeOp.put(_host(n)))
        engine.close()
        path = tmp_path / "w" / WAL_FILE
        raw = bytearray(path.read_bytes())
        sizes = [len(_encode_record(ChangeOp.put(_host(n)))) for n in range(4)]
        # Flip one payload byte inside the third record.
        raw[sum(sizes[:2]) + 12] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert [op.dn for op in read_wal(path)] == [_host(0).dn, _host(1).dn]
        recovered = WalEngine(tmp_path / "w")
        assert recovered.replay() == 2  # the corrupt frame and everything after it is gone
        assert set(recovered.entries) == {_host(0).dn, _host(1).dn}
        recovered.close()

    def test_replay_is_idempotent(self, tmp_path):
        engine = WalEngine(tmp_path / "w", fsync="never")
        engine.apply(ChangeOp.put(_host(1)))
        engine.close()
        reopened = WalEngine(tmp_path / "w")
        assert reopened.replay() == 1
        assert reopened.replay() == 0
        reopened.close()

    def test_metrics_and_spans(self, tmp_path):
        metrics = MetricsRegistry()
        spans = []
        tracer = Tracer(WallClock().now)
        tracer.add_sink(lambda span: spans.append(span.name))
        engine = WalEngine(
            tmp_path / "w", fsync="never", metrics=metrics, tracer=tracer, name="t"
        )
        engine.apply(ChangeOp.put(_host(1)))
        engine.snapshot()
        engine.close()
        labels = {"store": "t"}
        assert metrics.get("storage.wal.appends", labels).value == 1
        assert metrics.get("storage.wal.bytes", labels).value > 0
        assert metrics.get("storage.snapshot.seconds", labels).snapshot()["count"] == 1
        reopened = WalEngine(
            tmp_path / "w", metrics=metrics, tracer=tracer, name="t"
        )
        reopened.replay()
        reopened.close()
        assert metrics.get("storage.replay.ops", labels).value == 0  # compacted
        assert metrics.get("storage.entries", labels).value == 1.0
        assert "storage.snapshot" in spans and "storage.replay" in spans


# -- the crash property -------------------------------------------------------

_DNS = [
    "o=Grid",
    "o=Site, o=Grid",
    "hn=a, o=Site, o=Grid",
    "hn=b, o=Site, o=Grid",
    "hn=c, o=Other, o=Grid",
]

_op = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(_DNS),
        st.sampled_from(["x86", "mips", "sparc"]),
    ),
    st.tuples(st.just("delete"), st.sampled_from(_DNS), st.none()),
    st.tuples(st.just("clear"), st.none(), st.none()),
)


def _build_ops(script):
    ops = []
    for kind, dn, cpu in script:
        if kind == "put":
            ops.append(
                ChangeOp.put(Entry(dn, objectclass=["computer"], cpu=[cpu]))
            )
        elif kind == "delete":
            ops.append(ChangeOp.delete(dn))
        else:
            ops.append(ChangeOp.clear())
    return ops


@settings(max_examples=40, deadline=None)
@given(script=st.lists(_op, min_size=1, max_size=12), data=st.data())
def test_crash_at_any_byte_boundary_replays_the_clean_prefix(
    tmp_path_factory, script, data
):
    """Truncating the WAL anywhere recovers exactly the framed prefix.

    The oracle is independent of the recovery scanner: frame offsets are
    recomputed from the encoder, and the expected state is the op prefix
    applied to a plain in-memory engine.  Planned searches over the
    recovered tree must match the expectation too.
    """
    tmp = tmp_path_factory.mktemp("crash")
    ops = _build_ops(script)
    engine = WalEngine(tmp / "w", fsync="never")
    for op in ops:
        engine.apply(op)
    engine.close()

    path = tmp / "w" / WAL_FILE
    raw = path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut")
    path.write_bytes(raw[:cut])

    # Independent oracle: how many ops fit entirely within `cut` bytes?
    offsets, total = [], 0
    for op in ops:
        total += len(_encode_record(op))
        offsets.append(total)
    survivors = sum(1 for end in offsets if end <= cut)

    expected = MemoryEngine()
    for op in ops[:survivors]:
        expected.apply(op)

    recovered = DIT(index_attrs=("cpu",), storage=WalEngine(tmp / "w"))
    assert recovered.replayed_ops == survivors
    assert {str(dn) for dn in recovered.dns()} == {
        str(dn) for dn in expected.entries
    }
    baseline = DIT(index_attrs=("cpu",), storage=expected)
    for filt in ("(cpu=x86)", "(&(objectclass=computer)(cpu=mips))"):
        got = recovered.search("o=Grid", Scope.SUBTREE, parse_filter(filt))
        want = baseline.search("o=Grid", Scope.SUBTREE, parse_filter(filt))
        assert _shape_of(got) == _shape_of(want)
    assert recovered.metrics.counter("ldap.search.planned").value == 2
    recovered.storage.close()


def _shape_of(entries):
    return [(str(e.dn), sorted((a, list(v)) for a, v in e.items())) for e in entries]


_SNAPSHOT_CRASHES = ("tmp torn", "tmp complete", "renamed, log full", "log truncated")


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(_op, min_size=1, max_size=12),
    earlier=st.integers(min_value=0, max_value=12),
    crash=st.sampled_from(_SNAPSHOT_CRASHES),
    data=st.data(),
)
def test_crash_at_any_point_inside_snapshot_recovers_the_whole_tree(
    tmp_path_factory, script, earlier, crash, data
):
    """Dying anywhere in ``snapshot()`` loses nothing that was logged.

    ``snapshot()`` writes ``snapshot.tmp``, renames it over the
    checkpoint, then truncates the log.  Each point it can die at is
    laid out on disk by hand — the checkpoint an *earlier* snapshot left
    (none when ``earlier`` is 0), the log since then, and the new
    checkpoint's bytes as far as they got — and reopened.  The oracle is
    every op applied to a plain in-memory engine.
    """
    tmp = tmp_path_factory.mktemp("snapcrash")
    ops = _build_ops(script)
    earlier = min(earlier, len(ops))
    engine = WalEngine(tmp / "live", fsync="never", snapshot_every=0)
    for op in ops[:earlier]:
        engine.apply(op)
    if earlier:
        engine.snapshot()
    for op in ops[earlier:]:
        engine.apply(op)
    old_snapshot = (
        (tmp / "live" / SNAPSHOT_FILE).read_bytes() if earlier else None
    )
    full_log = (tmp / "live" / WAL_FILE).read_bytes()
    engine.snapshot()
    engine.close()
    new_snapshot = (tmp / "live" / SNAPSHOT_FILE).read_bytes()

    crashed = tmp / "crashed"
    crashed.mkdir()
    if crash.startswith("tmp"):
        if old_snapshot is not None:
            (crashed / SNAPSHOT_FILE).write_bytes(old_snapshot)
        (crashed / WAL_FILE).write_bytes(full_log)
        written = (
            len(new_snapshot)
            if crash == "tmp complete"
            else data.draw(st.integers(0, len(new_snapshot) - 1), label="tmp bytes")
        )
        (crashed / "snapshot.tmp").write_bytes(new_snapshot[:written])
    else:
        (crashed / SNAPSHOT_FILE).write_bytes(new_snapshot)
        (crashed / WAL_FILE).write_bytes(
            full_log if crash == "renamed, log full" else b""
        )

    expected = MemoryEngine()
    for op in ops:
        expected.apply(op)
    baseline = DIT(index_attrs=("cpu",), storage=expected)
    recovered = DIT(index_attrs=("cpu",), storage=WalEngine(crashed))
    assert _shape(recovered) == _shape(baseline)
    for filt in ("(cpu=x86)", "(&(objectclass=computer)(cpu=mips))"):
        got = recovered.search("o=Grid", Scope.SUBTREE, parse_filter(filt))
        want = baseline.search("o=Grid", Scope.SUBTREE, parse_filter(filt))
        assert _shape_of(got) == _shape_of(want)
    # The survivor can checkpoint again over whatever the crash left.
    recovered.storage.snapshot()
    recovered.storage.close()
    again = DIT(storage=WalEngine(crashed))
    assert _shape(again) == _shape(baseline)
    again.storage.close()


# -- the clear() gauge regression (satellite fix) ------------------------------


class TestClearResetsIndexGauges:
    def test_gauges_read_zero_after_clear(self):
        metrics = MetricsRegistry()
        dit = DIT(index_attrs=("cpu", "hn"), metrics=metrics, name="g")
        for n in range(5):
            dit.add(_host(n))
        for attr in ("cpu", "hn"):
            gauge = metrics.get("ldap.index.size", labels={"dit": "g", "attr": attr})
            assert gauge.value == 5.0
        dit.clear()
        for attr in ("cpu", "hn"):
            gauge = metrics.get("ldap.index.size", labels={"dit": "g", "attr": attr})
            assert gauge.value == 0.0
        # And the index keeps working (stays live, not rebuilt stale).
        dit.add(_host(9))
        assert (
            metrics.get("ldap.index.size", labels={"dit": "g", "attr": "cpu"}).value
            == 1.0
        )


# -- warm restarts ------------------------------------------------------------


def _grrp(now, n="a", ttl=3600.0):
    return GrrpMessage(
        service_url=f"ldap://gris-{n}:2135/o=Site{n.upper()},o=Grid",
        timestamp=now,
        valid_until=now + ttl,
        metadata={"suffix": f"o=Site{n.upper()},o=Grid"},
    )


class TestGiisWarmRestart:
    def test_registrations_survive(self, tmp_path):
        clock = WallClock()
        giis = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        giis.apply_grrp(_grrp(clock.now(), "a"), "cn=siteA")
        giis.apply_grrp(_grrp(clock.now(), "b"))
        # No clean shutdown: fsync=always means the WAL already holds both.

        reborn = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        assert reborn.replayed_registrations == 2
        urls = {r.service_url for r in reborn.registry.active()}
        assert urls == {r.service_url for r in giis.registry.active()}
        back = reborn.registry.lookup("ldap://gris-a:2135/o=SiteA,o=Grid")
        assert back.source_identity == "cn=siteA"
        giis.shutdown()
        reborn.shutdown()

    def test_expired_on_disk_is_purged(self, tmp_path):
        clock = WallClock()
        giis = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        giis.apply_grrp(_grrp(clock.now(), "a"))
        giis.apply_grrp(_grrp(clock.now(), "b", ttl=0.05))
        giis.shutdown()
        time.sleep(0.1)
        reborn = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        assert reborn.replayed_registrations == 1
        assert len(reborn.storage.entries) == 1  # the dead one left the disk too
        reborn.shutdown()

    def test_refresh_extends_the_persisted_lifetime(self, tmp_path):
        """A refresh must re-persist: recovery would otherwise resurrect
        the original valid_until and purge a live registrant."""
        clock = WallClock()
        giis = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        now = clock.now()
        giis.apply_grrp(_grrp(now, "a", ttl=0.05))
        from dataclasses import replace as dc_replace

        refreshed = dc_replace(
            _grrp(now, "a"), timestamp=now + 0.01, valid_until=now + 3600.0
        )
        giis.apply_grrp(refreshed)
        giis.shutdown()
        time.sleep(0.1)  # the original ttl lapses; the refreshed one has not
        reborn = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        assert reborn.replayed_registrations == 1
        reborn.shutdown()

    def test_unregister_clears_the_disk(self, tmp_path):
        from repro.grip.messages import NotificationType
        from dataclasses import replace as dc_replace

        clock = WallClock()
        giis = GiisBackend(
            "o=Grid", clock, storage=WalEngine(tmp_path / "giis", fsync="always")
        )
        msg = _grrp(clock.now(), "a")
        giis.apply_grrp(msg)
        assert len(giis.storage.entries) == 1
        giis.apply_grrp(
            dc_replace(msg, notification_type=NotificationType.UNREGISTER)
        )
        assert len(giis.storage.entries) == 0
        giis.shutdown()


class TestServerWarmRestartOverTcp:
    def test_giis_mode_serves_prior_registrations(self, tmp_path):
        """start_server in GIIS mode twice over one --data-dir: the second
        instance answers with the registrations accepted by the first."""
        from repro.ldap.client import LdapClient
        from repro.tools.grid_info_server import start_server

        config = tmp_path / "giis.json"
        config.write_text(
            json.dumps(
                {
                    "suffix": "o=Grid",
                    "giis": {},
                    "storage": {"backend": "wal", "fsync": "always"},
                }
            )
        )
        data_dir = str(tmp_path / "data")

        def boot():
            return start_server(str(config), port=0, data_dir=data_dir)

        endpoint, port, _, server = boot()
        try:
            client = LdapClient(endpoint.connect(("127.0.0.1", port)))
            now = time.time()
            res = client.add(_grrp(now, "a").to_entry("o=Grid"))
            assert res.code == 0
            before = client.search("o=Grid", filter="(objectclass=*)")
            client.unbind()
        finally:
            endpoint.close()
            server.executor.shutdown()
            backend = getattr(server.backend, "inner", server.backend)
            backend.shutdown()

        endpoint, port, _, server = boot()
        try:
            client = LdapClient(endpoint.connect(("127.0.0.1", port)))
            after = client.search("o=Grid", filter="(objectclass=*)")
            assert _shape_of(after.entries) == _shape_of(before.entries)
            assert any("regid=" in str(e.dn) for e in after.entries)
            client.unbind()
        finally:
            endpoint.close()
            server.executor.shutdown()
            backend = getattr(server.backend, "inner", server.backend)
            backend.shutdown()


class TestSigkillAcceptance:
    def test_sigkilled_giis_restarts_warm(self, tmp_path):
        """The issue's acceptance bar, end to end through the CLI: kill -9
        a grid-info-server in GIIS mode and restart it over the same
        --data-dir; it must serve the same registrations."""
        from repro.ldap.client import LdapClient
        from repro.net.reactor import ReactorEndpoint

        config = tmp_path / "giis.json"
        config.write_text(
            json.dumps(
                {
                    "suffix": "o=Grid",
                    "giis": {},
                    "storage": {"backend": "wal", "fsync": "always"},
                }
            )
        )
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )

        def launch():
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.tools.grid_info_server",
                    "--config",
                    str(config),
                    "--port",
                    "0",
                    "--data-dir",
                    str(tmp_path / "data"),
                    "--workers",
                    "2",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            deadline = time.time() + 20.0
            while time.time() < deadline:
                line = proc.stdout.readline()
                match = re.search(r"ldap://[^:]+:(\d+)/", line)
                if match:
                    return proc, int(match.group(1))
                if not line and proc.poll() is not None:
                    break
            proc.kill()
            raise AssertionError("server did not report a listen port")

        endpoint = ReactorEndpoint()
        proc, port = launch()
        try:
            client = LdapClient(endpoint.connect(("127.0.0.1", port)))
            now = time.time()
            assert client.add(_grrp(now, "a").to_entry("o=Grid")).code == 0
            assert client.add(_grrp(now, "b").to_entry("o=Grid")).code == 0
            before = client.search("o=Grid", filter="(objectclass=*)")
            client.unbind()
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        proc, port = launch()
        try:
            client = LdapClient(endpoint.connect(("127.0.0.1", port)))
            after = client.search("o=Grid", filter="(objectclass=*)")
            assert _shape_of(after.entries) == _shape_of(before.entries)
            client.unbind()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            endpoint.close()
