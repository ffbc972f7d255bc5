"""E20 — durable DIT storage: WAL throughput and warm-restart latency.

The paper's GIIS relies on soft-state refresh to repopulate a restarted
directory (§6): every registrant re-announces within its TTL window, so
a restart leaves a window of minutes during which VO-wide searches see a
hollow directory.  The WAL engine closes that window by replaying
persisted state at boot.  This bench quantifies both sides of the trade:

* **append throughput** — single-op DIT writes through the memory and
  WAL (per fsync policy) engines; durability's steady-state tax;
* **restart path** — snapshot write, snapshot+WAL replay, and a planned
  first search at directory scale (100k entries full, 5k quick), against
  the *cold* alternative: repopulating the same tree entry by entry the
  way soft-state refresh eventually would.

Set ``E20_QUICK=1`` (the CI smoke mode) for small trees and fewer ops.
Full runs write machine-readable results to ``BENCH_E20.json`` at the
repo root.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import json
import os
import pathlib
import shutil
import tempfile
import time

from repro.ldap.dit import DIT, Scope
from repro.ldap.entry import Entry
from repro.ldap.filter import parse as parse_filter
from repro.ldap.storage import BACKENDS, MemoryEngine, WalEngine, make_storage
from repro.testbed.metrics import fmt_table

QUICK = bool(os.environ.get("E20_QUICK"))
APPEND_OPS = 500 if QUICK else 20000
RESTART_ENTRIES = 5000 if QUICK else 100000


def _entry(n):
    return Entry(
        f"hn=node{n}, o=Site{n % 50}, o=Grid",
        objectclass=["computer"],
        hn=[f"node{n}"],
        cpu=["x86" if n % 2 else "sparc"],
        ram=[str(256 * (1 + n % 8))],
    )


def _engine(kind, root):
    if kind == "memory":
        return MemoryEngine()
    fsync = kind.split(":", 1)[1]
    return WalEngine(root / "wal", fsync=fsync, snapshot_every=0)


# -- part A: append throughput ------------------------------------------------


def append_run(kind):
    """Ops/s for single-entry adds through one engine-backed DIT."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="e20-"))
    try:
        engine = _engine(kind, root)
        dit = DIT(storage=engine)
        started = time.perf_counter()
        for n in range(APPEND_OPS):
            dit.add(_entry(n))
        elapsed = time.perf_counter() - started
        wal_bytes = getattr(engine, "wal_size", 0)
        engine.close()
        return {
            "engine": kind,
            "ops": APPEND_OPS,
            "seconds": round(elapsed, 4),
            "ops_per_s": round(APPEND_OPS / elapsed),
            "wal_mib": round(wal_bytes / 2**20, 2),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- part B: the restart path -------------------------------------------------


def restart_run():
    """Snapshot+replay warm restart vs cold entry-by-entry repopulation.

    The cold number is the *floor* of the soft-state alternative: it
    decodes each entry from its record (as a backend applying wire Adds
    must) and rebuilds the same indexed tree, but charges nothing for
    the minutes of waiting on registrants' refresh timers that a real
    soft-state restart also pays.
    """
    entries = [_entry(n) for n in range(RESTART_ENTRIES)]
    root = pathlib.Path(tempfile.mkdtemp(prefix="e20-"))
    try:
        engine = WalEngine(root / "wal", fsync="never", snapshot_every=0)
        dit = DIT(index_attrs=("cpu",), storage=engine)
        dit.load(entries)

        started = time.perf_counter()
        written = engine.snapshot()
        snapshot_s = time.perf_counter() - started
        assert written == len(dit)
        # Dirty the log again so replay exercises snapshot + WAL tail.
        for n in range(RESTART_ENTRIES, RESTART_ENTRIES + RESTART_ENTRIES // 10):
            dit.add(_entry(n))
        tail_ops = engine.ops_since_snapshot
        engine.close()

        started = time.perf_counter()
        warm = DIT(
            index_attrs=("cpu",),
            storage=WalEngine(root / "wal", fsync="never", snapshot_every=0),
        )
        replay_s = time.perf_counter() - started
        assert warm.replayed_ops == tail_ops
        started = time.perf_counter()
        hits = warm.search(
            "o=Grid", Scope.SUBTREE, parse_filter("(cpu=sparc)")
        )
        first_search_s = time.perf_counter() - started
        assert warm.metrics.counter("ldap.search.planned").value == 1
        warm.storage.close()

        from repro.ldap.storage import entry_from_record, entry_to_record

        tail = [
            _entry(n)
            for n in range(RESTART_ENTRIES, RESTART_ENTRIES + RESTART_ENTRIES // 10)
        ]
        records = [entry_to_record(e) for e in entries + tail]
        started = time.perf_counter()
        cold = DIT(index_attrs=("cpu",))
        cold.load(entry_from_record(r) for r in records)
        cold_s = time.perf_counter() - started
        assert len(cold) == len(warm)

        return {
            "entries": len(warm),
            "tail_ops": tail_ops,
            "snapshot_s": round(snapshot_s, 3),
            "warm_restart_s": round(replay_s, 3),
            "first_search_s": round(first_search_s, 4),
            "first_search_hits": len(hits),
            "cold_repopulate_s": round(cold_s, 3),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_durable_storage(report):
    kinds = ["memory", "wal:never", "wal:batch"]
    if not QUICK:
        kinds.append("wal:always")
    append_rows = [append_run(kind) for kind in kinds]
    restart = restart_run()

    text = (
        f"single-op DIT adds through each engine "
        f"({'quick mode' if QUICK else 'full mode'}, {APPEND_OPS} ops)\n"
        + fmt_table(
            ["engine", "ops/s", "seconds", "wal MiB"],
            [
                (r["engine"], r["ops_per_s"], r["seconds"], r["wal_mib"])
                for r in append_rows
            ],
        )
        + f"\n\nrestart path at {restart['entries']} entries "
        + f"(snapshot + {restart['tail_ops']}-op WAL tail)\n"
        + fmt_table(
            ["phase", "seconds"],
            [
                ("snapshot write", restart["snapshot_s"]),
                ("warm restart (replay)", restart["warm_restart_s"]),
                ("first planned search", restart["first_search_s"]),
                ("cold repopulation (floor)", restart["cold_repopulate_s"]),
            ],
        )
        + "\n\nThe WAL batches fsyncs so durable appends stay within an"
        "\norder of magnitude of memory; the warm restart replays the"
        "\nsnapshot plus a short log tail, where soft-state recovery"
        "\nwould rebuild the tree and still wait out refresh timers."
    )
    report("E20_durable_storage", text)

    results = {
        "experiment": "E20",
        "quick": QUICK,
        "append": append_rows,
        "restart": restart,
    }
    if not QUICK:
        out = pathlib.Path(__file__).parents[1] / "BENCH_E20.json"
        out.write_text(json.dumps(results, indent=2) + "\n")

    by_kind = {r["engine"]: r for r in append_rows}
    # Durability must not cost more than ~50x memory throughput even
    # with batched fsyncs (generous bound; typical is well under 10x).
    assert by_kind["wal:batch"]["ops_per_s"] * 50 > by_kind["memory"]["ops_per_s"]
    # The warm restart must beat even the floor of cold repopulation.
    assert restart["warm_restart_s"] < restart["cold_repopulate_s"], restart
    assert restart["first_search_hits"] > 0


def test_factory_smoke(tmp_path):
    """make_storage wires the same engines the benches use directly."""
    for backend in BACKENDS:
        engine = make_storage(backend, tmp_path / backend)
        assert engine.backend_name == backend
        engine.close()
