"""gridbench: out-of-process GRIS/GIIS benchmark.

    python3 benchmarks/gridbench/run.py [--workload NAME] [--seed N]
        [--seconds S | --quick] [--trace 0|1|both | --traced]

Generates configs, LDIF and the request schedule from the seed, starts
real ``grid-info-server`` processes on ephemeral loopback ports, drives
them open loop from this one process, checks every answer against an
oracle derived from the generated dataset, and prints every metric by
name with unit and sample count.  ``--trace 0`` is the untraced run the
end-to-end metrics come from; ``--trace 1`` is a separate traced run
for the per-layer metrics.  The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when any answer was wrong.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".gridbench"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    from repro.ldap.protocol import AddRequest, LdapMessage, encode_message
    from repro.net import make_endpoint
    from repro.net.transport import ConnectionClosed

    import ledger
    from hostspeed import HostSpeed
    from loadgen import LoadGen
    from metrics import END_TO_END, PER_LAYER, median, percentile
    from procs import CPUS, Fleet
    from workloads import WARMUP_S, WORKLOADS
except ModuleNotFoundError as exc:  # e.g. a checkout without the product source
    raise SystemExit(f"gridbench: {exc}; run this from a full checkout of the repository")

SETUPS = 5  # set-ups per untraced run; setup_s is their median
RESTARTS = 3  # crashes and restarts after a window, each checked by the oracle
SLICES = 8  # slices of a window; latency and CPU report the median slice
LAG_LIMIT_MS = 20.0  # a window the generator ran later than this is reported on stderr
RUN_LIMIT_S = 175  # the whole of one run, set-up and teardown included
SELF_ENTRY = "mds-server-name="  # what --metrics-port adds to every answer


_SESSIONS: list = []  # every Session made, so that none outlives the run


class Session:
    """One topology brought up, driven and torn down."""

    def __init__(self, workload, workdir: pathlib.Path, traced: bool, endpoint, speed):
        workdir.mkdir(parents=True)
        self.wl = workload
        self.traced = traced
        self.endpoint = endpoint
        self.speed = speed
        self.fleet = Fleet(workdir, traced)
        self.gen = None
        self.ignore = SELF_ENTRY if traced else ""
        _SESSIONS.append(self)

    def setup(self) -> float:
        """Launch of the first server -> the readiness search is right."""
        started = time.monotonic()
        self.wl.launch(self.fleet)
        address = ("127.0.0.1", self.wl.front.port)
        self.gen = LoadGen(self.endpoint, address, self.wl.connections)
        self.wl.load(self.gen)
        self.until_correct(self.wl.readiness)
        return time.monotonic() - started

    def until_correct(self, req, extra=None, timeout: float = 30.0):
        """Ask *req* until the oracle accepts the answer."""
        deadline = time.monotonic() + timeout
        problem = "never asked"
        while time.monotonic() < deadline:
            try:
                sample = self.gen.ask(req)
            except ConnectionClosed as exc:
                problem = str(exc)
            else:
                problem = sample.verdict(self.ignore) or (extra(sample) if extra else "")
                if not problem:
                    return sample
            time.sleep(0.005)
        raise RuntimeError(f"{self.wl.name}: {req.label} not correct after {timeout}s: {problem}")

    def window(self, seconds: float, phase: str):
        """Warm up, then measure *seconds* of the workload's traffic."""
        fleet = self.fleet
        edges = [WARMUP_S + k * seconds / SLICES for k in range(SLICES + 1)]
        counters, threads = {}, []

        def read_counters(label: str) -> None:
            counters[label] = {s: ledger.fetch(s.metrics_url) for s in list(fleet.servers)}

        reads = []

        def read() -> None:
            reads.append({"t": time.monotonic(), "cpu": fleet.cpu_by_role(),
                          "loadgen": time.process_time()})
            if self.traced and len(reads) in (1, SLICES + 1):
                # Off the pacing thread, and unparsed until the window
                # is over: either would show up as generator lag.
                label = "start" if len(reads) == 1 else "end"
                threads.append(threading.Thread(target=read_counters, args=(label,)))
                threads[-1].start()

        schedule = self.wl.schedule(seconds, phase)
        samples, lags, stalls = self.gen.run(schedule, [(edge, read) for edge in edges])
        for thread in threads:
            thread.join()
        self.wl.note(samples)
        inside = [(s, lag) for s, lag in zip(samples, lags) if s.offset >= WARMUP_S]
        lag_p99_ms = percentile([lag for _s, lag in inside], 0.99) * 1e3
        stalled = sum(late for offset, late in stalls if offset >= WARMUP_S)
        if lag_p99_ms > LAG_LIMIT_MS or stalled:
            # Not repeated, so that a run keeps its length: lag is in the
            # latency of the requests it hit (each is timed from when it
            # was due) and the median slice leaves them out; a stall is
            # cut out of the window.
            print(f"# {self.wl.name}: generator-limited {phase} window: "
                  f"lag p99 {lag_p99_ms:.1f} ms, stalled {stalled * 1e3:.0f} ms", file=sys.stderr)
        return Window(self, [s for s, _lag in inside], edges, lag_p99_ms, stalled, reads,
                      counters, fleet.rss_peak_mb(),
                      self.speed.factor(reads[0]["t"], reads[-1]["t"]))

    def restart(self) -> float:
        """Crash of the restart target -> a correct answer again."""
        started = time.monotonic()
        self.wl.restart(self.fleet)
        self.until_correct(self.wl.restarted, self.wl.check_restart)
        return time.monotonic() - started

    def close(self, abort: bool = False) -> None:
        if self.gen is not None:
            self.gen.close()
            self.gen = None
        self.fleet.close(abort)


class Window:
    """The measurements of one window, before they become metrics.

    The window is cut into SLICES equal slices and every latency and
    CPU figure is the median over the slices of the slice's own value:
    the host this runs on slows down by tens of percent for seconds at a
    time, and a disturbance shorter than half the window then leaves the
    reported value alone.
    """

    def __init__(self, session, samples, edges, lag_p99_ms, stalled, reads, counters,
                 rss_mb, speed):
        self.samples = samples
        self.speed = speed  # host-speed index of the window: times are divided by it
        self.lag_p99_ms = lag_p99_ms
        self.stalled = stalled  # seconds the generator itself was stopped: not part of the window
        self.reads, self.counters = reads, counters
        self.start, self.end = reads[0]["t"], reads[-1]["t"]
        self.seconds = edges[-1] - edges[0]
        self.rss_mb = rss_mb
        self.servers = len(session.fleet.servers)
        self.verdicts = [s.verdict(session.ignore) for s in samples]
        self.done = [s for s in samples if s.done]
        self.correct = [s for s, v in zip(samples, self.verdicts) if not v]
        self.searches = [s for s in self.correct if s.req.register is None]
        self.registers = [s for s in self.correct if s.req.register is not None]
        self.elapsed = max([s.done for s in self.done] + [self.end]) - self.start - stalled
        self.cpu = {role: reads[-1]["cpu"][role] - reads[0]["cpu"].get(role, 0.0)
                    for role in reads[-1]["cpu"]}
        self.loadgen_cpu = reads[-1]["loadgen"] - reads[0]["loadgen"]
        self._edges = edges

    def _slices(self, samples):
        width = self.seconds / SLICES
        out = [[] for _ in range(SLICES)]
        for s in samples:
            out[min(int((s.offset - self._edges[0]) / width), SLICES - 1)].append(s)
        return out

    def sliced_ms(self, samples, q: float, of=lambda s: s.latency) -> float:
        """Median over the slices of the slice's q-quantile, in ms at
        reference speed."""
        return median([percentile([of(s) for s in part], q) * 1e3
                       for part in self._slices(samples) if part]) / self.speed

    @property
    def cpu_ms_per_op(self) -> float:
        """Median over the slices of server CPU per completed operation,
        at reference speed."""
        out = []
        for k, part in enumerate(self._slices(self.done)):
            before, after = self.reads[k]["cpu"], self.reads[k + 1]["cpu"]
            if part:
                out.append(sum(after[r] - before.get(r, 0.0) for r in after) * 1e3 / len(part))
        return median(out) / self.speed

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v)

    def problems(self, limit: int = 5):
        return [f"{s.req.label}: {v}" for s, v in zip(self.samples, self.verdicts) if v][:limit]


def run_untraced(wl, workdir, endpoint, speed, seconds):
    """End-to-end metrics: servers in default configuration."""
    setups = []
    began = time.monotonic()
    for i in range(SETUPS):
        session = Session(wl, workdir / f"setup{i}", False, endpoint, speed)
        setups.append(session.setup())
        if i < SETUPS - 1:
            session.close(abort=True)
    setup_speed = speed.factor(began, time.monotonic())
    window = session.window(seconds, "measure")
    restarts = [session.restart() for _ in range(RESTARTS)]
    session.close()

    ms = window.sliced_ms
    searches, registers = window.searches, window.registers
    # The read-only workloads send no REGISTER: they repeat their search
    # latency under the register names (see metrics.END_TO_END).
    writes = registers or searches
    values = {
        "setup_s": (median(setups) / setup_speed, len(setups)),
        "search_p50_ms": (ms(searches, 0.5), len(searches)),
        "search_p90_ms": (ms(searches, 0.9), len(searches)),
        "ttfe_p50_ms": (ms(searches, 0.5, lambda s: s.ttfe), len(searches)),
        "goodput_rps": (len(window.correct) / window.elapsed, len(window.correct)),
        "server_cpu_ms_per_op": (window.cpu_ms_per_op, len(window.done)),
        "server_rss_mb": (window.rss_mb, window.servers),
        "register_p50_ms": (ms(writes, 0.5), len(writes)),
        "register_p90_ms": (ms(writes, 0.9), len(writes)),
    }
    notes = {
        "error_frac": window.failed / max(len(window.samples), 1),
        "loadgen.lag_p99_ms": window.lag_p99_ms, "loadgen.stalled_ms": window.stalled * 1e3,
        "host_speed.setup": setup_speed, "host_speed.window": window.speed,
        "setup_s.wall": setups, "restart_s.wall": restarts,
        "search_p50_ms.wall": ms(searches, 0.5) * window.speed,
        "server_cpu_ms_per_op.wall": window.cpu_ms_per_op * window.speed,
    }
    return [window], values, notes


def run_traced(wl, workdir, endpoint, speed, seconds):
    """Per-layer metrics: a third of the time untraced (the overhead
    baseline, and the restarts that are timed), two thirds traced."""
    base_seconds = seconds / 3.0
    session = Session(wl, workdir / "untraced", False, endpoint, speed)
    session.setup()
    baseline = session.window(base_seconds, "baseline")
    began = time.monotonic()
    restarts = [session.restart() for _ in range(RESTARTS)]
    restart_speed = speed.factor(began, time.monotonic())
    session.close(abort=True)

    session = Session(wl, workdir / "traced", True, endpoint, speed)
    session.setup()
    window = session.window(seconds - base_seconds, "traced")
    in_window = [s.spans for s in session.fleet.servers]
    session.restart()
    restarted = wl.target.spans
    boots = list(session.fleet.boot_times)
    session.close()  # SIGTERM: every traced server writes its spans

    spans = ledger.spans_of(in_window, window.start, window.end)
    restart_spans = ledger.spans_of([restarted], 0.0, float("inf"))
    counts = {"all": ledger.delta({}, {}), "gris": ledger.delta({}, {}),
              "giis": ledger.delta({}, {})}
    gauges = {}
    for server, text in window.counters["end"].items():
        after = ledger.counters(text)
        change = ledger.delta(ledger.counters(window.counters["start"][server]), after)
        for key, value in change.items():
            counts["all"][key] += value
            counts[server.role][key] += value
        for key, value in after.items():
            gauges[key] = gauges.get(key, 0.0) + value
    user_bytes = _register_bytes(window.registers)
    ops = len(window.done)
    cpu_s = sum(window.cpu.values())
    values = ledger.per_layer(spans, restart_spans, counts, gauges, ops,
                              window.end - window.start, cpu_s, user_bytes)
    values.update({
        "proc.giis.cpu_ms_per_op": window.cpu.get("giis", 0.0) * 1e3 / max(ops, 1),
        "proc.gris.cpu_ms_per_op": window.cpu.get("gris", 0.0) * 1e3 / max(ops, 1),
        "proc.loadgen.cpu_frac": window.loadgen_cpu / window.elapsed,
        "loadgen.search_p99_ms": percentile(
            [s.latency for s in window.searches], 0.99) * 1e3,
    })
    # Like the end-to-end times, every time of the traced window is
    # reported at reference speed, so the layers still add up against
    # server_cpu_ms_per_op and two traced runs compare across host drift.
    for name, unit, _better in PER_LAYER:
        if name in values and unit in ("us", "ms", "s"):
            values[name] /= window.speed
    values.update({
        "tools.grid_info_server.boot_s":
            median(boots) / speed.factor(speed.started, time.monotonic()),
        "tools.grid_info_server.restart_s": median(restarts) / restart_speed,
        # The generator's own lateness and stops, as they were.
        "loadgen.lag_p99_ms": window.lag_p99_ms,
        "loadgen.stalled_ms": window.stalled * 1e3,
    })
    # A --quick baseline slice can be shorter than one CPU clock tick.
    untraced = baseline.cpu_ms_per_op
    values["trace.overhead_frac"] = window.cpu_ms_per_op / untraced - 1.0 if untraced else 0.0
    samples = {name: ops for name in values}
    samples.update({
        "tools.grid_info_server.boot_s": len(boots),
        "tools.grid_info_server.restart_s": len(restarts),
        "loadgen.search_p99_ms": len(window.searches),
        "ldap.executor.wait_us_p50": len(spans.waits["ldap.executor.wait"]),
        "ldap.executor.wait_us_p90": len(spans.waits["ldap.executor.wait"]),
        "ldap.client.child_rtt_us_p50": len(spans.waits["ldap.client.child_rtt"]),
        "ldap.client.child_ttfb_us_p50": len(spans.waits["ldap.client.child_ttfb"]),
        "gris.provider.provide_us_per_call": spans.count["gris.provider.provide"],
        "ldap.client.issue_us_per_child": spans.count["ldap.client.search_async"],
        "ldap.storage.wal.replay_us_per_record": int(restart_spans.n["ldap.storage.wal.replay"]),
    })
    notes = {
        "error_frac": (window.failed + baseline.failed)
        / max(len(window.samples) + len(baseline.samples), 1),
        "spans": sum(spans.count.values()), "requests_traced": len(spans.requests),
        "untraced_cpu_ms_per_op": baseline.cpu_ms_per_op,
        "traced_cpu_ms_per_op": window.cpu_ms_per_op,
        "host_speed.baseline": baseline.speed, "host_speed.window": window.speed,
        "host_speed.restarts": restart_speed, "restart_s.wall": restarts,
    }
    return [baseline, window], {k: (v, samples[k]) for k, v in values.items()}, notes


def _register_bytes(registers) -> int:
    """Bytes of the AddRequests the acknowledged REGISTERs were sent as."""
    total = 0
    for s in registers:
        member = s.req.register
        entry = member.message(s.stamped).to_entry(member.directory_suffix)
        total += len(encode_message(LdapMessage(1, AddRequest.from_entry(entry))))
    return total


def _describe_host() -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "link": "loopback, not a real link"}


def run_one(name: str, seed: int, seconds: float, traced: bool, endpoint) -> dict:
    wl = WORKLOADS[name](seed)
    schedule_hash = wl.schedule_hash(seconds)
    if WORKLOADS[name](seed).schedule_hash(seconds) != schedule_hash:
        raise RuntimeError(f"{name}: one seed gave two schedules")
    workdir = WORK / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    signal.alarm(RUN_LIMIT_S)
    # The index runs where the front server (the first one launched) does.
    speed = HostSpeed(workdir, CPUS[0])
    try:
        runner = run_traced if traced else run_untraced
        windows, values, notes = runner(wl, workdir, endpoint, speed, seconds)
    finally:
        signal.alarm(0)
        speed.close()
        for session in _SESSIONS:
            session.close(abort=True)
        _SESSIONS.clear()
    units = {n: u for n, u, *_ in (PER_LAYER if traced else END_TO_END)}
    record = {
        **_describe_host(), "workload": name, "seed": seed, "traced": traced,
        "window_s": seconds, "rates_per_s": wl.rates, "schedule_sha256": schedule_hash,
        "wal_fsync": wl.fsync,
        "attempted": sum(len(w.samples) for w in windows),
        "failed": sum(w.failed for w in windows), "notes": notes,
        "metrics": {n: {"value": values[n][0], "unit": units[n], "samples": values[n][1]}
                    for n in units},
    }
    print(f"# {name} seed={seed} traced={int(traced)} window={seconds}s "
          f"rates={wl.rates} commit={record['commit']} nproc={record['nproc']} "
          f"python={record['python']} link={record['link']!r} "
          f"wal_fsync={record['wal_fsync']}")
    print(f"# schedule sha256={schedule_hash}")
    for n, m in record["metrics"].items():
        print(f"{name:14s} {n:40s} {m['value']:14.4f} {m['unit']:6s} n={m['samples']}")
    for key, value in notes.items():
        print(f"{name:14s} # {key} = {value}")
    for window in windows:
        for problem in window.problems():
            print(f"{name:14s} # WRONG {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if not record["failed"]:
        shutil.rmtree(workdir, ignore_errors=True)  # keep logs of a failed run
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="gris_host, gris_site, giis_chained, giis_register or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--quick", action="store_true", help="3 s windows")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0 = end-to-end run, 1 = traced per-layer run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds
    if args.quick:
        seconds = 3.0
    elif seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    trace = "1" if args.traced else args.trace
    modes = {"0": [False], "1": [True], "both": [False, True]}[trace]

    def interrupted(signum, _frame):
        raise SystemExit(f"gridbench: stopped by signal {signum}")

    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, interrupted)
    # The generator's two threads share the interpreter lock, so one CPU
    # is all they can use; on the last CPU servers are dealt they neither
    # wander nor wake up behind a pinned single server.
    os.sched_setaffinity(0, {CPUS[-1]})
    endpoint = make_endpoint("reactor", "127.0.0.1")
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            for traced in modes:
                record = run_one(name, args.seed, seconds, traced, endpoint)
                attempted += record["attempted"]
                failed += record["failed"]
                prefix = f"{name}." if len(names) > 1 else ""
                for n, m in record["metrics"].items():
                    metrics[prefix + n] = {"value": m["value"], "unit": m["unit"]}
    finally:
        for session in _SESSIONS:
            session.close(abort=True)
        endpoint.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
