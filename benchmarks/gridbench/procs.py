"""Server processes under test: launch, readiness, accounting, teardown.

Every server is a real ``python -m repro.tools.grid_info_server`` (or,
for the traced run, ``traced_server.py`` which calls the same ``main``)
in its own session and process group, with stdout/stderr redirected to
a per-run log file so an inherited pipe can neither block the server
nor keep the runner's parent waiting.  The bound port is parsed from
the ``listening on ldap://`` line of that log.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

_LISTENING = re.compile(r"listening on ldap://([^:/]+):(\d+)/")
_METRICS = re.compile(r"metrics endpoint on (http://\S+/metrics)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
# The CPUs this benchmark may use, highest first, read before the runner
# pins itself: servers are dealt from the front, the load generator
# takes the last.
CPUS = sorted(os.sched_getaffinity(0), reverse=True)


class ServerFailed(RuntimeError):
    """A server exited (or stayed silent) before it was ready."""


class Server:
    """One server process of the topology."""

    def __init__(self, role: str, name: str, log: pathlib.Path,
                 traced: bool, spans: Optional[pathlib.Path] = None):
        self.role = role  # "gris" or "giis": the split of server CPU
        self.name = name
        self.log = log
        self.traced = traced
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.metrics_url = ""
        self.exec_at = 0.0
        self.boot_s = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 20.0) -> None:
        """Block until the ``listening on`` line shows up in the log."""
        deadline = time.monotonic() + timeout
        while True:
            text = self.log.read_text(errors="replace")
            found = _LISTENING.search(text)
            if found and (not self.traced or _METRICS.search(text)):
                self.boot_s = time.monotonic() - self.exec_at
                self.port = int(found.group(2))
                if self.traced:
                    self.metrics_url = _METRICS.search(text).group(1)
                return
            if self.proc.poll() is not None:
                raise ServerFailed(
                    f"{self.name} exited with {self.proc.returncode}:\n{text[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise ServerFailed(f"{self.name} not listening after {timeout}s:\n{text[-2000:]}")
            time.sleep(0.002)

    def cpu_seconds(self) -> float:
        """utime + stime of the process, from ``/proc/<pid>/stat``."""
        stat = pathlib.Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_peak_mb(self) -> float:
        for line in pathlib.Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def reap(self, timeout: float = 10.0) -> None:
        if self.proc is None:
            return
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.signal(signal.SIGKILL)
            self.proc.wait(timeout=timeout)


class Fleet:
    """Every server this run started; nothing outlives :meth:`close`."""

    def __init__(self, workdir: pathlib.Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.servers: List[Server] = []
        self.boot_times: List[float] = []
        self._launches = 0
        self._cpu_of: Dict[str, int] = {}

    def launch(self, role: str, name: str, config: pathlib.Path,
               extra: Sequence[str] = (), port: int = 0) -> Server:
        """Start one server and return once it listens on its port.

        *port* = 0 binds an ephemeral port; a restart passes the old
        port so peers holding the old URL (registrations) still reach it.
        """
        self._launches += 1
        tag = f"{name}.{self._launches}"
        log = self.workdir / f"{tag}.log"
        server_args = ["--config", str(config), "--port", str(port), *extra]
        spans = None
        if self.traced:
            spans = self.workdir / f"{tag}.spans.jsonl"
            argv = [sys.executable, str(HERE / "traced_server.py"), str(spans),
                    *server_args, "--metrics-port", "0"]
        else:
            # runpy warns that the module is already imported by its
            # package; that line is noise in the logs, not a product bug.
            argv = [sys.executable, "-W", "ignore::RuntimeWarning:runpy",
                    "-m", "repro.tools.grid_info_server", *server_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"  # the "listening on" line, at once
        # Servers keep compiled modules like any deployment: the first
        # boot in a checkout compiles (the build), later ones do not,
        # whatever the caller's environment says about bytecode.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        # One hash seed for every server of every run: dict/set layouts,
        # and so per-request cost, do not wander between runs.
        env["PYTHONHASHSEED"] = "0"
        # One CPU per server, dealt round-robin from the highest and kept
        # across restarts: a Python server is serialised by the
        # interpreter lock anyway, and left unpinned on a 2-vCPU guest the
        # threads of five chained servers bounced between CPUs, which cost
        # a fifth more latency and tripled the run-to-run spread.
        cpu = self._cpu_of.setdefault(name, CPUS[len(self._cpu_of) % len(CPUS)])
        server = Server(role, name, log, self.traced, spans)
        for attempt in range(3):
            with open(log, "wb") as out:
                server.exec_at = time.monotonic()
                server.proc = subprocess.Popen(
                    argv, stdin=subprocess.DEVNULL, stdout=out,
                    stderr=subprocess.STDOUT, cwd=self.workdir, env=env,
                    start_new_session=True,
                )
            os.sched_setaffinity(server.proc.pid, {cpu})
            self.servers.append(server)
            try:
                server.wait_listening()
                break
            except ServerFailed:
                self.servers.remove(server)
                server.signal(signal.SIGKILL)
                server.reap()
                # A fixed port can be held for an instant by an
                # unrelated outgoing connection; anything else is fatal.
                if not port or attempt == 2:
                    raise
                time.sleep(0.05)
        self.boot_times.append(server.boot_s)
        return server

    def crash(self, server: Server) -> None:
        """Kill one server without any shutdown work of its own.

        SIGKILL, except that a traced server gets SIGTERM: its handler
        writes the spans and then leaves through ``os._exit``, so the
        product's shutdown path (WAL close, pool drain) still never runs.
        """
        server.signal(signal.SIGTERM if server.traced else signal.SIGKILL)
        server.reap()
        self.servers.remove(server)

    def close(self, abort: bool = False) -> None:
        """End every server; traced ones write their spans unless *abort*."""
        for server in self.servers:
            server.signal(signal.SIGTERM if server.traced and not abort else signal.SIGKILL)
        for server in self.servers:
            server.reap()
        self.servers.clear()

    def cpu_by_role(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for server in self.servers:
            out[server.role] = out.get(server.role, 0.0) + server.cpu_seconds()
        return out

    def rss_peak_mb(self) -> float:
        return sum(server.rss_peak_mb() for server in self.servers)
