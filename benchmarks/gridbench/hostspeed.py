"""The host-speed index: what a fixed piece of interpreter work costs right now.

The hosts this benchmark runs on are small guests of a shared machine,
and the same instructions take them 1.0 to 1.6 times as long from one
minute to the next (``utime`` of one fixed restart read 0.35 to 0.60 s;
ten consecutive runs of one commit read 43.7 down to 29.7 ms of server
CPU per request).  No statistic over a 30 s run removes that, so every
time the benchmark reports is divided by this index, measured over the
very interval the time was taken in: a small process on the front
server's CPU repeats one fixed burst of work (about 1.2 ms, every 50 ms,
2 % of that CPU) and logs the CPU time each burst took; the index of an
interval is the mean burst in it over ``REFERENCE_S``.  A reported time
therefore reads "at reference speed", and equals the wall-clock figure
on a host where the burst takes ``REFERENCE_S``.  Over ten runs per
workload of one commit this cut the run-to-run spread of CPU per
operation from 7-21 % to 1-8 % and of p50 latency from 6-31 % to 3-11 %
(README, Times at reference speed).

The burst uses the standard library only, so no change to the product
moves it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

REFERENCE_S = 0.0012  # the mean burst on the 2-vCPU guest this was built on
PERIOD_S = 0.05

_RECORDS = [{"dn": f"dev=d{i}, hn=host{i % 25}, o=Grid", "objectclass": ["device"],
             "status": "up", "capacity": f"{i} GB"} for i in range(300)]


def burst() -> int:
    """Interpreter work of the servers' kind: encode, decode, rebuild."""
    table = {}
    for record in json.loads(json.dumps(_RECORDS)):
        table[record["dn"].lower()] = [
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in record.items()]
    return len(table)


def _measure(cpu: int) -> None:
    """The child: one "<monotonic> <cpu seconds>" line per burst, until
    killed or orphaned."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    while os.getppid() == parent:
        before = time.thread_time()
        burst()
        took = time.thread_time() - before
        print(f"{time.monotonic():.4f} {took:.7f}", flush=True)
        time.sleep(PERIOD_S)


class HostSpeed:
    """The measuring process and the index of any interval since its start."""

    def __init__(self, workdir: pathlib.Path, cpu: int):
        workdir.mkdir(parents=True, exist_ok=True)
        self.log = workdir / "hostspeed.log"
        self.started = time.monotonic()
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, str(pathlib.Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True)

    def factor(self, start: float, end: float) -> float:
        """Mean burst inside [start, end] over the reference burst; an
        interval too short to hold a burst takes the whole run's mean."""
        bursts = []
        for line in self.log.read_text().splitlines():
            stamp, _, took = line.partition(" ")
            try:
                bursts.append((float(stamp), float(took)))
            except ValueError:  # a line still being written
                continue
        if not bursts:
            raise RuntimeError(f"host-speed process wrote nothing to {self.log}")
        inside = [took for stamp, took in bursts if start <= stamp <= end]
        chosen = inside or [took for _stamp, took in bursts]
        return sum(chosen) / len(chosen) / REFERENCE_S

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    _measure(int(sys.argv[1]))
