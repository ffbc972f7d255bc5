"""The four workloads: topology, dataset, traffic and oracle, all from a seed.

Each workload writes the config files (and LDIF) its servers are started
from, builds the full request schedule — due time, connection, request —
and knows the answer every request must get, derived from the dataset it
generated rather than from a server.  Rates are constants of the
benchmark, sized so the busiest server process sits near 0.3 core on a
2-core host; they are never tuned at run time.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Dict, List, Sequence, Tuple

from repro.grip.messages import registration_dn
from repro.ldap.dit import Scope

from loadgen import LoadGen, Registrant, Req, Sample, canon
from procs import Fleet, Server

Schedule = List[Tuple[float, int, Req]]

WARMUP_S = 2.0
GRID = "o=Grid"


def _arrivals(rng: random.Random, rate: float, start: float, seconds: float) -> List[float]:
    """Open-loop arrivals: one per 1/rate slot, at a seeded random instant
    inside its slot.  Gaps vary from 0 to 2/rate, so requests do overlap,
    but every seed offers exactly rate x seconds requests and run-to-run
    queueing noise stays well below what a Poisson stream would add."""
    return [start + (i + rng.random()) / rate for i in range(round(rate * seconds))]


def _mixed(rng: random.Random, shares: Sequence[Tuple[float, object]], n: int) -> list:
    """*n* draws holding the shares exactly, in seeded random order."""
    out: list = []
    for share, item in shares:
        out.extend([item] * round(share * n))
    while len(out) < n:  # rounding left a gap: fill from the largest share
        out.append(max(shares, key=lambda s: s[0])[1])
    del out[n:]
    rng.shuffle(out)
    return out


def _traffic(rng: random.Random, rate: float, seconds: float,
             shares: Sequence[Tuple[float, object]]) -> List[Tuple[float, object]]:
    """(due, pick) over the warm-up and then the window, each with its
    exact count and mix, so what the window offers never depends on
    where the warm-up ended."""
    out: List[Tuple[float, object]] = []
    for start, length in ((0.0, WARMUP_S), (WARMUP_S, seconds)):
        dues = _arrivals(rng, rate, start, length)
        out.extend(zip(dues, _mixed(rng, shares, len(dues))))
    return out


def _host_providers(hostname: str, rng: random.Random) -> List[Dict]:
    """The paper's per-machine GRIS: static and dynamic host data, one
    filesystem, two job queues, each with its own cache TTL."""
    return [
        {"type": "static-host", "hostname": hostname, "base": "",
         "cpu_count": rng.choice([2, 4, 8, 16]), "memory_mb": rng.choice([2048, 4096, 8192])},
        {"type": "dynamic-host", "hostname": hostname, "base": "", "cache_ttl": 1},
        {"type": "storage", "hostname": hostname, "base": "", "store": "scratch",
         "path": ".", "cache_ttl": 5},
        {"type": "queue", "hostname": hostname, "base": "", "queue": "default", "cache_ttl": 2},
        {"type": "queue", "hostname": hostname, "base": "", "queue": "batch", "cache_ttl": 2},
    ]


def _host_dns(suffix: str) -> Dict[str, str]:
    return {
        "host": canon(suffix),
        "load": canon(f"perf=loadavg, {suffix}"),
        "store": canon(f"store=scratch, {suffix}"),
        "q1": canon(f"queue=default, {suffix}"),
        "q2": canon(f"queue=batch, {suffix}"),
    }


class Workload:
    """Base: the pieces run.py drives, in the order it drives them."""

    name = ""
    why = ""
    connections = 2
    rates: Dict[str, float] = {}
    fsync = "n/a"  # WAL flush policy, where the workload has a WAL

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"gridbench:{self.name}:{seed}:data")
        self.front: Server = None  # where the load generator connects
        self.target: Server = None  # which server the restart kills
        self._target_args: Tuple = ()

    # -- set-up ------------------------------------------------------------

    def launch(self, fleet: Fleet) -> None:
        """Write configs under fleet.workdir and start every server."""
        raise NotImplementedError

    def load(self, gen: LoadGen) -> None:
        """State the servers must hold before they count as set up."""

    def _write(self, fleet: Fleet, filename: str, config: Dict) -> pathlib.Path:
        path = fleet.workdir / filename
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        return path

    def _launch_target(self, fleet: Fleet, role: str, name: str, config: pathlib.Path,
                       extra: Sequence[str] = (), port: int = 0) -> Server:
        self._target_args = (role, name, config, tuple(extra))
        self.target = fleet.launch(role, name, config, extra, port)
        return self.target

    @property
    def readiness(self) -> Req:
        """The search whose correct answer ends set-up."""
        raise NotImplementedError

    # -- traffic -----------------------------------------------------------

    def schedule(self, seconds: float, phase: str = "") -> Schedule:
        """Warm-up then *seconds* of traffic, as (due, connection, request)."""
        raise NotImplementedError

    def schedule_hash(self, seconds: float) -> str:
        digest = hashlib.sha256()
        for due, conn, req in self.schedule(seconds):
            digest.update(f"{due:.6f} {conn} {req.describe()}\n".encode())
        return digest.hexdigest()

    def _rng(self, phase: str) -> random.Random:
        return random.Random(f"gridbench:{self.name}:{self.seed}:traffic:{phase}")

    # -- restart -----------------------------------------------------------

    def restart(self, fleet: Fleet) -> None:
        """Crash the target and start it again over the same files and port."""
        port = self.target.port
        fleet.crash(self.target)
        role, name, config, extra = self._target_args
        self.target = fleet.launch(role, name, config, extra, port)
        if self.front.name == name:
            self.front = self.target

    @property
    def restarted(self) -> Req:
        """The search whose correct answer ends a restart."""
        return self.readiness

    def check_restart(self, sample: Sample) -> str:
        """Beyond the oracle's verdict: '' or what recovery lost."""
        return ""

    def note(self, samples: Sequence[Sample]) -> None:
        """See the answers of a finished traffic phase (acknowledgements)."""


class GrisHost(Workload):
    name = "gris_host"
    why = ("5-entry per-machine GRIS at 300 req/s: backend work is tiny, so reactor, BER codec, "
           "server front end and executor dominate beside provider TTL refreshes; a gris/dit "
           "optimisation should not move it.")
    rates = {"search": 300.0}
    suffix = f"hn=node0, {GRID}"

    def launch(self, fleet: Fleet) -> None:
        config = self._write(fleet, "gris.json", {
            "suffix": self.suffix, "providers": _host_providers("node0", self.rng)})
        self.front = self._launch_target(fleet, "gris", "gris", config)

    def _requests(self) -> Dict[str, Req]:
        dns = _host_dns(self.suffix)
        return {
            "all": Req("subtree_all", self.suffix, Scope.SUBTREE,
                       expect=frozenset(dns.values())),
            "base": Req("base_suffix", self.suffix, Scope.BASE,
                        expect=frozenset([dns["host"]])),
            "queues": Req("queues", self.suffix, Scope.SUBTREE, "(objectclass=queue)",
                          expect=frozenset([dns["q1"], dns["q2"]])),
            # Attribute selection takes the answer off the encode fast lane.
            "load": Req("load_projected", self.suffix, Scope.SUBTREE,
                        "(objectclass=loadaverage)", ("load1", "load5"),
                        expect=frozenset([dns["load"]]),
                        expect_attrs=frozenset(["load1", "load5"])),
        }

    @property
    def readiness(self) -> Req:
        return self._requests()["all"]

    def schedule(self, seconds: float, phase: str = "") -> Schedule:
        rng, reqs = self._rng(phase), self._requests()
        shares = [(0.50, reqs["all"]), (0.25, reqs["base"]),
                  (0.15, reqs["queues"]), (0.10, reqs["load"])]
        return [(due, rng.randrange(self.connections), req)
                for due, req in _traffic(rng, self.rates["search"], seconds, shares)]


class GrisSite(Workload):
    name = "gris_site"
    why = ("526-entry org GRIS indexed on hn at 10 req/s, 85% planned lookups and 15% scans: "
           "gris collect-and-copy, the view, DIT planning, filter and per-entry encode dominate; "
           "the wire path is a small share.")
    rates = {"search": 10.0}
    hosts = 25
    devices = 20
    down = 75

    def __init__(self, seed: int):
        super().__init__(seed)
        pairs = [(h, d) for h in range(self.hosts) for d in range(self.devices)]
        self.down_devices = set(self.rng.sample(pairs, self.down))

    def _ldif(self) -> str:
        rng = self.rng
        lines = ["dn: ", "objectclass: organization", "o: Grid",
                 "description: site directory generated by gridbench", ""]
        for h in range(self.hosts):
            lines += [f"dn: hn=host{h}", "objectclass: computer", f"hn: host{h}",
                      "system: linux", f"osversion: 2.4.{rng.randrange(30)}",
                      "cputype: x86", f"cpucount: {rng.choice([2, 4, 8])}",
                      f"memorysize: {rng.choice([2048, 4096, 8192])} MB",
                      f"rack: r{h // 5}", ""]
            for d in range(self.devices):
                status = "down" if (h, d) in self.down_devices else "up"
                lines += [f"dn: dev=d{d}, hn=host{h}", "objectclass: device",
                          f"dev: d{d}", f"hn: host{h}",
                          f"devtype: {rng.choice(['disk', 'nic', 'gpu', 'tape'])}",
                          f"vendor: vendor{rng.randrange(12)}",
                          f"model: m{rng.randrange(1000)}",
                          f"capacity: {rng.randrange(1, 4000)} GB",
                          f"firmware: {rng.randrange(1, 9)}.{rng.randrange(20)}",
                          f"status: {status}", ""]
        return "\n".join(lines)

    def launch(self, fleet: Fleet) -> None:
        (fleet.workdir / "site.ldif").write_text(self._ldif())
        config = self._write(fleet, "gris.json", {
            "suffix": GRID, "indexes": ["hn"],
            "providers": [{"type": "ldif", "name": "site", "file": "site.ldif",
                           "cache_ttl": 3600}]})
        self.front = self._launch_target(fleet, "gris", "gris", config)

    def _lookup(self, host: int) -> Req:
        expect = [canon(f"hn=host{host}, {GRID}")]
        expect += [canon(f"dev=d{d}, hn=host{host}, {GRID}") for d in range(self.devices)]
        return Req(f"lookup_host{host}", GRID, Scope.SUBTREE, f"(hn=host{host})",
                   expect=frozenset(expect))

    def _scan(self) -> Req:
        return Req("scan_down", GRID, Scope.SUBTREE, "(&(objectclass=device)(status=down))",
                   expect=frozenset(canon(f"dev=d{d}, hn=host{h}, {GRID}")
                                    for h, d in self.down_devices))

    @property
    def readiness(self) -> Req:
        return self._scan()

    def schedule(self, seconds: float, phase: str = "") -> Schedule:
        rng, scan = self._rng(phase), self._scan()
        lookups = [self._lookup(h) for h in range(self.hosts)]
        shares = [(0.85, None), (0.15, scan)]  # None: a lookup, host drawn below
        return [(due, rng.randrange(self.connections), pick or rng.choice(lookups))
                for due, pick in _traffic(rng, self.rates["search"], seconds, shares)]


class GiisChained(Workload):
    name = "giis_chained"
    why = ("Chaining GIIS over 4 GRISes registered by real GRRP at 100 req/s, half VO-wide "
           "(fan-out 4, relay lane), half host-scoped (fan-out 1): fan-out, merge, relay, pool "
           "and child round trips dominate.")
    rates = {"search": 100.0}
    nodes = 4

    def launch(self, fleet: Fleet) -> None:
        giis = self._write(fleet, "giis.json", {"suffix": GRID, "giis": {"mode": "chain"}})
        self.front = fleet.launch("giis", "giis", giis)
        directory = f"ldap://127.0.0.1:{self.front.port}/{GRID}"
        for k in range(self.nodes):
            config = self._write(fleet, f"node{k}.json", {
                "suffix": f"hn=node{k}, {GRID}",
                "providers": _host_providers(f"node{k}", self.rng),
                "registrations": [{"directory": directory, "interval": 5, "ttl": 60,
                                   "name": f"node{k}"}]})
            if k == 0:
                self._launch_target(fleet, "gris", "node0", config)
            else:
                fleet.launch("gris", f"node{k}", config)

    def _vo_wide(self) -> Req:
        expect = []
        for k in range(self.nodes):
            dns = _host_dns(f"hn=node{k}, {GRID}")
            expect += [dns["q1"], dns["q2"]]
        return Req("vo_queues", GRID, Scope.SUBTREE, "(objectclass=queue)",
                   expect=frozenset(expect))

    def _host_scoped(self, k: int) -> Req:
        suffix = f"hn=node{k}, {GRID}"
        return Req(f"host_node{k}", suffix, Scope.SUBTREE,
                   expect=frozenset(_host_dns(suffix).values()))

    @property
    def readiness(self) -> Req:
        return self._vo_wide()

    @property
    def restarted(self) -> Req:
        # node0 comes back on its old port; the GIIS must redial it.
        return self._host_scoped(0)

    def schedule(self, seconds: float, phase: str = "") -> Schedule:
        rng, wide = self._rng(phase), self._vo_wide()
        scoped = [self._host_scoped(k) for k in range(self.nodes)]
        shares = [(0.5, wide), (0.5, None)]  # None: host-scoped, node drawn below
        return [(due, rng.randrange(self.connections), pick or rng.choice(scoped))
                for due, pick in _traffic(rng, self.rates["search"], seconds, shares)]


class GiisRegister(Workload):
    name = "giis_register"
    why = ("Referral GIIS on a WAL with 500 registrants: 100 GRRP refreshes/s beside 10 "
           "discovery searches/s, then SIGKILL and restart: writes beside reads on registry, "
           "GIIS and WAL; restart replays the log.")
    rates = {"register": 100.0, "search": 10.0}
    registrants = 500
    refresh_every = 5.0
    fsync = "batch"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.members = [
            Registrant(url=f"ldap://node{k}.grid.example:{self.rng.randrange(2000, 30000)}/",
                       suffix=f"hn=node{k}, {GRID}", name=f"node{k}", directory_suffix=GRID)
            for k in range(self.registrants)
        ]
        # Latest acknowledged REGISTER timestamp per registrant.
        self.acked: Dict[str, float] = {}

    def launch(self, fleet: Fleet) -> None:
        config = self._write(fleet, "giis.json", {
            "suffix": GRID, "giis": {"mode": "referral"},
            "storage": {"backend": "wal", "fsync": self.fsync}})
        data = fleet.workdir / "data"
        self.front = self._launch_target(fleet, "giis", "giis", config,
                                         ["--data-dir", str(data)])

    def load(self, gen: LoadGen) -> None:
        self.acked.clear()
        samples, _lags, _stalls = gen.run([(0.0, 0, Req(f"register_{m.name}", register=m))
                                  for m in self.members])
        failed = [s.verdict() for s in samples if s.verdict()]
        if failed:
            raise RuntimeError(f"set-up registrations failed: {failed[:3]}")
        self.note(samples)

    def note(self, samples: Sequence[Sample]) -> None:
        for s in samples:
            if s.req.register is not None and s.done and s.code == 0:
                url = s.req.register.url
                self.acked[url] = max(self.acked.get(url, 0.0), s.stamped)

    def _referral(self, member: Registrant) -> Tuple[str, int, str]:
        host, port = member.url[len("ldap://"):-1].split(":")
        return (host, int(port), canon(member.suffix))

    def _discover(self, member: Registrant) -> Req:
        return Req(f"discover_{member.name}", member.suffix, Scope.SUBTREE,
                   expect_referrals=frozenset([self._referral(member)]))

    @property
    def readiness(self) -> Req:
        return Req("list_registrations", GRID, Scope.ONELEVEL, "(objectclass=giisregistration)",
                   expect=frozenset(canon(str(registration_dn(m.url, GRID)))
                                    for m in self.members),
                   expect_referrals=frozenset(self._referral(m) for m in self.members),
                   keep_entries=True)

    def check_restart(self, sample: Sample) -> str:
        """Every acknowledged refresh must have survived the replay."""
        for entry in sample.entries:
            url = entry.first("url")
            stamp = float(entry.first("mds-timestamp", "0"))
            if stamp < self.acked.get(url, 0.0):
                return (f"{url}: recovered timestamp {stamp!r} is older than "
                        f"the acknowledged {self.acked[url]!r}")
        return ""

    def schedule(self, seconds: float, phase: str = "") -> Schedule:
        rng = self._rng(phase)
        # Each registrant refreshes every 5 s from its own seeded phase,
        # which holds the aggregate at exactly 100/s.
        phases = [rng.random() * self.refresh_every for _ in self.members]
        total = WARMUP_S + seconds
        out: Schedule = []
        for member, offset in zip(self.members, phases):
            req = Req(f"register_{member.name}", register=member)
            due = offset
            while due < total:
                out.append((due, 0, req))
                due += self.refresh_every
        for due, _pick in _traffic(rng, self.rates["search"], seconds, [(1.0, None)]):
            out.append((due, 1, self._discover(rng.choice(self.members))))
        out.sort(key=lambda item: item[0])
        return out


WORKLOADS = {cls.name: cls for cls in (GrisHost, GrisSite, GiisChained, GiisRegister)}
