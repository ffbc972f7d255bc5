"""Static GRIS configuration (paper §9, §10.3).

"a GRIS is configured by specifying the type of information to be
produced by a provider and the provider-defined set of routines that
implement the GRIS API.  Configuration can be done either dynamically
or statically via configuration files."

The file format is JSON (one object), mirroring the MDS grid-info.conf
role::

    {
      "suffix": "hn=myhost, o=Demo",
      "providers": [
        {"type": "static-host", "hostname": "myhost", "cpu_count": 8,
         "memory_mb": 4096, "system": "linux", "cache_ttl": 3600},
        {"type": "dynamic-host", "hostname": "myhost", "cache_ttl": 5},
        {"type": "storage", "hostname": "myhost", "store": "scratch",
         "path": "/scratch", "cache_ttl": 60},
        {"type": "queue", "hostname": "myhost", "queue": "default"},
        {"type": "ldif", "name": "site-info", "file": "site.ldif",
         "cache_ttl": 3600}
      ],
      "registrations": [
        {"directory": "ldap://giis.example:2135/o=Grid",
         "interval": 30, "ttl": 90, "name": "myhost", "vo": "DemoVO"}
      ],
      "tracing": {
        "trace_log": "/var/log/mds/myhost-spans.jsonl",
        "sample_rate": 0.1, "slow_query_ms": 250,
        "server_id": "myhost:2135"
      }
    }

``type: ldif`` providers serve a static LDIF file — the common way MDS
sites published hand-maintained information.  Provider ``base`` fields
default to "" (entries rooted at the GRIS suffix), matching the
per-machine deployment; set ``base`` explicitly for org-level GRISes.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..ldap.dn import DN
from ..ldap.ldif import parse_ldif
from ..ldap.storage import StorageError, StorageSpec, make_storage, parse_storage_spec
from ..net.clock import Clock, WallClock
from ..obs.metrics import MetricsRegistry
from .core import GrisBackend
from .host import DynamicHostProvider, HostConfig, StaticHostProvider, real_load_sensor
from .provider import FunctionProvider, InformationProvider
from .storage import QueueProvider, StorageProvider, real_filesystem_stat

__all__ = [
    "ConfigError",
    "RegistrationSpec",
    "TracingSpec",
    "GiisSpec",
    "GrisConfig",
    "load_config",
    "build_gris",
    "build_giis",
]


class ConfigError(ValueError):
    """Raised on malformed configuration files."""


@dataclass(frozen=True)
class RegistrationSpec:
    """One directory this GRIS should register with (§9 manual config)."""

    directory: str
    interval: float = 30.0
    ttl: float = 90.0
    name: str = ""
    vo: str = ""


@dataclass(frozen=True)
class TracingSpec:
    """Distributed-tracing options (the optional ``tracing`` object).

    ``trace_log`` is a JSONL span-export path, ``sample_rate`` the
    head-based sampling probability applied at local roots,
    ``slow_query_ms`` the slow-tree capture threshold (0 disables), and
    ``server_id`` the identifier stamped into exported span records
    (defaults to the listen address when started via grid-info-server).
    """

    trace_log: str = ""
    sample_rate: float = 1.0
    slow_query_ms: float = 0.0
    server_id: str = ""

    @property
    def enabled(self) -> bool:
        return bool(self.trace_log) or self.slow_query_ms > 0


@dataclass(frozen=True)
class GiisSpec:
    """The optional ``giis`` object: run the server as an aggregate
    directory (GIIS) over the configured suffix instead of a GRIS."""

    mode: str = "chain"
    vo: str = ""
    cache_ttl: float = 0.0
    registration_grace: float = 0.0


@dataclass
class GrisConfig:
    """A parsed configuration."""

    suffix: str
    providers: List[InformationProvider] = field(default_factory=list)
    registrations: List[RegistrationSpec] = field(default_factory=list)
    tracing: TracingSpec = field(default_factory=TracingSpec)
    index_attrs: List[str] = field(default_factory=list)
    storage: Optional[StorageSpec] = None
    giis: Optional[GiisSpec] = None


def _require(spec: Dict, key: str, provider_type: str):
    try:
        return spec[key]
    except KeyError:
        raise ConfigError(f"provider type {provider_type!r} requires {key!r}") from None


def _build_provider(
    spec: Dict, base_dir: pathlib.Path, load_sensor: Callable
) -> InformationProvider:
    ptype = spec.get("type")
    ttl = float(spec.get("cache_ttl", 0.0))
    base = spec.get("base", "")
    if ptype == "static-host":
        config = HostConfig(
            hostname=_require(spec, "hostname", ptype),
            system=spec.get("system", "linux"),
            os_version=spec.get("os_version", ""),
            cpu_type=spec.get("cpu_type", "x86"),
            cpu_count=int(spec.get("cpu_count", 1)),
            memory_mb=int(spec.get("memory_mb", 512)),
            architecture=spec.get("architecture", "ia32"),
        )
        return StaticHostProvider(config, cache_ttl=ttl or 3600.0, base=base)
    if ptype == "dynamic-host":
        return DynamicHostProvider(
            _require(spec, "hostname", ptype),
            load_sensor,
            cache_ttl=ttl or 15.0,
            base=base,
        )
    if ptype == "storage":
        path = _require(spec, "path", ptype)
        return StorageProvider(
            _require(spec, "hostname", ptype),
            spec.get("store", "scratch"),
            path,
            real_filesystem_stat(path),
            cache_ttl=ttl or 60.0,
            base=base,
        )
    if ptype == "queue":
        return QueueProvider(
            _require(spec, "hostname", ptype),
            spec.get("queue", "default"),
            cache_ttl=ttl or 10.0,
            base=base,
        )
    if ptype == "ldif":
        file_path = base_dir / _require(spec, "file", ptype)
        name = spec.get("name", file_path.stem)
        try:
            entries = parse_ldif(file_path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read LDIF file {file_path}: {exc}") from exc
        return FunctionProvider(
            name,
            lambda entries=entries: entries,
            namespace=spec.get("namespace", base),
            cache_ttl=ttl or 3600.0,
        )
    raise ConfigError(f"unknown provider type {ptype!r}")


def load_config(
    path: str | pathlib.Path,
    load_sensor: Optional[Callable] = None,
) -> GrisConfig:
    """Parse a GRIS configuration file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "suffix" not in data:
        raise ConfigError(f"{path}: config must be an object with a 'suffix'")
    try:
        DN.parse(data["suffix"])
    except Exception as exc:  # noqa: BLE001
        raise ConfigError(f"{path}: bad suffix: {exc}") from exc

    sensor = load_sensor or real_load_sensor
    providers = [
        _build_provider(spec, path.parent, sensor)
        for spec in data.get("providers", [])
    ]
    registrations = []
    for spec in data.get("registrations", []):
        if "directory" not in spec:
            raise ConfigError(f"{path}: registration entry requires 'directory'")
        registrations.append(
            RegistrationSpec(
                directory=spec["directory"],
                interval=float(spec.get("interval", 30.0)),
                ttl=float(spec.get("ttl", 90.0)),
                name=spec.get("name", ""),
                vo=spec.get("vo", ""),
            )
        )
    tracing_spec = data.get("tracing", {})
    if not isinstance(tracing_spec, dict):
        raise ConfigError(f"{path}: 'tracing' must be an object")
    try:
        tracing = TracingSpec(
            trace_log=str(tracing_spec.get("trace_log", "")),
            sample_rate=float(tracing_spec.get("sample_rate", 1.0)),
            slow_query_ms=float(tracing_spec.get("slow_query_ms", 0.0)),
            server_id=str(tracing_spec.get("server_id", "")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad tracing section: {exc}") from exc
    if not 0.0 <= tracing.sample_rate <= 1.0:
        raise ConfigError(f"{path}: sample_rate must be within [0, 1]")
    indexes = data.get("indexes", [])
    if not isinstance(indexes, list) or not all(
        isinstance(a, str) and a for a in indexes
    ):
        raise ConfigError(f"{path}: 'indexes' must be a list of attribute names")
    storage = None
    if "storage" in data:
        try:
            storage = parse_storage_spec(data["storage"])
        except StorageError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    giis = None
    if "giis" in data:
        giis_data = data["giis"]
        if not isinstance(giis_data, dict):
            raise ConfigError(f"{path}: 'giis' must be an object")
        mode = str(giis_data.get("mode", "chain"))
        if mode not in ("chain", "referral"):
            raise ConfigError(
                f"{path}: giis mode must be 'chain' or 'referral', not {mode!r}"
            )
        try:
            giis = GiisSpec(
                mode=mode,
                vo=str(giis_data.get("vo", "")),
                cache_ttl=float(giis_data.get("cache_ttl", 0.0)),
                registration_grace=float(giis_data.get("registration_grace", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad giis section: {exc}") from exc
    return GrisConfig(
        suffix=data["suffix"],
        providers=providers,
        registrations=registrations,
        tracing=tracing,
        index_attrs=[a for a in indexes],
        storage=storage,
        giis=giis,
    )


def _make_engine(
    config: GrisConfig,
    data_dir: Optional[str],
    subdir: str,
    metrics: MetricsRegistry,
    tracer,
):
    """Instantiate the configured storage engine for one consumer.

    ``data_dir`` (the ``--data-dir`` flag) overrides the spec's path; a
    bare ``--data-dir`` with no storage object implies the WAL backend.
    """
    spec = config.storage
    if spec is None:
        if not data_dir:
            return None
        spec = StorageSpec(backend="wal")
    try:
        return make_storage(
            spec,
            data_dir,
            subdir=subdir,
            metrics=metrics,
            tracer=tracer,
            name=subdir,
        )
    except StorageError as exc:
        raise ConfigError(str(exc)) from exc


def build_gris(
    config: GrisConfig,
    clock: Optional[Clock] = None,
    metrics=None,
    provider_workers: int = 0,
    stale_while_revalidate: float = 0.0,
    data_dir: Optional[str] = None,
    tracer=None,
) -> GrisBackend:
    """Instantiate a GRIS backend from a parsed configuration.

    Pass a shared :class:`~repro.obs.metrics.MetricsRegistry` to fold
    this GRIS's counters into a process-wide ``cn=monitor`` surface.
    ``provider_workers`` > 0 refreshes the providers one search needs
    concurrently on a bounded pool (0 keeps the deterministic inline
    dispatch), and
    ``stale_while_revalidate`` widens each provider's serve window by
    that many seconds: expired-but-within-window snapshots are answered
    immediately while one background refresh runs.  Each served provider
    snapshot builds the posting lists of an attribute the first time an
    equality/presence search plans over it; a non-empty ``indexes`` list
    in the config only builds those attributes' lists eagerly, when the
    snapshot is published.  A durable ``storage`` object
    (or ``data_dir``) persists the snapshots: the server restarts warm,
    serving pre-crash snapshots until their TTLs lapse.
    """
    metrics = metrics or MetricsRegistry()
    storage = _make_engine(config, data_dir, "gris-view", metrics, tracer)
    gris = GrisBackend(
        config.suffix,
        clock=clock or WallClock(),
        metrics=metrics,
        provider_workers=provider_workers,
        stale_while_revalidate=stale_while_revalidate,
        index_attrs=config.index_attrs or None,
        storage=storage,
    )
    for provider in config.providers:
        gris.add_provider(provider)
    return gris


def build_giis(
    config: GrisConfig,
    clock: Optional[Clock] = None,
    metrics=None,
    connector=None,
    data_dir: Optional[str] = None,
    tracer=None,
    url=None,
):
    """Instantiate a GIIS backend (the ``giis`` config object).

    With a ``storage`` object (or ``data_dir``), the registration list
    survives restarts: a GIIS killed and restarted over the same data
    directory serves the same registrations immediately instead of
    waiting out a full soft-state refresh cycle.
    """
    from ..giis.core import GiisBackend

    metrics = metrics or MetricsRegistry()
    storage = _make_engine(config, data_dir, "giis-registrations", metrics, tracer)
    spec = config.giis or GiisSpec()
    return GiisBackend(
        config.suffix,
        clock or WallClock(),
        connector=connector,
        url=url,
        mode=spec.mode,
        cache_ttl=spec.cache_ttl,
        registration_grace=spec.registration_grace,
        vo_name=spec.vo,
        metrics=metrics,
        tracer=tracer,
        storage=storage,
    )
