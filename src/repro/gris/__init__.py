"""GRIS: the Grid Resource Information Service (paper §10.3).

A configurable information-provider framework: pluggable providers
(static/dynamic host, storage, queue, NWS-backed network pairs) behind
the shared LDAP server front end, with namespace-pruned dispatch,
per-provider TTL caching, and polling subscriptions.
"""

from .cache import ProviderCache
from .core import GrisBackend
from .host import (
    DynamicHostProvider,
    HostConfig,
    SimulatedLoadSensor,
    StaticHostProvider,
    real_load_sensor,
)
from .netpairs import NetworkPairsProvider, pair_series
from .nws import (
    AdaptiveForecaster,
    Ar1,
    Ewma,
    Forecast,
    Forecaster,
    LastValue,
    RunningMean,
    SeriesStore,
    SlidingMean,
    SlidingMedian,
    default_forecasters,
)
from .provider import FunctionProvider, InformationProvider, ProviderError, ScriptProvider
from .storage import (
    QueueProvider,
    QueueState,
    StorageProvider,
    real_filesystem_stat,
)

__all__ = [
    "ProviderCache",
    "GrisBackend",
    "DynamicHostProvider",
    "HostConfig",
    "SimulatedLoadSensor",
    "StaticHostProvider",
    "real_load_sensor",
    "NetworkPairsProvider",
    "pair_series",
    "AdaptiveForecaster",
    "Ar1",
    "Ewma",
    "Forecast",
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SeriesStore",
    "SlidingMean",
    "SlidingMedian",
    "default_forecasters",
    "FunctionProvider",
    "InformationProvider",
    "ProviderError",
    "ScriptProvider",
    "QueueProvider",
    "QueueState",
    "StorageProvider",
    "real_filesystem_stat",
]
