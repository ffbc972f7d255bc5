"""GIIS: aggregate directory services (paper §5, §10.4).

The framework (:mod:`repro.giis.core`) plus the specialized directories
the paper describes: hierarchical discovery (Figure 5), name-serving,
relational with joins, and Condor-style matchmaking.
"""

from .bootstrap import SlpDirectoryAdvertiser, discover_directories, discover_via_slp
from .core import Connector, GiisBackend, GiisIndex
from .hierarchy import (
    GRRP_DATAGRAM_PORT,
    DatagramGrrpSender,
    LdapGrrpSender,
    make_registrant,
)
from .indexes import NameIndex, PullIndex
from .matchmaker import (
    UNDEFINED,
    AdError,
    ClassAd,
    MatchmakerDirectory,
    Undefined,
    evaluate,
    match,
)
from .nameservice import NameService
from .relational import RelationalDirectory, Row, Table

__all__ = [
    "SlpDirectoryAdvertiser",
    "discover_directories",
    "discover_via_slp",
    "Connector",
    "GiisBackend",
    "GiisIndex",
    "GRRP_DATAGRAM_PORT",
    "DatagramGrrpSender",
    "LdapGrrpSender",
    "make_registrant",
    "NameIndex",
    "PullIndex",
    "UNDEFINED",
    "AdError",
    "ClassAd",
    "MatchmakerDirectory",
    "Undefined",
    "evaluate",
    "match",
    "NameService",
    "RelationalDirectory",
    "Row",
    "Table",
]
