"""DIT storage engines: memory, or memory behind a write-ahead log.

See :mod:`repro.ldap.storage.api` for the ``ChangeOp``/``StorageEngine``
contract and :func:`make_storage` for the config-driven factory used by
``grid-info-server --storage/--data-dir``.
"""

from .api import (
    BACKENDS,
    FSYNC_POLICIES,
    ChangeKind,
    ChangeOp,
    StorageEngine,
    StorageError,
    StorageSpec,
    entry_from_record,
    entry_to_record,
    make_storage,
    parse_storage_spec,
)
from .memory import MemoryEngine
from .wal import WAL_HEADER, WalEngine, read_wal

__all__ = [
    "BACKENDS",
    "FSYNC_POLICIES",
    "ChangeKind",
    "ChangeOp",
    "StorageEngine",
    "StorageError",
    "StorageSpec",
    "MemoryEngine",
    "WalEngine",
    "entry_from_record",
    "entry_to_record",
    "make_storage",
    "parse_storage_spec",
    "read_wal",
    "WAL_HEADER",
]
