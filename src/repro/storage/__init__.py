"""Disk-backed persistence: durable OEM store, query cache, memos.

The paper's repository scenario (Section 1) answers queries from cached
and materialized results; this package makes that state survive a
process restart using only the standard library:

* :class:`DurableStore` -- the base OEM store as snapshot + WAL
  (:mod:`~repro.storage.durable`);
* :class:`CacheStore` -- the repository's one
  :class:`~repro.repository.cache.QueryCache` persisted as one document
  (:mod:`~repro.storage.cachestore`);
* :class:`SessionRegistry` -- rewrite-result memos per server
  configuration (:mod:`~repro.storage.registry`);
* :mod:`~repro.storage.maintenance` -- the sound label-overlap test
  that patches (rather than drops) cached answers an update provably
  cannot change.

``docs/PERSISTENCE.md`` documents the on-disk format and the
invalidation rules; the ``persist`` fuzz oracle cross-checks the whole
stack round-trip.
"""

from .cachestore import CacheStore
from .durable import DurableStore
from .format import STORAGE_SCHEMA_VERSION, StorageLayout
from .maintenance import may_overlap, statement_labels
from .registry import SessionRegistry

__all__ = [
    "STORAGE_SCHEMA_VERSION",
    "StorageLayout",
    "DurableStore",
    "CacheStore",
    "SessionRegistry",
    "may_overlap",
    "statement_labels",
]
