"""Persistence for the :class:`~repro.repository.cache.QueryCache`.

The cache serializes to one schema-versioned JSON document holding its
entries **sorted by canonical key** (so the file bytes depend only on
the logical contents, never on insertion order) with an ``lru`` index
recording the recency order to restore.  Statements round-trip through
the structural query codec (:mod:`repro.tsl.serialize` -- total over
the AST, where TSL text is not) and answers through the sorted OEM
JSON codec, so a reloaded entry is byte-identical to the saved one
under re-serialization -- the ``persist`` oracle checks exactly that.

Loading is **forgiving**: a cache document is an optimization, never
the source of truth, so a missing file, an unknown kind or schema
version, or entries tagged with a different store version are silently
discarded (counted in the returned stats) rather than raised.
The store snapshot/WAL, by contrast, refuses to load anything
questionable (:mod:`repro.storage.durable`).
"""

from __future__ import annotations

import json

from ..oem.serialize import database_from_json, database_to_json
from ..repository.cache import CacheEntry, QueryCache
from ..tsl.serialize import query_from_json, query_to_json
from .format import KIND_CACHE, STORAGE_SCHEMA_VERSION, atomic_write_json

__all__ = ["CacheStore"]


def _entry_to_json(entry: CacheEntry, lru: int) -> dict:
    return {
        "name": entry.name,
        "key": entry.key,
        "statement": query_to_json(entry.statement),
        "version": entry.as_of_version,
        "hits": entry.hits,
        "lru": lru,
        "answer": database_to_json(entry.answer, sort_oids=True),
    }


def _entry_from_json(record: dict) -> CacheEntry:
    statement = query_from_json(record["statement"])
    return CacheEntry(
        name=record["name"],
        statement=statement,
        answer=database_from_json(record["answer"]),
        as_of_version=record["version"],
        key=record["key"],
        hits=record["hits"],
    )


class CacheStore:
    """Save/load a :class:`QueryCache` to/from one document at *path*."""

    def __init__(self, path) -> None:
        self.path = path

    def save(self, cache: QueryCache, store_version: int) -> dict:
        """Write the cache document crash-safely; returns save stats."""
        entries = cache.snapshot_entries()
        records = [_entry_to_json(entry, lru) for lru, entry
                   in enumerate(entries)]
        records.sort(key=lambda record: record["key"])
        document = {
            "schema_version": STORAGE_SCHEMA_VERSION,
            "kind": KIND_CACHE,
            "store_version": store_version,
            "entries": records,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        size = atomic_write_json(self.path, document)
        return {"entries": len(records), "bytes": size}

    def load(self, cache: QueryCache, store_version: int) -> dict:
        """Restore entries valid at *store_version*; returns load stats.

        Anything unusable -- absent file, foreign kind or schema,
        entries from another store version -- is dropped, not raised: a
        discarded cache only costs re-computation.
        """
        stats = {"entries": 0, "dropped": 0}
        document = self._read()
        if document is None:
            return stats
        records = document.get("entries", [])
        if document.get("store_version") != store_version:
            stats["dropped"] = len(records)
            return stats
        entries: list[tuple[int, CacheEntry]] = []
        for record in records:
            entry = _entry_from_json(record)
            if entry.as_of_version != store_version:
                stats["dropped"] += 1
                continue
            entries.append((record["lru"], entry))
        entries.sort(key=lambda pair: pair[0])
        cache.restore_entries([entry for _lru, entry in entries])
        stats["entries"] = len(cache)
        stats["dropped"] += len(entries) - len(cache)
        return stats

    def persisted(self) -> dict:
        """What the document on disk holds, without loading it.

        ``entries`` is the persisted entry count (0 for an absent or
        unusable document); ``written`` is the file's mtime, or None
        when there is no file.  ``repro db stats`` and the server's
        ``/healthz`` store section both report this.
        """
        try:
            written = self.path.stat().st_mtime
        except OSError:
            return {"entries": 0, "written": None}
        document = self._read()
        entries = len(document.get("entries", [])) if document else 0
        return {"entries": entries, "written": written}

    def _read(self) -> dict | None:
        """The parsed document, or None when it is absent or foreign."""
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(document, dict)
                or document.get("kind") != KIND_CACHE
                or document.get("schema_version") != STORAGE_SCHEMA_VERSION):
            return None
        return document
