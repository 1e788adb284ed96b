"""A disk-backed :class:`~repro.repository.Store`: snapshot + WAL.

The paper's Section 1 repository scenario answers queries from cached
and materialized results; for that to survive a restart the base OEM
store itself must be durable.  :class:`DurableStore` keeps the whole
database in memory (the evaluator works on :class:`OemDatabase`) and
makes every mutation durable with the standard two-tier scheme:

* each ``add_*`` appends one JSON record to an append-only write-ahead
  log (``store/wal.jsonl``) before touching the in-memory image;
* :meth:`compact` folds the log into a sorted, schema-versioned
  snapshot written crash-safely (temp file + fsync + atomic rename)
  and truncates the log.

Opening a store loads the snapshot and replays the log, tolerating a
torn final record (the one write a crash can interrupt).  The store
*version* -- the staleness clock of the materialized views and the
query cache -- is ``snapshot version + replayed records``, so it is
stable across restarts and the persisted cache entries tagged with it
remain valid.

``autocompact_ops`` bounds the log: after that many appended records
the next mutation triggers a compaction (the "periodic flush" knob;
0 disables it).  Explicit :meth:`flush` fsyncs the log without paying
for a snapshot.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import IO

from ..errors import StorageError
from ..logic.terms import Atom
from ..oem.model import OemDatabase, OidLike, as_oid
from ..oem.serialize import (database_from_json, database_to_json,
                             term_from_json, term_to_json)
from ..repository.store import Store
from .format import (KIND_SNAPSHOT, STORAGE_SCHEMA_VERSION, StorageLayout,
                     atomic_write_json, check_document, iter_wal, json_line,
                     read_document, wal_value)

__all__ = ["DurableStore", "current_store_version"]


def current_store_version(layout: StorageLayout) -> int | None:
    """The store version at *layout* without loading the database.

    Snapshot version plus pending WAL records -- exactly what
    :meth:`DurableStore.open` would arrive at -- or ``None`` when the
    directory holds no store yet.  Used by the server to tag persisted
    session memos without paying for a full store load.
    """
    version = None
    if layout.snapshot.exists():
        snapshot = read_document(layout.snapshot)
        check_document(snapshot, KIND_SNAPSHOT, layout.snapshot)
        version = snapshot["version"]
    records = iter_wal(layout.wal)
    if records:
        version = (version or 0) + len(records)
    return version


class DurableStore(Store):
    """A :class:`Store` whose state survives process restarts."""

    def __init__(self, layout: StorageLayout, name: str = "db", *,
                 autocompact_ops: int = 0, metrics=None) -> None:
        Store.__init__(self, name)
        self.layout = layout
        self.autocompact_ops = autocompact_ops
        self.metrics = metrics
        self.wal_records = 0
        self._wal_handle: IO[str] | None = None
        self._replaying = False

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, name: str = "db", *,
               force: bool = False, autocompact_ops: int = 0,
               metrics=None) -> "DurableStore":
        """Initialize *root* and return the (empty) open store."""
        layout = StorageLayout(root)
        layout.create(name, force=force)
        store = cls(layout, name, autocompact_ops=autocompact_ops,
                    metrics=metrics)
        store.compact()          # write the empty version-0 snapshot
        return store

    @classmethod
    def open(cls, root: str | Path, *, autocompact_ops: int = 0,
             metrics=None) -> "DurableStore":
        """Open an initialized store: load the snapshot, replay the WAL."""
        layout = StorageLayout(root)
        manifest = layout.read_manifest()
        store = cls(layout, manifest["name"],
                    autocompact_ops=autocompact_ops, metrics=metrics)
        store._replaying = True
        try:
            if layout.snapshot.exists():
                snapshot = read_document(layout.snapshot)
                check_document(snapshot, KIND_SNAPSHOT, layout.snapshot)
                store.db = database_from_json(snapshot["database"])
                store.version = snapshot["version"]
                if store.db.name != manifest["name"]:
                    raise StorageError(
                        f"{layout.snapshot}: snapshot is for database "
                        f"{store.db.name!r}, manifest says "
                        f"{manifest['name']!r}")
            records = iter_wal(layout.wal)
            for record in records:
                store._apply(record)
            store.wal_records = len(records)
        finally:
            store._replaying = False
        store._count("store.opens")
        store._count("store.wal.replayed", len(records))
        return store

    def close(self) -> None:
        """Flush and release the WAL handle (reopen-safe)."""
        if self._wal_handle is not None:
            self.flush()
            self._wal_handle.close()
            self._wal_handle = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- metrics ---------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.increment(name, amount)

    def _observe(self, name: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, seconds)

    # -- the write-ahead log ---------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._replaying:
            return
        if self._wal_handle is None:
            self.layout.store_dir.mkdir(parents=True, exist_ok=True)
            self._wal_handle = open(self.layout.wal, "a",
                                    encoding="utf-8")
        started = time.perf_counter() if self.metrics is not None else 0.0
        self._wal_handle.write(json_line(record))
        self._wal_handle.flush()
        if self.metrics is not None:
            self._observe("store.wal.append.seconds",
                          time.perf_counter() - started)
        self.wal_records += 1
        self._count("store.ops")
        if self.autocompact_ops and self.wal_records >= self.autocompact_ops:
            self.compact()

    def _apply(self, record: dict) -> None:
        """Replay one WAL record through the normal mutation path."""
        op = record.get("op")
        if op == "atomic":
            self.add_atomic(term_from_json(record["oid"]),
                            record["label"], record["value"])
        elif op == "set":
            self.add_set(term_from_json(record["oid"]), record["label"])
        elif op == "child":
            self.add_child(term_from_json(record["parent"]),
                           term_from_json(record["child"]))
        elif op == "root":
            self.add_root(term_from_json(record["oid"]))
        else:
            raise StorageError(f"unknown WAL op {op!r} in {self.layout.wal}")

    # -- logged mutations ------------------------------------------------------

    def add_atomic(self, oid: OidLike, label: Atom, value: Atom) -> OidLike:
        self._append({"op": "atomic", "oid": term_to_json(as_oid(oid)),
                      "label": wal_value(label),
                      "value": wal_value(value)})
        return super().add_atomic(oid, label, value)

    def add_set(self, oid: OidLike, label: Atom) -> OidLike:
        self._append({"op": "set", "oid": term_to_json(as_oid(oid)),
                      "label": wal_value(label)})
        return super().add_set(oid, label)

    def add_child(self, parent: OidLike, child: OidLike) -> None:
        self._append({"op": "child", "parent": term_to_json(as_oid(parent)),
                      "child": term_to_json(as_oid(child))})
        super().add_child(parent, child)

    def add_root(self, oid: OidLike) -> None:
        self._append({"op": "root", "oid": term_to_json(as_oid(oid))})
        super().add_root(oid)

    def ingest(self, db: OemDatabase) -> int:
        """Bulk-add another database's contents (sorted, so the WAL is
        deterministic for a given input).  Returns records appended."""
        from ..oem.serialize import term_sort_key
        before = self.wal_records
        oids = sorted(db.oids(), key=term_sort_key)
        for oid in oids:
            if db.is_atomic(oid):
                self.add_atomic(oid, db.label(oid), db.atomic_value(oid))
            else:
                self.add_set(oid, db.label(oid))
        for oid in oids:
            for child in sorted(db.children(oid), key=term_sort_key):
                self.add_child(oid, child)
        for root in sorted(db.roots, key=term_sort_key):
            self.add_root(root)
        return self.wal_records - before

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        """Make every appended WAL record durable (fsync)."""
        if self._wal_handle is not None:
            started = time.perf_counter() if self.metrics is not None \
                else 0.0
            self._wal_handle.flush()
            os.fsync(self._wal_handle.fileno())
            if self.metrics is not None:
                self._observe("store.wal.fsync.seconds",
                              time.perf_counter() - started)
        self._count("store.flushes")

    def compact(self) -> dict:
        """Fold the WAL into a fresh sorted snapshot; truncate the log.

        The snapshot is written atomically *before* the log is
        truncated, so a crash between the two steps only means some
        records are replayed onto a state that already contains them --
        every ``add_*`` is idempotent, so replay converges.
        """
        started = time.perf_counter() if self.metrics is not None else 0.0
        snapshot = {
            "schema_version": STORAGE_SCHEMA_VERSION,
            "kind": KIND_SNAPSHOT,
            "version": self.version,
            "database": database_to_json(self.db, sort_oids=True),
        }
        self.layout.store_dir.mkdir(parents=True, exist_ok=True)
        size = atomic_write_json(self.layout.snapshot, snapshot)
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
        if self.layout.wal.exists():
            self.layout.wal.unlink()
        self.wal_records = 0
        if self.metrics is not None:
            self._observe("store.compact.seconds",
                          time.perf_counter() - started)
        self._count("store.compactions")
        return {"snapshot_bytes": size, "version": self.version,
                "objects": len(self.db)}

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic store statistics (feeds ``repro db stats``)."""
        db_stats = self.db.stats()
        return {
            "name": self.name,
            "version": self.version,
            "objects": db_stats["objects"],
            "atomic": db_stats["atomic"],
            "set": db_stats["set"],
            "edges": db_stats["edges"],
            "roots": db_stats["roots"],
            "wal_records": self.wal_records,
            "snapshot_exists": self.layout.snapshot.exists(),
        }
