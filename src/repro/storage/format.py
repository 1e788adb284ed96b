"""On-disk layout, schema versions, and crash-safe file primitives.

Everything :mod:`repro.storage` writes is JSON with an explicit
``schema_version`` and ``kind`` marker, so a reader can refuse (store
documents) or silently discard (cache/memo documents -- they are an
optimization, never the source of truth) state written by an
incompatible layer.  All documents are written with sorted keys and
sorted content order, so the same logical state always produces the
same bytes (``db stats`` and snapshot diffs are byte-stable).

Durability is the classic two-tier scheme:

* **snapshots** (the store image, the query cache, session memos) are
  written to a temporary file in the same directory, fsynced, and
  atomically renamed over the target -- a crash leaves either the old
  or the new file, never a torn one;
* the **write-ahead log** is append-only JSON lines; replay tolerates a
  truncated final line (the one write a crash can tear).

A store *root* directory is laid out as::

    ROOT/
      MANIFEST.json            # name, schema version
      store/
        snapshot.json          # the OEM image at some version
        wal.jsonl              # updates since the snapshot
      cache/
        cache.json             # the persisted QueryCache
      sessions/
        session-<key>.json     # persisted RewriteSession result memos

Nothing else under ``cache/`` is read, and manifest fields this build
does not know are ignored: a root written when the cache was split
across several documents opens with its store intact and a cold cache.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..errors import StorageError

#: Bump on incompatible changes to any on-disk document shape.
STORAGE_SCHEMA_VERSION = 1

#: ``kind`` markers, one per document type.
KIND_MANIFEST = "repro-store-manifest"
KIND_SNAPSHOT = "repro-store-snapshot"
KIND_CACHE = "repro-query-cache"
KIND_SESSION_MEMO = "repro-session-memo"

__all__ = ["STORAGE_SCHEMA_VERSION", "KIND_MANIFEST", "KIND_SNAPSHOT",
           "KIND_CACHE", "KIND_SESSION_MEMO", "StorageLayout",
           "atomic_write_json", "read_document", "check_document"]


def atomic_write_json(path: Path, payload: dict) -> int:
    """Write *payload* crash-safely; returns the byte count written.

    The temporary file lives in the target directory (``os.replace``
    must not cross filesystems) and is fsynced before the rename, so
    after a crash the target is either absent, the previous version, or
    the complete new version.  Keys are sorted for byte stability.
    """
    encoded = (json.dumps(payload, indent=1, sort_keys=True)
               + "\n").encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(encoded)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(encoded)


def read_document(path: Path) -> dict:
    """Load one JSON document, mapping file breakage to StorageError."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise StorageError(f"missing storage file: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt storage file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise StorageError(f"corrupt storage file {path}: not an object")
    return data


def check_document(data: dict, kind: str, path: Path) -> None:
    """Refuse a document of the wrong kind or schema version."""
    if data.get("kind") != kind:
        raise StorageError(
            f"{path}: expected a {kind!r} document, found "
            f"{data.get('kind')!r}")
    version = data.get("schema_version")
    if version != STORAGE_SCHEMA_VERSION:
        raise StorageError(
            f"{path}: schema_version {version} is not supported "
            f"(this build reads version {STORAGE_SCHEMA_VERSION})")


class StorageLayout:
    """The fixed file layout under one store root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def manifest(self) -> Path:
        return self.root / "MANIFEST.json"

    @property
    def store_dir(self) -> Path:
        return self.root / "store"

    @property
    def snapshot(self) -> Path:
        return self.store_dir / "snapshot.json"

    @property
    def wal(self) -> Path:
        return self.store_dir / "wal.jsonl"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def cache_file(self) -> Path:
        return self.cache_dir / "cache.json"

    @property
    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    def session_path(self, key: str) -> Path:
        return self.sessions_dir / f"session-{key}.json"

    def exists(self) -> bool:
        return self.manifest.exists()

    # -- manifest --------------------------------------------------------------

    def create(self, name: str, *, force: bool = False) -> dict:
        """Initialize the directory tree and write the manifest."""
        if self.exists() and not force:
            raise StorageError(
                f"{self.root} is already an initialized store "
                f"(use force/--force to re-initialize)")
        for directory in (self.root, self.store_dir, self.cache_dir,
                          self.sessions_dir):
            directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema_version": STORAGE_SCHEMA_VERSION,
            "kind": KIND_MANIFEST,
            "name": name,
        }
        atomic_write_json(self.manifest, manifest)
        return manifest

    def read_manifest(self) -> dict:
        if not self.exists():
            raise StorageError(
                f"{self.root} is not an initialized store "
                f"(run `repro db init {self.root}` first)")
        manifest = read_document(self.manifest)
        check_document(manifest, KIND_MANIFEST, self.manifest)
        return manifest


def json_line(record: dict) -> str:
    """One WAL record, newline-terminated, byte-stable."""
    return json.dumps(record, sort_keys=True) + "\n"


def iter_wal(path: Path) -> list[dict]:
    """Parse a write-ahead log, tolerating one torn trailing line.

    A torn line anywhere but the end means real corruption and raises;
    a torn *final* line is the expected artifact of a crash mid-append
    and is dropped.
    """
    if not path.exists():
        return []
    records: list[dict] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn final append: the crash window
            raise StorageError(
                f"corrupt WAL {path}: unparseable record at line "
                f"{index + 1}") from None
    return records


def wal_value(value: Any) -> Any:
    """Atoms (labels/values) are JSON scalars already; assert that."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise StorageError(f"cannot log non-atomic value {value!r}")
