"""Persistence for :class:`~repro.rewriting.session.RewriteSession`
result memos.

The expensive thing a warm server holds is not the answers (the query
cache persists those) but the *rewrite results*: each one is the output
of the paper's exponential Section 4 search.  This registry saves the
session's rewrite-result memo table to
``sessions/session-<config key>.json`` -- one document per
``(views, constraints)`` configuration, keyed by the same blake2b
config key the server's :class:`~repro.server.pool.SessionPool` routes
on -- and reloads it into a fresh session on the next start, so a
restarted server serves its first repeated query as a memo hit.

What round-trips: the probe query, the search flags, every accepted
rewriting (query, composition rules, views used) and the run's stats.
Step 2 keeps each composition rule as the chase left it, one view-body
copy per resolution goal; the document stores its core instead
(:func:`~repro.rewriting.equivalence.minimize`, equivalent and about a
third the size), so a reloaded rewriting carries minimized rules.
What does not: the EXPLAIN decision log (``explanation`` reloads as
``None``) -- an ``explain=True`` lookup then treats the entry as a miss
and recomputes, which is exactly the memo's documented upgrade path.
Like the cache document, session documents are an optimization: anything
unreadable or written against a different schema/store version is
silently discarded, never trusted.
"""

from __future__ import annotations

import json

from ..rewriting.canon import query_key
from ..rewriting.equivalence import minimize
from ..rewriting.rewriter import RewriteResult, RewriteStats, Rewriting
from ..rewriting.session import RewriteSession
from ..tsl.serialize import query_from_json as _query_from_json
from ..tsl.serialize import query_to_json as _query_to_json
from .format import (KIND_SESSION_MEMO, STORAGE_SCHEMA_VERSION,
                     StorageLayout, atomic_write_json)

__all__ = ["SessionRegistry"]


def _entry_to_json(query_flags, value) -> dict:
    (query, flags) = query_flags
    (result, _explanation) = value
    return {
        "key": query_key(query),
        "flags": list(flags),
        "query": _query_to_json(query),
        "rewritings": [
            {
                "query": _query_to_json(rewriting.query),
                "composition": [_query_to_json(minimize(rule))
                                for rule in rewriting.composition],
                "views_used": sorted(rewriting.views_used),
            }
            for rewriting in result.rewritings
        ],
        "stats": result.stats.to_json(),
    }


def _entry_from_json(record: dict):
    query = _query_from_json(record["query"])
    flags = tuple(record["flags"])
    rewritings = [
        Rewriting(
            query=_query_from_json(item["query"]),
            composition=[_query_from_json(rule)
                         for rule in item["composition"]],
            views_used=frozenset(item["views_used"]),
        )
        for item in record["rewritings"]
    ]
    known = set(RewriteStats.__dataclass_fields__)
    stats = RewriteStats(**{name: value
                            for name, value in record["stats"].items()
                            if name in known})
    return query, flags, RewriteResult(rewritings=rewritings, stats=stats)


class SessionRegistry:
    """Save/load rewrite-result memos under a layout's ``sessions/``."""

    def __init__(self, layout: StorageLayout) -> None:
        self.layout = layout

    def save(self, config_key: str, session: RewriteSession,
             store_version: int) -> dict:
        """Persist *session*'s result memo; returns save stats."""
        entries = session.result_entries()
        records = [_entry_to_json(key, value) for key, value in entries]
        records.sort(key=lambda record: (record["key"],
                                         json.dumps(record["flags"]),
                                         json.dumps(record["query"])))
        document = {
            "schema_version": STORAGE_SCHEMA_VERSION,
            "kind": KIND_SESSION_MEMO,
            "config_key": config_key,
            "store_version": store_version,
            "entries": records,
        }
        self.layout.sessions_dir.mkdir(parents=True, exist_ok=True)
        path = self.layout.session_path(config_key)
        size = atomic_write_json(path, document)
        return {"entries": len(records), "bytes": size}

    def load_into(self, config_key: str, session: RewriteSession,
                  store_version: int | None = None) -> dict:
        """Warm *session* from the persisted memo (forgiving).

        With *store_version* given, a document recorded against a
        different version is discarded wholesale -- the view set the
        memo was computed over may have answered differently.  (Memo
        entries depend only on statements, not answers, so this is
        conservative; being conservative is free here.)
        """
        stats = {"entries": 0, "dropped": 0}
        path = self.layout.session_path(config_key)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return stats
        if (not isinstance(document, dict)
                or document.get("kind") != KIND_SESSION_MEMO
                or document.get("schema_version") != STORAGE_SCHEMA_VERSION
                or document.get("config_key") != config_key):
            return stats
        records = document.get("entries", [])
        if (store_version is not None
                and document.get("store_version") != store_version):
            stats["dropped"] = len(records)
            return stats
        for record in records:
            try:
                query, flags, result = _entry_from_json(record)
            except Exception:
                stats["dropped"] += 1
                continue
            session.store_result(query, flags, result)
            stats["entries"] += 1
        return stats

    def stats(self) -> dict:
        """Entry counts per persisted config key (deterministic)."""
        sessions = {}
        directory = self.layout.sessions_dir
        if directory.exists():
            for path in sorted(directory.glob("session-*.json")):
                try:
                    document = json.loads(
                        path.read_text(encoding="utf-8"))
                    sessions[document["config_key"]] = len(
                        document.get("entries", []))
                except (OSError, ValueError, KeyError, TypeError):
                    continue
        return {"sessions": len(sessions), "entries": sessions}
