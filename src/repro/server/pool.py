"""A pool of shared rewrite sessions keyed by canonical view-set hash.

The edgedb architecture this follows keeps a pool of long-lived
compiler workers behind the I/O loop, sharing a normalized-query cache;
here the normalized key is the canonical hash of
:mod:`repro.rewriting.canon` and the long-lived worker state is a
:class:`~repro.rewriting.session.RewriteSession` (prepared views + memo
tables, all thread-safe since the locking work described in that
module).

Two requests naming the *same view set* -- even with views spelled in
different variable names or conjunct orders, since the key is built
from canonical query hashes -- are served by one session, so the
second request hits the memo tables the first one warmed.  The session
map is a bounded LRU: a multi-tenant server that sees many distinct
view sets sheds the coldest.

CPU-bound work (TSL parsing, the exponential search, evaluation) runs
on a ``ThreadPoolExecutor`` owned by the pool; the asyncio front-end
submits through :meth:`SessionPool.submit` and never blocks the event
loop on a search.  The one rewrite the loop runs itself is a memo hit
of a live session (:meth:`SessionPool.live_session`), which replays a
stored result.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from hashlib import blake2b
from typing import Mapping

from ..rewriting import RewriteSession
from ..rewriting.canon import query_key
from ..rewriting.chase import StructuralConstraints
from ..tsl.ast import Query

#: Default number of worker threads (the compiler-pool size).
DEFAULT_WORKERS = 4

#: Default cap on distinct (view set, constraints) sessions kept warm.
DEFAULT_MAX_SESSIONS = 32


def config_key(views: Mapping[str, Query],
               dtd_text: str | None) -> str:
    """The canonical hash of a (view set, constraints) configuration.

    Built from each view's *canonical* query hash, so alpha-variant or
    conjunct-reordered spellings of the same configuration share a
    session (and therefore its memo tables).
    """
    digest = blake2b(digest_size=16)
    for name in sorted(views):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(query_key(views[name]).encode("ascii"))
        digest.update(b"\x01")
    if dtd_text is not None:
        digest.update(dtd_text.encode("utf-8"))
    return digest.hexdigest()


class SessionPool:
    """Shared sessions + the worker threads that drive them.

    With a :class:`~repro.storage.registry.SessionRegistry` attached,
    sessions become durable: a newly created session is warmed from its
    persisted result memo (same config key), and a session is written
    back when evicted from the LRU and on :meth:`save_sessions` --
    so a restarted server answers a previously rewritten query as a
    memo hit.
    """

    def __init__(self, *, workers: int = DEFAULT_WORKERS,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 metrics=None, registry=None,
                 store_version: int | None = None) -> None:
        self.workers = max(1, workers)
        self.max_sessions = max(1, max_sessions)
        self.metrics = metrics
        self.registry = registry
        self.store_version = store_version
        self.created = 0
        self.reused = 0
        self.evicted = 0
        self.loaded_entries = 0
        self._sessions: "OrderedDict[str, RewriteSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._pending = 0   # submitted, waiting for a worker
        self._active = 0    # executing on a worker right now
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")

    # -- session lifecycle ---------------------------------------------------

    def session_for(self, views: Mapping[str, Query],
                    constraints: StructuralConstraints | None,
                    key: str) -> RewriteSession:
        """The shared session for configuration *key* (LRU, created once).

        Callable from any worker thread.  The session is created under
        the pool lock (cheap -- views are chased lazily on first use),
        and the coldest session is dropped beyond ``max_sessions``
        (persisted first when a registry is attached).
        """
        with self._lock:
            session = self._reuse(key)
            if session is not None:
                return session
            session = RewriteSession(views, constraints,
                                     metrics=self.metrics)
            if self.registry is not None:
                loaded = self.registry.load_into(key, session,
                                                 self.store_version)
                self.loaded_entries += loaded["entries"]
                if self.metrics is not None and loaded["entries"]:
                    self.metrics.increment("server.sessions.memo_loaded",
                                           loaded["entries"])
            self._sessions[key] = session
            self.created += 1
            if self.metrics is not None:
                self.metrics.increment("server.sessions.created")
            while len(self._sessions) > self.max_sessions:
                cold_key, cold = self._sessions.popitem(last=False)
                if self.registry is not None:
                    self.registry.save(cold_key, cold, self.store_version
                                       if self.store_version is not None
                                       else 0)
                self.evicted += 1
                if self.metrics is not None:
                    self.metrics.increment("server.sessions.evicted")
            return session

    def live_session(self, key: str) -> RewriteSession | None:
        """The session for *key* if the pool holds one, else None.

        Creates and counts nothing, so the event loop may call it to
        look at the session's memo; a caller that goes on to use the
        session counts that with :meth:`reuse`.
        """
        with self._lock:
            return self._sessions.get(key)

    def reuse(self, key: str) -> None:
        """Count a use of *key*'s live session and refresh it in the
        LRU, as :meth:`session_for` does."""
        with self._lock:
            self._reuse(key)

    def _reuse(self, key: str) -> RewriteSession | None:
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            self.reused += 1
            if self.metrics is not None:
                self.metrics.increment("server.sessions.reused")
        return session

    def save_sessions(self) -> dict:
        """Persist every live session's result memo (no-op without a
        registry).  Returns ``{"sessions": n, "entries": n}``."""
        stats = {"sessions": 0, "entries": 0}
        if self.registry is None:
            return stats
        with self._lock:
            items = list(self._sessions.items())
        for key, session in items:
            saved = self.registry.save(key, session, self.store_version
                                       if self.store_version is not None
                                       else 0)
            stats["sessions"] += 1
            stats["entries"] += saved["entries"]
        return stats

    def stats(self) -> dict:
        """Occupancy and lifecycle counters (feeds ``GET /healthz``)."""
        with self._lock:
            return {"sessions": len(self._sessions),
                    "max_sessions": self.max_sessions,
                    "workers": self.workers,
                    "created": self.created,
                    "reused": self.reused,
                    "evicted": self.evicted,
                    "memo_entries_loaded": self.loaded_entries,
                    "pending": self._pending,
                    "active": self._active,
                    "persistent": self.registry is not None}

    def queue_stats(self) -> dict:
        """Point-in-time executor load (feeds the runtime gauges)."""
        with self._lock:
            return {"pending": self._pending, "active": self._active}

    def debug_info(self) -> list[dict]:
        """Per-session memo-table statistics, coldest first.

        Session stats are gathered *outside* the pool lock (the
        documented locking order puts memo-table locks below it).
        """
        with self._lock:
            items = list(self._sessions.items())
        return [{"config_key": key, "tables": session.stats()}
                for key, session in items]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- work dispatch -------------------------------------------------------

    def submit(self, fn, *args):
        """Run *fn* on a pool worker; awaitable from the event loop.

        Tracks queue depth (submitted but not yet started) and active
        worker count for the ``server.queue.depth`` /
        ``server.pool.active`` gauges.
        """
        loop = asyncio.get_running_loop()
        with self._lock:
            self._pending += 1

        def run():
            with self._lock:
                self._pending -= 1
                self._active += 1
            try:
                return fn(*args)
            finally:
                with self._lock:
                    self._active -= 1

        return loop.run_in_executor(self._executor, run)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
