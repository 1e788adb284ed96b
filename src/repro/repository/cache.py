"""A cached-query manager in the spirit of [19] (Section 1).

"If a cached query result contains all SIGMOD publications, our rewriting
algorithm can create a rewriting query where SIGMOD 97 publications are
obtained by filtering the cached query for 1997 publications.  The
rewriting algorithm only needs the query and the cached query statements
-- it does not need to examine the source data."

Each cache entry stores the query *statement* (playing the role of a view
definition) and its materialized answer.  Lookup runs the paper's
rewriting algorithm against the cached statements; a hit is a total
rewriting evaluated over cached answers only.

Two properties keep repeated lookups cheap:

* statements are identified by their **canonical hash**
  (:mod:`repro.rewriting.canon`), so caching the same statement twice --
  even renamed or with reordered conjuncts -- refreshes the existing
  entry instead of filling the LRU with copies;
* all lookups against one store version share a single
  :class:`~repro.rewriting.session.RewriteSession` (prepared views +
  memo tables), so the statements are chased once and repeated queries
  hit the session's result memo instead of re-running the exponential
  search.

Stale entries (cached against an older store version) are purged on
every lookup and insert -- they can never serve a hit, so letting them
pin LRU capacity would be a leak -- and counted in
``stats.invalidations``.

Thread safety is **coarse-grained**: one re-entrant cache lock is held
across every public operation, including the rewrite + evaluation a
``lookup`` performs (LRU reorder, hit counters, and the statement set
must not change mid-lookup).  The cache lock is the outermost lock of
the stack -- cache > session > memo table > instrument (see
:mod:`repro.rewriting.session`) -- so never call back into the cache
while holding a session or table lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..oem.model import OemDatabase
from ..rewriting.canon import query_key
from ..rewriting.chase import StructuralConstraints
from ..rewriting.session import RewriteSession
from ..tsl.ast import Query
from ..tsl.evaluator import evaluate


@dataclass
class CacheEntry:
    """One cached query: its statement and materialized answer.

    ``labels`` memoizes :func:`repro.storage.maintenance
    .statement_labels` for incremental maintenance (``labels_known``
    distinguishes "not computed yet" from the legitimate ``None``
    meaning "has a label variable, unknowable").
    """

    name: str
    statement: Query
    answer: OemDatabase
    as_of_version: int
    key: str = ""
    hits: int = 0
    labels: frozenset | None = field(default=None, repr=False)
    labels_known: bool = field(default=False, repr=False)


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    refreshes: int = 0
    patches: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class QueryCache:
    """An LRU cache of query answers, consulted via query rewriting.

    Every lookup rewrites through the one shared
    :class:`~repro.rewriting.session.RewriteSession` of :meth:`session`
    (benchmark E10 measures it against a one-shot ``rewrite()`` over
    the same statements).  *metrics* receives
    ``cache.lookup.{hits,misses}`` and
    ``cache.entries.{evictions,invalidations}`` counters plus the
    session's ``cache.*`` memo counters.
    """

    capacity: int = 16
    constraints: StructuralConstraints | None = None
    metrics: object | None = None
    entries: "OrderedDict[str, CacheEntry]" = field(
        default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)
    _counter: int = 0
    _by_key: dict = field(default_factory=dict, repr=False)
    _session: RewriteSession | None = field(default=None, repr=False)
    _session_template: RewriteSession | None = field(default=None,
                                                     repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False)

    # -- metrics ---------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.increment(name, amount)

    # -- the shared rewrite session --------------------------------------------

    def session(self) -> RewriteSession:
        """The rewrite session over the current statements (lazy).

        Entry churn (insert of a *new* statement, eviction, purge)
        resets the view-dependent result memo via
        :meth:`RewriteSession.update_views`; refreshing an existing
        statement's answer keeps the session fully warm, because
        rewriting only reads statements, never answers.
        """
        with self._lock:
            if self._session is None:
                views = {name: entry.statement
                         for name, entry in self.entries.items()}
                if self._session_template is None:
                    self._session_template = RewriteSession(
                        views, self.constraints, metrics=self.metrics)
                else:
                    self._session_template.update_views(views)
                self._session = self._session_template
            return self._session

    def _entries_changed(self) -> None:
        """The statement set changed: next lookup rebuilds the session."""
        self._session = None

    # -- mutation --------------------------------------------------------------

    def _purge_stale(self, version: int) -> None:
        """Evict entries cached against an older store version.

        They are skipped by lookup but -- before this fix -- were never
        removed, so after a store-version bump they pinned LRU capacity
        (and inflated ``len()``) forever.

        Every public operation leaves the cache *uniform-version* (this
        purge runs first, and :meth:`apply_update` retags or drops every
        entry), so checking one entry decides for all of them -- the
        purge is O(1) on the hot no-op path instead of O(entries).
        """
        if not self.entries:
            return
        probe = next(iter(self.entries.values()))
        if probe.as_of_version == version:
            return
        stale = [name for name, entry in self.entries.items()
                 if entry.as_of_version != version]
        for name in stale:
            entry = self.entries.pop(name)
            self._by_key.pop(entry.key, None)
        if stale:
            self.stats.invalidations += len(stale)
            self._count("cache.entries.invalidations", len(stale))
            self._entries_changed()

    def insert(self, statement: Query, answer: OemDatabase,
               version: int) -> CacheEntry:
        """Cache a (query, answer) pair; evicts LRU beyond capacity.

        A statement already cached (same canonical hash, so renamed or
        conjunct-reordered copies count) refreshes the existing entry --
        new answer, new version, moved to the LRU tail -- instead of
        inserting a duplicate that would evict a distinct entry.
        """
        with self._lock:
            self._purge_stale(version)
            key = query_key(statement)
            existing_name = self._by_key.get(key)
            if existing_name is not None:
                entry = self.entries[existing_name]
                entry.answer = answer
                entry.as_of_version = version
                self.entries.move_to_end(existing_name)
                self.stats.refreshes += 1
                self._count("cache.entries.refreshes")
                return entry
            self._counter += 1
            name = f"cached_{self._counter}"
            renamed = Query(statement.head, statement.body, name=name)
            entry = CacheEntry(name, renamed, answer, version, key=key)
            self.entries[name] = entry
            self._by_key[key] = name
            while len(self.entries) > self.capacity:
                _, evicted = self.entries.popitem(last=False)
                self._by_key.pop(evicted.key, None)
                self.stats.evictions += 1
                self._count("cache.entries.evictions")
            self._entries_changed()
            return entry

    # -- lookup ----------------------------------------------------------------

    def lookup(self, query: Query, version: int) -> OemDatabase | None:
        """Try to answer *query* from the cache by rewriting.

        Returns the answer database on a hit (after evaluating the
        rewriting over the cached answers), None on a miss.  Stale
        entries are purged first, so everything remaining is rewritable
        against; the rewrite itself runs through the shared session.

        A query whose canonical hash matches a cached statement exactly
        is served straight from that entry -- canonically equal
        statements have identical answers on every database, so no
        rewrite search (or session over 100k statements) is needed.
        This is what keeps lookups O(1) at persistent-store scale.
        """
        with self._lock:
            self.stats.lookups += 1
            self._purge_stale(version)
            exact = self._by_key.get(query_key(query))
            if exact is not None:
                entry = self.entries[exact]
                entry.hits += 1
                self.entries.move_to_end(exact)
                self.stats.hits += 1
                self._count("cache.lookup.hits")
                self._count("cache.lookup.exact")
                return entry.answer
            if self.entries:
                session = self.session()
                outcome = session.rewrite(query, total_only=True,
                                          first_only=True)
                if outcome.rewritings:
                    rewriting = outcome.rewritings[0]
                    sources = {name: self.entries[name].answer
                               for name in rewriting.views_used}
                    for name in rewriting.views_used:
                        self.entries[name].hits += 1
                        self.entries.move_to_end(name)
                    self.stats.hits += 1
                    self._count("cache.lookup.hits")
                    return evaluate(rewriting.query, sources)
            self.stats.misses += 1
            self._count("cache.lookup.misses")
            return None

    def invalidate(self) -> None:
        """Drop every entry (a store update with no delta propagation)."""
        with self._lock:
            self.stats.invalidations += len(self.entries)
            self._count("cache.entries.invalidations", len(self.entries))
            self.entries.clear()
            self._by_key.clear()
            self._entries_changed()

    # -- incremental maintenance -----------------------------------------------

    def apply_update(self, touched: frozenset, version: int,
                     from_version: int | None = None) -> dict:
        """Propagate a store update that touched the given labels.

        Entries whose statements provably cannot match any touched
        label are *patched* -- retagged to the new store *version* with
        their answer kept -- and everything else is invalidated (see
        :mod:`repro.storage.maintenance` for the soundness argument).
        Returns ``{"patched": n, "invalidated": n}``.

        Patching is only sound for entries that were fresh *before*
        the update; *from_version* (the pre-update store version)
        guards against retagging an entry that already missed a delta.
        """
        from ..storage.maintenance import may_overlap, statement_labels
        with self._lock:
            dropped = []
            for name, entry in self.entries.items():
                if (from_version is not None
                        and entry.as_of_version != from_version):
                    dropped.append(name)
                    continue
                if not entry.labels_known:
                    entry.labels = statement_labels(entry.statement,
                                                    self.constraints)
                    entry.labels_known = True
                if may_overlap(entry.labels, touched):
                    dropped.append(name)
                else:
                    entry.as_of_version = version
            for name in dropped:
                entry = self.entries.pop(name)
                self._by_key.pop(entry.key, None)
            if dropped:
                self.stats.invalidations += len(dropped)
                self._count("cache.entries.invalidations", len(dropped))
                self._entries_changed()
            patched = len(self.entries)
            self.stats.patches += patched
            self._count("cache.entries.patches", patched)
            return {"patched": patched, "invalidated": len(dropped)}

    def has_key(self, key: str) -> bool:
        """Whether an entry with canonical hash *key* is live.

        Unlike :meth:`lookup` this never rewrites, never counts stats,
        and ignores versions -- it answers the structural question the
        maintenance invariants are stated in ("after this update, is
        the entry still there?")."""
        with self._lock:
            return key in self._by_key

    # -- persistence hooks (repro.storage.cachestore) --------------------------

    def snapshot_entries(self) -> list[CacheEntry]:
        """The live entries in LRU order (oldest first), under the lock."""
        with self._lock:
            return list(self.entries.values())

    def restore_entries(self, entries: list[CacheEntry]) -> None:
        """Adopt persisted entries wholesale (oldest-first LRU order).

        Entry names are kept so ``stats``/``db stats`` output is
        byte-stable across a save/load cycle; the name counter resumes
        past the highest restored ``cached_<n>`` so new inserts cannot
        collide.
        """
        with self._lock:
            self.entries.clear()
            self._by_key.clear()
            for entry in entries[-self.capacity:] if self.capacity else []:
                self.entries[entry.name] = entry
                self._by_key[entry.key] = entry.name
                suffix = entry.name.rsplit("_", 1)[-1]
                if suffix.isdigit():
                    self._counter = max(self._counter, int(suffix))
            self._entries_changed()

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)
