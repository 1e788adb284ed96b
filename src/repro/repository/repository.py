"""The repository facade: store + materialized views + query cache.

Answering precedence for :meth:`Repository.query`:

1. a total rewriting over the *materialized views* (answered without
   touching the base data),
2. a total rewriting over the *cached queries*,
3. direct evaluation against the store (and the answer is cached).

This is the full Section 1 "Use of Rewriting in semistructured
repositories" story, measured by benchmark E10.

Two optional substrates from :mod:`repro.storage` extend the facade to
production shape:

* :meth:`Repository.open` runs it over a :class:`~repro.storage
  .durable.DurableStore` with the query cache persisted as one document
  (:class:`~repro.storage.cachestore.CacheStore`) -- :meth:`flush` /
  :meth:`close` write the warm cache back;
* the mutation wrappers (:meth:`add_atomic` ...) propagate each update
  incrementally: views and cached answers whose statements provably
  cannot match the touched labels are patched in place, the rest are
  invalidated (:mod:`repro.storage.maintenance`).
"""

from __future__ import annotations

from pathlib import Path
from dataclasses import dataclass, field

from ..logic.terms import Atom
from ..oem.model import OemDatabase, OidLike, as_oid
from ..rewriting.chase import StructuralConstraints
from ..tsl.ast import Query
from ..tsl.evaluator import evaluate
from ..tsl.parser import parse_query
from .cache import QueryCache
from .store import Store
from .views import MaterializedView, ViewManager


@dataclass
class AnswerReport:
    """How one query was answered."""

    answer: OemDatabase
    method: str              # "views" | "cache" | "direct"
    rewriting: Query | None = None


@dataclass
class Repository:
    """A semistructured repository with rewriting-backed answering."""

    store: Store
    views: ViewManager = field(init=False)
    cache: QueryCache = field(init=False)
    constraints: StructuralConstraints | None = None
    cache_capacity: int = 16
    metrics: object | None = None
    _cache_store: object | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.views = ViewManager(self.store, constraints=self.constraints,
                                 metrics=self.metrics)
        self.cache = QueryCache(capacity=self.cache_capacity,
                                constraints=self.constraints,
                                metrics=self.metrics)

    @classmethod
    def from_database(cls, db: OemDatabase,
                      constraints: StructuralConstraints | None = None,
                      cache_capacity: int = 16, *,
                      metrics=None) -> "Repository":
        repo = cls(Store.wrap(db), constraints=constraints,
                   cache_capacity=cache_capacity, metrics=metrics)
        return repo

    @classmethod
    def open(cls, root: str | Path,
             constraints: StructuralConstraints | None = None,
             cache_capacity: int = 1024, *, autocompact_ops: int = 0,
             metrics=None) -> "Repository":
        """Open a persistent repository rooted at *root*.

        The base store loads snapshot + WAL
        (:class:`~repro.storage.durable.DurableStore`); the query cache
        is warmed from the persisted ``cache/cache.json`` document
        (entries recorded against another store version are discarded).
        Pair with :meth:`flush` / :meth:`close` to write the warm cache
        back.
        """
        from ..storage.cachestore import CacheStore
        from ..storage.durable import DurableStore
        store = DurableStore.open(root, autocompact_ops=autocompact_ops,
                                  metrics=metrics)
        repo = cls(store, constraints=constraints,
                   cache_capacity=cache_capacity, metrics=metrics)
        repo._cache_store = CacheStore(store.layout.cache_file)
        repo._cache_store.load(repo.cache, store.version)
        return repo

    # -- persistence ----------------------------------------------------------

    def flush(self) -> dict:
        """Persist the warm cache and fsync the store's WAL."""
        stats = {"cache": None}
        if self._cache_store is not None:
            stats["cache"] = self._cache_store.save(self.cache,
                                                    self.store.version)
        flush = getattr(self.store, "flush", None)
        if flush is not None:
            flush()
        return stats

    def close(self) -> None:
        """Flush, then release the store's file handles."""
        self.flush()
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- updates with incremental maintenance ----------------------------------

    def _propagate(self, touched: frozenset, from_version: int) -> None:
        version = self.store.version
        self.views.apply_update(touched, version, from_version)
        self.cache.apply_update(touched, version, from_version)

    def add_atomic(self, oid: OidLike, label: Atom, value: Atom) -> OidLike:
        before = self.store.version
        result = self.store.add_atomic(oid, label, value)
        self._propagate(frozenset({label}), before)
        return result

    def add_set(self, oid: OidLike, label: Atom) -> OidLike:
        before = self.store.version
        result = self.store.add_set(oid, label)
        self._propagate(frozenset({label}), before)
        return result

    def add_child(self, parent: OidLike, child: OidLike) -> None:
        """Add an edge; touches both endpoint labels (a new match must
        place the parent -- and possibly the child -- at some step)."""
        before = self.store.version
        self.store.add_child(parent, child)
        touched = frozenset({self.store.db.label(as_oid(parent)),
                             self.store.db.label(as_oid(child))})
        self._propagate(touched, before)

    def add_root(self, oid: OidLike) -> None:
        before = self.store.version
        self.store.add_root(oid)
        self._propagate(frozenset({self.store.db.label(as_oid(oid))}),
                        before)

    # -- views ----------------------------------------------------------------

    def define_view(self, name: str,
                    definition: Query | str) -> MaterializedView:
        return self.views.define(name, definition)

    # -- querying ---------------------------------------------------------------

    def query(self, query: Query | str, use_views: bool = True,
              use_cache: bool = True) -> OemDatabase:
        return self.query_with_report(query, use_views, use_cache).answer

    def query_with_report(self, query: Query | str, use_views: bool = True,
                          use_cache: bool = True) -> AnswerReport:
        if isinstance(query, str):
            query = parse_query(query)
        if use_views and self.views.views:
            refreshed = self.views.fresh_views()
            outcome = self.views.session.rewrite(query, total_only=True,
                                                 first_only=True)
            if outcome.rewritings:
                rewriting = outcome.rewritings[0]
                sources = {name: refreshed[name].data
                           for name in rewriting.views_used}
                answer = evaluate(rewriting.query, sources)
                return AnswerReport(answer, "views", rewriting.query)
        if use_cache:
            cached = self.cache.lookup(query, self.store.version)
            if cached is not None:
                return AnswerReport(cached, "cache", None)
        answer = evaluate(query, self.store.db)
        if use_cache:
            self.cache.insert(query, answer, self.store.version)
        return AnswerReport(answer, "direct", None)
