"""Memoized rewrite sessions: prepared views + bounded memo tables.

The motivating application of Section 1 (answering from cached queries
[19]) issues many :func:`~repro.rewriting.rewriter.rewrite` calls
against one slowly-changing view set.  The stock pipeline re-chases
every view and re-runs the full exponential search on every call; a
:class:`RewriteSession` factors the repeated work out:

* **prepared views** -- each view is chased + normalized once per
  session and reused by every ``rewrite()`` call;
* **memo tables** -- two bounded (LRU) caches, both keyed by the query
  itself: ``chase`` (every ``chase()`` the pipeline runs: queries,
  candidates and composition rules) and ``rewrite`` (whole
  ``rewrite()`` results, keyed by the query and the search flags).  The
  per-phase work in between (Step 1A, decomposition, the Step 2
  verdict) is recomputed on every search: the ``rewrite`` table answers
  exact repeats before it would be reached, and requests that differ by
  one constant never share a key.

A hit is served only for the very query that was stored, so every
memoized answer is byte-identical to the one a ``memo_size=0`` session
computes; an alpha-variant spelling is a query of its own, with its own
entry.  Truncated (budget-stopped) results are never memoized.  Both
tables export ``cache.{hits,misses,evictions}`` counters -- aggregate
and per-table -- through a :class:`~repro.obs.metrics.MetricsRegistry`.

A session is bound to one ``(views, constraints)`` pair;
:meth:`RewriteSession.update_views` swaps the view set while keeping
the view-independent ``chase`` table warm -- the pattern the
cached-query manager and the repository's materialized views use when
their definitions change.

There is one code path.  A one-shot run (a :func:`~repro.rewriting
.rewriter.rewrite` call without a session) runs on a session of
``memo_size=0``, whose tables never store and never hit; it still
prepares each view once for the run and still counts misses.

**Thread safety and locking order.**  A session may be shared by many
threads (the ``repro serve`` worker pool hammers one session per view
set).  Every :class:`MemoTable` owns a lock guarding its LRU dict and
counters; the session itself owns a lock guarding the prepared-view
dict and the signature index.  Locks nest strictly::

    QueryCache lock  >  session lock  >  memo-table lock  >  instrument lock

(outer acquired first; never acquire a lock to the left while holding
one to the right).  Expensive work -- the chase, the exponential
search -- runs *outside* every lock: two threads may race to compute
the same entry, but both compute the same (deterministic) value and
``put`` is idempotent per key, so no entry is lost or duplicated.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Mapping, Sequence, Union

from ..errors import ChaseContradictionError, RewritingError
from ..obs.metrics import PHASE_SECONDS
from ..tsl.ast import Query
from .chase import StructuralConstraints, chase

#: Default per-table memo capacity.
DEFAULT_MEMO_SIZE = 1024

_MISS = object()


def _as_view_dict(views: Union[Mapping[str, Query], Sequence[Query]]
                  ) -> dict[str, Query]:
    if isinstance(views, Mapping):
        return dict(views)
    out: dict[str, Query] = {}
    for index, view in enumerate(views):
        name = view.name or f"V{index + 1}"
        if name in out:
            raise RewritingError(f"duplicate view name {name!r}")
        out[name] = view
    return out


class _Key:
    """A memo key that hashes its value once.  A lookup hashes its key
    twice (the LRU get and the move to the MRU end), and hashing a query
    walks all of it."""

    __slots__ = ("value", "_hash")

    def __init__(self, value) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.value == other.value


class MemoTable:
    """A bounded LRU mapping with hit/miss/eviction accounting.

    Safe for concurrent use: one lock guards the LRU dict *and* the
    counters, so ``move_to_end`` reordering, eviction, and stats never
    interleave mid-update.  Values must be immutable (or never mutated
    after ``put``) -- the table hands the stored object straight back.
    The lock is innermost except for the metric instruments it feeds
    (see the module docstring for the full locking order).  A table of
    capacity 0 never stores an entry, so every lookup misses.
    """

    __slots__ = ("name", "capacity", "entries", "hits", "misses",
                 "evictions", "_metrics", "_lock")

    def __init__(self, name: str, capacity: int = DEFAULT_MEMO_SIZE,
                 metrics=None) -> None:
        self.name = name
        self.capacity = max(0, capacity)
        self.entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics = metrics
        self._lock = threading.Lock()

    def _count(self, outcome: str) -> None:
        if self._metrics is not None:
            self._metrics.increment(f"cache.{outcome}")
            self._metrics.increment(f"cache.{self.name}.{outcome}")

    def get(self, key):
        """The stored value, or the module-private miss sentinel."""
        value = self.peek(key)
        if value is _MISS:
            self.record_miss()
        else:
            self.record_hit()
        return value

    def peek(self, key):
        """Like :meth:`get` but without hit/miss accounting.

        Callers that must inspect the stored value before serving it
        peek first, then call :meth:`record_hit` / :meth:`record_miss`
        with the verdict.  A miss returns the module-private sentinel,
        so ``None`` is storable.
        """
        key = _Key(key)
        with self._lock:
            value = self.entries.get(key, _MISS)
            if value is not _MISS:
                self.entries.move_to_end(key)
            return value

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1
        self._count("hits")

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1
        self._count("misses")

    def put(self, key, value) -> None:
        if not self.capacity:
            return
        evicted = 0
        key = _Key(key)
        with self._lock:
            self.entries[key] = value
            self.entries.move_to_end(key)
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        for _ in range(evicted):
            self._count("evictions")

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()

    def items_snapshot(self) -> list:
        """The (key, value) pairs in LRU order (oldest first), under
        the lock -- the persistence layer's consistent read."""
        with self._lock:
            return [(key.value, value)
                    for key, value in self.entries.items()]

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self.entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class RewriteSession:
    """Prepared views and memo tables for repeated ``rewrite()`` calls.

    Parameters
    ----------
    views:
        The view set (name -> query mapping, or a sequence of named
        queries), shared by every call through this session.
    constraints:
        Optional structural constraints; all memoized work is keyed
        under this one constraints object.
    memo_size:
        Per-table LRU capacity.  ``0`` memoizes nothing: the session of
        a one-shot run.  Prepared views and the signature index are
        kept at any size: they depend only on the (views, constraints)
        pair.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving the
        ``cache.*`` counters and, for every ``rewrite()`` run on the
        session, the ``rewrite.*`` counters and ``phase.seconds``
        histogram.
    """

    def __init__(self, views: Union[Mapping[str, Query], Sequence[Query]],
                 constraints: StructuralConstraints | None = None, *,
                 memo_size: int = DEFAULT_MEMO_SIZE,
                 metrics=None) -> None:
        self.views = _as_view_dict(views)
        self.constraints = constraints
        self.metrics = metrics
        #: name -> (chased body, signature), or (contradiction, None)
        self._prepared_views: dict[str, tuple] = {}
        self._signature_index = None
        # Guards _prepared_views and _signature_index (the memo tables
        # carry their own locks); see the module docstring for order.
        self._lock = threading.RLock()

        def table(name: str) -> MemoTable:
            return MemoTable(name, memo_size, metrics)

        # View-independent (survives update_views).
        self._chase = table("chase")
        # View-dependent (reset on update_views).
        self._results = table("rewrite")

    # -- view-set lifecycle --------------------------------------------------

    def update_views(self, views: Union[Mapping[str, Query],
                                        Sequence[Query]]) -> None:
        """Swap the view set; keeps the chase memo warm."""
        with self._lock:
            self.views = _as_view_dict(views)
            self._prepared_views.clear()
            self._signature_index = None
            self._results.clear()

    def prepared_view(self, name: str, *, tracer=None,
                      budget=None) -> Query:
        """The chased + normalized form of view *name*, computed once.

        Raises :class:`~repro.errors.ChaseContradictionError` when the
        view's body contradicts the key dependency; the contradiction is
        kept too, and re-raised without a chase on every later call.
        The chase runs outside the session lock: two threads may race
        to prepare the same view, but the chase is deterministic and
        ``setdefault`` keeps the first copy, so every caller shares one
        object.
        """
        return self._prepare(name, tracer, budget)[0]

    def _prepare(self, name: str, tracer, budget) -> tuple:
        with self._lock:
            prepared = self._prepared_views.get(name)
        if prepared is None:
            from ..analysis.viewset.signature import view_signature
            try:
                query = chase(self.views[name], self.constraints,
                              tracer=tracer, budget=budget)
            except ChaseContradictionError as exc:
                prepared = (exc, None)
            else:
                prepared = (query, view_signature(query))
            with self._lock:
                prepared = self._prepared_views.setdefault(name, prepared)
        if isinstance(prepared[0], ChaseContradictionError):
            raise ChaseContradictionError(str(prepared[0]))
        return prepared

    def signature_index(self, *, tracer=None, budget=None):
        """The label-signature index of this session's view set.

        Built lazily from the prepared views -- sharing the per-view
        chase and signature with Step 1A -- and invalidated by
        :meth:`update_views`.  Views whose body is contradictory are
        left out: the pre-filter never prunes a view it has no
        signature for.
        """
        from ..analysis.viewset.signature import LabelSignatureIndex
        with self._lock:
            index = self._signature_index
        if index is None:
            signatures = {}
            for name in sorted(self.views):
                try:
                    signatures[name] = self._prepare(name, tracer,
                                                     budget)[1]
                except ChaseContradictionError:
                    continue
            index = LabelSignatureIndex(signatures)
            with self._lock:
                if self._signature_index is None:
                    self._signature_index = index
                index = self._signature_index
        return index

    # -- the chase memo ------------------------------------------------------

    def chase(self, query: Query, *, tracer=None, budget=None) -> Query:
        """Memoized :func:`~repro.rewriting.chase.chase`.

        Keyed by the query itself, so a hit is the chase of this very
        query and equals a fresh chase; an alpha-variant is chased on
        its own.  Contradictions are memoized too (they are a property
        of the query, not of the run).
        """
        outcome = self._chase.get(query)
        if outcome is _MISS:
            try:
                outcome = chase(query, self.constraints, tracer=tracer,
                                budget=budget)
            except ChaseContradictionError as exc:
                outcome = exc
            self._chase.put(query, outcome)
        if isinstance(outcome, ChaseContradictionError):
            raise ChaseContradictionError(str(outcome))
        return outcome

    # -- whole-result memoization --------------------------------------------

    def rewrite(self, query: Query, **kwargs):
        """Memoized :func:`~repro.rewriting.rewriter.rewrite`.

        Keyword arguments are the search flags of ``rewrite()``
        (``heuristic``, ``total_only``, ...; see
        :class:`~repro.rewriting.rewriter.SearchFlags`) plus
        ``tracer``/``budget``/``explain``.  Complete results are cached
        per (query, flags); truncated results are returned but never
        stored.  The run's metrics go to this session's registry.
        """
        from .rewriter import rewrite
        return rewrite(query, self.views, self.constraints,
                       session=self, **kwargs)

    def lookup_result(self, query: Query, flags: tuple, *,
                      need_explanation: bool = False):
        """The memoized ``(result, explanation)`` for (query, flags).

        Returns None on a miss.  With *need_explanation*, an entry
        stored without a decision log is treated as a miss (the caller
        recomputes and :meth:`store_result` upgrades the entry); the
        stored explanation is replayed so warm-session EXPLAIN output is
        byte-identical to the cold run.  The lookup is counted as a hit
        or miss and timed into ``phase.seconds{phase=memo_lookup}`` when
        the session has a metrics registry.
        """
        started = time.perf_counter() if self.metrics is not None else 0.0
        try:
            found = self.peek_result(query, flags,
                                     need_explanation=need_explanation)
            if found is None:
                self._results.record_miss()
            else:
                self._results.record_hit()
            return found
        finally:
            if self.metrics is not None:
                self.metrics.observe(PHASE_SECONDS,
                                     time.perf_counter() - started,
                                     labels={"phase": "memo_lookup"})

    def peek_result(self, query: Query, flags: tuple, *,
                    need_explanation: bool = False):
        """What :meth:`lookup_result` would return, without counting or
        timing a lookup -- for a caller that decides how to call
        :meth:`rewrite`, whose own lookup is the one that counts."""
        value = self._results.peek((query, flags))
        if value is _MISS or (need_explanation and value[1] is None):
            return None
        return value

    def store_result(self, query: Query, flags: tuple, result,
                     explain=None) -> None:
        """Memoize a complete result (and its decision log, if any)."""
        if result.stats.truncated:
            return
        explanation = explain.snapshot() if explain is not None else None
        self._results.put((query, flags), (result, explanation))

    def result_entries(self) -> list:
        """The rewrite-result memo's ``((query, flags), (result,
        explanation))`` pairs in LRU order -- what
        :class:`repro.storage.registry.SessionRegistry` persists."""
        return self._results.items_snapshot()

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Per-table memo statistics (JSON-serializable)."""
        return {table.name: table.stats()
                for table in (self._chase, self._results)}
