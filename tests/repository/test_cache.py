"""Tests for the cached-query manager: rewriting-based lookup, LRU,
stale-entry purging, canonical-hash dedup, and the shared rewrite
session."""

import pytest

from repro.obs import MetricsRegistry
from repro.oem import identical
from repro.oem.model import OemDatabase
from repro.repository import QueryCache
from repro.rewriting import rewrite
from repro.rewriting.canon import query_key
from repro.tsl import evaluate, parse_query
from repro.tsl.ast import Query
from repro.workloads import conference_query, sigmod_97_query


@pytest.fixture
def db(biblio_db):
    return biblio_db


def answer_for(statement, db):
    return evaluate(statement, db)


def cache_with(db, conferences, capacity=16, version=0, **kwargs):
    cache = QueryCache(capacity=capacity, **kwargs)
    for conference in conferences:
        statement = conference_query(conference)
        cache.insert(statement, answer_for(statement, db), version)
    return cache


class TestHitMissStats:
    def test_hit_serves_rewritten_answer(self, db):
        cache = cache_with(db, ["sigmod"])
        query = sigmod_97_query()
        answer = cache.lookup(query, 0)
        assert answer is not None
        assert identical(answer, evaluate(query, db))
        assert (cache.stats.lookups, cache.stats.hits) == (1, 1)

    def test_miss_on_uncovered_query(self, db):
        cache = cache_with(db, ["sigmod"])
        assert cache.lookup(conference_query("vldb"), 0) is None
        assert cache.stats.misses == 1

    def test_hit_rate(self, db):
        cache = cache_with(db, ["sigmod"])
        cache.lookup(sigmod_97_query(), 0)
        cache.lookup(conference_query("vldb"), 0)
        assert cache.stats.hit_rate == 0.5

    def test_empty_cache_misses(self, db):
        cache = QueryCache()
        assert cache.lookup(sigmod_97_query(), 0) is None
        assert cache.stats.hit_rate == 0.0

    def test_lookup_metrics_exported(self, db):
        metrics = MetricsRegistry()
        cache = cache_with(db, ["sigmod"], metrics=metrics)
        cache.lookup(sigmod_97_query(), 0)
        cache.lookup(conference_query("vldb"), 0)
        counters = metrics.snapshot()["counters"]
        assert counters["cache.lookup.hits"] == 1
        assert counters["cache.lookup.misses"] == 1
        # The shared session's memo tables report under cache.* too.
        assert counters.get("cache.misses", 0) > 0

    @pytest.mark.parametrize("probe", [
        "<ans(P) pub {<B booktitle 'SIGMOD'>}> :- "
        "<P pub {<B booktitle 'SIGMOD'>}>@db",
        "<ans(Q) pub {<Z booktitle 'SIGMOD'>}> :- "
        "<Q pub {<Z booktitle 'SIGMOD'>}>@db",
    ], ids=["identical", "renamed"])
    def test_exact_hash_hit_serves_the_entry_itself(self, db, probe):
        metrics = MetricsRegistry()
        cache = QueryCache(metrics=metrics)
        statement = parse_query(
            "<ans(P) pub {<B booktitle 'SIGMOD'>}> :- "
            "<P pub {<B booktitle 'SIGMOD'>}>@db")
        answer = answer_for(statement, db)
        entry = cache.insert(statement, answer, 0)
        assert entry.key == query_key(statement)
        assert cache.has_key(query_key(parse_query(probe)))
        assert cache.lookup(parse_query(probe), 0) is answer
        assert metrics.snapshot()["counters"]["cache.lookup.exact"] == 1


class TestEviction:
    def test_lru_eviction_beyond_capacity(self, db):
        cache = cache_with(db, ["sigmod", "vldb", "pods"], capacity=2)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        kept = {str(e.statement.body[0].pattern.value)
                for e in cache.entries.values()}
        assert not any("sigmod" in label for label in kept)

    def test_hit_refreshes_lru_position(self, db):
        cache = cache_with(db, ["sigmod", "vldb"], capacity=2)
        assert cache.lookup(conference_query("sigmod"), 0) is not None
        statement = conference_query("pods")
        cache.insert(statement, answer_for(statement, db), 0)
        kept = {str(e.statement.body[0].pattern.value)
                for e in cache.entries.values()}
        assert any("sigmod" in label for label in kept)
        assert not any("vldb" in label for label in kept)


class TestStalePurgeRegression:
    """Entries cached against an old store version used to be skipped
    by lookup but never removed -- pinning LRU capacity forever."""

    def test_lookup_purges_stale_entries(self, db):
        cache = cache_with(db, ["sigmod"], version=0)
        assert cache.lookup(sigmod_97_query(), 1) is None
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_insert_purges_stale_entries(self, db):
        cache = cache_with(db, ["sigmod"], version=0)
        statement = conference_query("vldb")
        cache.insert(statement, answer_for(statement, db), 1)
        assert len(cache) == 1
        assert cache.stats.invalidations == 1

    def test_stale_entries_no_longer_pin_capacity(self, db):
        cache = cache_with(db, ["sigmod", "vldb"], capacity=2, version=0)
        for conference in ("pods", "icde"):
            statement = conference_query(conference)
            cache.insert(statement, answer_for(statement, db), 1)
        # Stale entries were purged, not evicted: the two fresh entries
        # fit without any LRU pressure.
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.stats.invalidations == 2

    def test_fresh_version_hits_again_after_reinsert(self, db):
        cache = cache_with(db, ["sigmod"], version=0)
        cache.lookup(sigmod_97_query(), 1)      # purge
        statement = conference_query("sigmod")
        cache.insert(statement, answer_for(statement, db), 1)
        assert cache.lookup(sigmod_97_query(), 1) is not None


class TestDuplicateInsertRegression:
    """insert() used to append a fresh entry for every call, so caching
    the same statement repeatedly filled the LRU with copies and evicted
    genuinely distinct entries."""

    def test_same_statement_refreshes_in_place(self, db):
        cache = cache_with(db, ["sigmod"])
        statement = conference_query("sigmod")
        cache.insert(statement, answer_for(statement, db), 0)
        assert len(cache) == 1
        assert cache.stats.refreshes == 1

    def test_renamed_reordered_variant_dedups(self, db):
        cache = cache_with(db, ["sigmod"])
        statement = conference_query("sigmod").rename_apart("copy")
        variant = Query(statement.head, tuple(reversed(statement.body)))
        cache.insert(variant, answer_for(variant, db), 0)
        assert len(cache) == 1
        assert cache.stats.refreshes == 1

    def test_refresh_updates_answer_and_version(self, db):
        statement = conference_query("sigmod")
        cache = QueryCache()
        cache.insert(statement, OemDatabase("empty"), 0)
        cache.insert(statement, answer_for(statement, db), 0)
        answer = cache.lookup(sigmod_97_query(), 0)
        assert identical(answer, evaluate(sigmod_97_query(), db))

    def test_duplicates_no_longer_evict_distinct_entries(self, db):
        cache = cache_with(db, ["sigmod", "vldb"], capacity=2)
        statement = conference_query("sigmod")
        for _ in range(3):
            cache.insert(statement, answer_for(statement, db), 0)
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.lookup(conference_query("vldb"), 0) is not None

    def test_refresh_moves_entry_to_lru_tail(self, db):
        cache = cache_with(db, ["sigmod", "vldb"], capacity=2)
        statement = conference_query("sigmod")
        cache.insert(statement, answer_for(statement, db), 0)
        extra = conference_query("pods")
        cache.insert(extra, answer_for(extra, db), 0)
        kept = {str(e.statement.body[0].pattern.value)
                for e in cache.entries.values()}
        assert any("sigmod" in label for label in kept)


class TestSharedSession:
    def test_session_persists_across_lookups(self, db):
        cache = cache_with(db, ["sigmod"])
        cache.lookup(sigmod_97_query(), 0)
        session = cache.session()
        cache.lookup(sigmod_97_query(), 0)
        assert cache.session() is session
        assert session.stats()["rewrite"]["hits"] >= 1

    def test_insert_keeps_view_independent_memos(self, db):
        cache = cache_with(db, ["sigmod"])
        cache.lookup(sigmod_97_query(), 0)
        chased = cache.session().stats()["chase"]["size"]
        assert chased > 0
        statement = conference_query("vldb")
        cache.insert(statement, answer_for(statement, db), 0)
        session = cache.session()
        assert session.stats()["chase"]["size"] == chased
        assert session.stats()["rewrite"]["size"] == 0

    def test_memoized_and_unmemoized_agree(self, db):
        # The unmemoized side is a sessionless rewrite() over the cache
        # statements, evaluated over the cached answers.
        queries = [sigmod_97_query(), conference_query("vldb"),
                   conference_query("sigmod", 1997)]
        memo = cache_with(db, ["sigmod", "vldb"])
        statements = {name: entry.statement
                      for name, entry in memo.entries.items()}
        for query in queries:
            outcome = rewrite(query, statements, total_only=True,
                              first_only=True)
            right = None
            if outcome.rewritings:
                rewriting = outcome.rewritings[0]
                right = evaluate(rewriting.query,
                                 {name: memo.entries[name].answer
                                  for name in rewriting.views_used})
            for _ in range(2):      # second round exercises memo hits
                left = memo.lookup(query, 0)
                assert (left is None) == (right is None)
                if left is not None:
                    assert identical(left, right)


class TestInvalidate:
    def test_invalidate_clears_and_counts(self, db):
        metrics = MetricsRegistry()
        cache = cache_with(db, ["sigmod", "vldb"], metrics=metrics)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 2
        counters = metrics.snapshot()["counters"]
        assert counters["cache.entries.invalidations"] == 2

    def test_insert_after_invalidate_works(self, db):
        cache = cache_with(db, ["sigmod"])
        cache.invalidate()
        statement = conference_query("sigmod")
        cache.insert(statement, answer_for(statement, db), 0)
        assert cache.lookup(sigmod_97_query(), 0) is not None
