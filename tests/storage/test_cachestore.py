"""Query-cache persistence: exact round trips, forgiving loads."""

import json

import pytest

from repro.oem.serialize import database_to_json
from repro.repository.cache import QueryCache
from repro.storage.cachestore import CacheStore
from repro.tsl.evaluator import evaluate
from repro.tsl.parser import parse_query
from repro.workloads import figure3_database

QUERIES = (
    "<ans(P) pub {<B booktitle 'SIGMOD'>}> :- "
    "<P pub {<B booktitle 'SIGMOD'>}>@db",
    "<rows(P) rec {<T L V>}> :- <P pub {<T L V>}>@db",
    "<people(P) rec N> :- <P person {<X name N>}>@db",
)

#: Answers any single-field ``pub`` selection by rewriting.
ALL_PUB_FIELDS = "<v(P) pub {<c(P,L,W) L W>}> :- <P pub {<X L W>}>@db"


def canonical(db) -> str:
    return json.dumps(database_to_json(db, sort_oids=True), sort_keys=True)


def filled_cache(version: int = 3) -> QueryCache:
    db = figure3_database()
    cache = QueryCache(capacity=16)
    for text in QUERIES:
        query = parse_query(text)
        cache.insert(query, evaluate(query, db), version)
    return cache


class TestSingleShard:
    def test_round_trip_preserves_entries_and_lru_order(self, tmp_path):
        db = figure3_database()
        cache = QueryCache(capacity=8)
        for text in QUERIES:
            query = parse_query(text)
            cache.insert(query, evaluate(query, db), 1)
        cache.lookup(parse_query(QUERIES[0]), 1)  # reorder the LRU
        store = CacheStore(tmp_path / "shard.json")
        store.save(cache, store_version=1)
        restored = QueryCache(capacity=8)
        assert store.load(restored, store_version=1) \
            == {"entries": 3, "dropped": 0}
        assert [e.key for e in restored.snapshot_entries()] \
            == [e.key for e in cache.snapshot_entries()]
        for before, after in zip(cache.snapshot_entries(),
                                 restored.snapshot_entries()):
            assert canonical(before.answer) == canonical(after.answer)
            assert before.statement == after.statement
            assert before.hits == after.hits

    def test_restored_counter_resumes_past_loaded_names(self, tmp_path):
        db = figure3_database()
        cache = QueryCache(capacity=8)
        query = parse_query(QUERIES[0])
        cache.insert(query, evaluate(query, db), 1)
        store = CacheStore(tmp_path / "shard.json")
        store.save(cache, store_version=1)
        restored = QueryCache(capacity=8)
        store.load(restored, store_version=1)
        other = parse_query(QUERIES[1])
        entry = restored.insert(other, evaluate(other, db), 1)
        assert entry.name == "cached_2"

    def test_load_is_forgiving(self, tmp_path):
        path = tmp_path / "shard.json"
        fresh = QueryCache(capacity=8)
        # Absent file.
        assert CacheStore(path).load(fresh, 1) \
            == {"entries": 0, "dropped": 0}
        # Unparseable file.
        path.write_text("{nope")
        assert CacheStore(path).load(fresh, 1) \
            == {"entries": 0, "dropped": 0}
        # Wrong kind / schema.
        path.write_text(json.dumps({"kind": "other", "schema_version": 1}))
        assert CacheStore(path).load(fresh, 1) \
            == {"entries": 0, "dropped": 0}
        assert len(fresh) == 0

    def test_wrong_store_version_drops_wholesale(self, tmp_path):
        db = figure3_database()
        cache = QueryCache(capacity=8)
        query = parse_query(QUERIES[0])
        cache.insert(query, evaluate(query, db), 7)
        store = CacheStore(tmp_path / "shard.json")
        store.save(cache, store_version=7)
        fresh = QueryCache(capacity=8)
        assert store.load(fresh, store_version=8) \
            == {"entries": 0, "dropped": 1}
        assert len(fresh) == 0

    def test_wrong_shard_geometry_is_discarded(self, tmp_path):
        # A per-shard document from the layout that split the cache
        # across several files is a foreign kind: never loaded.
        path = tmp_path / "shard.json"
        CacheStore(path).save(filled_cache(version=1), 1)
        document = json.loads(path.read_text())
        document.update(kind="repro-cache-shard", shard=0, shards=2)
        path.write_text(json.dumps(document))
        fresh = QueryCache(capacity=8)
        assert CacheStore(path).load(fresh, 1) \
            == {"entries": 0, "dropped": 0}
        assert CacheStore(path).persisted()["entries"] == 0

    def test_restore_respects_capacity(self, tmp_path):
        db = figure3_database()
        cache = QueryCache(capacity=8)
        for text in QUERIES:
            query = parse_query(text)
            cache.insert(query, evaluate(query, db), 1)
        store = CacheStore(tmp_path / "shard.json")
        store.save(cache, 1)
        small = QueryCache(capacity=2)
        stats = store.load(small, 1)
        assert len(small) == 2
        assert stats == {"entries": 2, "dropped": 1}
        # The newest (LRU-tail) entries survive.
        survivors = {e.key for e in small.snapshot_entries()}
        originals = [e.key for e in cache.snapshot_entries()]
        assert survivors == set(originals[-2:])

    @pytest.mark.parametrize("probe", [
        QUERIES[0],
        "<ans(P) pub {<Z booktitle 'SIGMOD'>}> :- "
        "<P pub {<Z booktitle 'SIGMOD'>}>@db",
        "<ans(P) pub {<c2(P) title T>}> :- <P pub {<X title T>}>@db",
    ], ids=["exact", "renamed", "rewrite"])
    def test_reloaded_cache_answers_like_the_original(self, tmp_path,
                                                      probe):
        cache = filled_cache()
        view = parse_query(ALL_PUB_FIELDS)
        cache.insert(view, evaluate(view, figure3_database()), 3)
        store = CacheStore(tmp_path / "cache" / "cache.json")
        store.save(cache, store_version=3)
        reloaded = QueryCache(capacity=16)
        store.load(reloaded, store_version=3)
        query = parse_query(probe)
        expected = cache.lookup(query, 3)
        assert expected is not None
        assert canonical(reloaded.lookup(query, 3)) == canonical(expected)
        assert reloaded.stats.hits == 1

    def test_persisted_counts_entries_without_loading(self, tmp_path):
        store = CacheStore(tmp_path / "cache.json")
        assert store.persisted() == {"entries": 0, "written": None}
        store.save(filled_cache(), store_version=3)
        persisted = store.persisted()
        assert persisted["entries"] == len(QUERIES)
        assert persisted["written"] == store.path.stat().st_mtime
