"""Repository.open: one persistent query cache over a durable store."""

import json

import pytest

from repro.oem import identical
from repro.oem.serialize import database_to_json
from repro.repository import Repository
from repro.rewriting.canon import query_key
from repro.storage import DurableStore, StorageLayout
from repro.tsl import evaluate, parse_query
from repro.tsl.serialize import query_to_json
from repro.workloads import figure3_database

TITLES = "<a(P) pub {<t(P,T) title T>}> :- <P pub {<X title T>}>@db"
BOOKTITLES = ("<b(P) pub {<c(P,V) booktitle V>}> :- "
              "<P pub {<Y booktitle V>}>@db")
#: Only a join of TITLES and BOOKTITLES answers this by rewriting.
SIGMOD_TITLES = ("<ans(P) pub {<u(P) title T>}> :- "
                 "<P pub {<X title T> <Y booktitle 'SIGMOD'>}>@db")


@pytest.fixture
def root(tmp_path):
    root = tmp_path / "repo"
    with DurableStore.create(root, "db") as store:
        store.ingest(figure3_database())
    return root


class TestOneCache:
    def test_rewriting_joins_any_two_cached_statements(self, root):
        with Repository.open(root) as repo:
            assert repo.query_with_report(TITLES).method == "direct"
            assert repo.query_with_report(BOOKTITLES).method == "direct"
            report = repo.query_with_report(SIGMOD_TITLES)
            assert report.method == "cache"
            direct = evaluate(parse_query(SIGMOD_TITLES), repo.store.db)
            assert identical(report.answer, direct)

    def test_capacity_is_one_budget(self, root):
        statements = [f"<ans(P) pub {{<X title 'title {i}'>}}> :- "
                      f"<P pub {{<X title 'title {i}'>}}>@db"
                      for i in range(12)]
        with Repository.open(root, cache_capacity=16) as repo:
            for text in statements:
                assert repo.query_with_report(text).method == "direct"
            assert len(repo.cache) == 12
            assert repo.cache.stats.evictions == 0
        with Repository.open(root, cache_capacity=16) as reopened:
            assert len(reopened.cache) == 12
            for text in statements:
                assert reopened.query_with_report(text).method == "cache"

    def test_flush_writes_one_cache_document(self, root):
        with Repository.open(root) as repo:
            repo.query(TITLES)
        layout = StorageLayout(root)
        assert sorted(p.name for p in layout.cache_dir.iterdir()) \
            == ["cache.json"]
        document = json.loads(layout.cache_file.read_text())
        assert len(document["entries"]) == 1


class TestRootFromShardedLayout:
    """Roots written before the cache was one document still open."""

    def write_sharded_root(self, root) -> None:
        """Re-stamp *root* the way the sharded layout left it: a
        manifest naming a shard count and a populated shard file."""
        layout = StorageLayout(root)
        manifest = json.loads(layout.manifest.read_text())
        manifest["cache_shards"] = 8
        layout.manifest.write_text(json.dumps(manifest))
        with DurableStore.open(root) as store:
            version = store.version
        query = parse_query(TITLES)
        answer = evaluate(query, figure3_database())
        shard = {
            "schema_version": 1, "kind": "repro-cache-shard",
            "shard": 0, "shards": 8, "store_version": version,
            "entries": [{
                "name": "cached_1", "key": query_key(query),
                "statement": query_to_json(query), "version": version,
                "hits": 0, "lru": 0,
                "answer": database_to_json(answer, sort_oids=True),
            }],
        }
        (layout.cache_dir / "shard-00.json").write_text(json.dumps(shard))

    def test_opens_with_intact_store_and_cold_cache(self, root):
        self.write_sharded_root(root)
        with Repository.open(root) as repo:
            assert identical(repo.store.db, figure3_database())
            assert len(repo.cache) == 0
            assert repo.query_with_report(TITLES).method == "direct"
