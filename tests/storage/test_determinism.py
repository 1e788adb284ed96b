"""Byte stability: same logical state, same bytes, every time.

Satellite of the persistence PR: snapshots iterate oids in sorted
order and every persisted document sorts its keys and content, so
``repro db stats``, store snapshots, and the cache document can be
diffed (and content-addressed) across runs and across machines.
"""

import json
import random

from repro.cli import main
from repro.oem import dumps
from repro.oem.model import OemDatabase
from repro.oem.serialize import database_to_json
from repro.repository.cache import QueryCache
from repro.storage import CacheStore, DurableStore, StorageLayout
from repro.tsl.evaluator import evaluate
from repro.tsl.parser import parse_query
from repro.workloads import figure3_database, generate_bibliography


def shuffled_copy(db: OemDatabase, seed: int) -> OemDatabase:
    """The same logical database, built in a random insertion order."""
    rng = random.Random(seed)
    out = OemDatabase(db.name)
    oids = list(db.oids())
    rng.shuffle(oids)
    for oid in oids:
        if db.is_atomic(oid):
            out.add_atomic(oid, db.label(oid), db.atomic_value(oid))
        else:
            out.add_set(oid, db.label(oid))
    for oid in oids:
        children = list(db.children(oid))
        rng.shuffle(children)
        for child in children:
            out.add_child(oid, child)
    roots = list(db.roots)
    rng.shuffle(roots)
    for root in roots:
        out.add_root(root)
    return out


class TestSortedSerialization:
    def test_shuffled_construction_serializes_identically(self):
        db = generate_bibliography(30, seed=4)
        reference = json.dumps(database_to_json(db, sort_oids=True),
                               sort_keys=True)
        for seed in range(3):
            copy = shuffled_copy(db, seed)
            assert json.dumps(database_to_json(copy, sort_oids=True),
                              sort_keys=True) == reference

    def test_snapshot_bytes_independent_of_ingest_order(self, tmp_path):
        db = generate_bibliography(30, seed=4)
        snapshots = []
        for seed in range(2):
            root = tmp_path / f"store-{seed}"
            store = DurableStore.create(root, db.name)
            store.ingest(shuffled_copy(db, seed))
            store.compact()
            store.close()
            snapshots.append(StorageLayout(root).snapshot.read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_recompaction_is_idempotent_on_bytes(self, tmp_path):
        root = tmp_path / "store"
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        store.compact()
        first = StorageLayout(root).snapshot.read_bytes()
        store.compact()
        store.close()
        assert StorageLayout(root).snapshot.read_bytes() == first


class TestCacheShardBytes:
    def test_save_load_save_reproduces_shard_files(self, tmp_path):
        db = figure3_database()
        query = parse_query(
            "<ans(P) pub {<B booktitle 'SIGMOD'>}> :- "
            "<P pub {<B booktitle 'SIGMOD'>}>@db")
        cache = QueryCache(capacity=8)
        cache.insert(query, evaluate(query, db), 1)
        first = CacheStore(StorageLayout(tmp_path / "a").cache_file)
        first.save(cache, 1)
        reloaded = QueryCache(capacity=8)
        first.load(reloaded, 1)
        second = CacheStore(StorageLayout(tmp_path / "b").cache_file)
        second.save(reloaded, 1)
        assert first.path.read_bytes() == second.path.read_bytes()


class TestDbStatsCli:
    def test_db_stats_output_is_byte_stable(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        db_file = tmp_path / "db.json"
        db_file.write_text(dumps(figure3_database()))
        assert main(["db", "init", root]) == 0
        assert main(["db", "ingest", root, "--db", str(db_file)]) == 0
        capsys.readouterr()
        assert main(["db", "stats", root]) == 0
        first = capsys.readouterr().out
        assert main(["db", "stats", root]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["store"]["objects"] == 7
        assert payload["store"]["version"] > 0
        assert payload["cache"] == {"entries": 0}
        assert payload["sessions"] == {"sessions": 0, "entries": {}}

    def test_db_stats_stable_across_flush_and_compact(self, tmp_path,
                                                      capsys):
        root = str(tmp_path / "store")
        db_file = tmp_path / "db.json"
        db_file.write_text(dumps(figure3_database()))
        main(["db", "init", root])
        main(["db", "ingest", root, "--db", str(db_file)])
        main(["db", "flush", root])
        capsys.readouterr()
        main(["db", "stats", root])
        before = json.loads(capsys.readouterr().out)
        main(["db", "compact", root])
        capsys.readouterr()
        main(["db", "stats", root])
        after = json.loads(capsys.readouterr().out)
        # Version and contents survive compaction; only the WAL counter
        # and snapshot flag may change.
        assert after["store"]["version"] == before["store"]["version"]
        assert after["store"]["objects"] == before["store"]["objects"]
        assert after["store"]["wal_records"] == 0
