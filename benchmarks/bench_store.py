#!/usr/bin/env python3
"""Store series -- persistence overhead and warm-start lookup parity.

The acceptance scenario of the persistence subsystem: a cache of >=100k
entries is flushed to one JSON document, a fresh process reloads
it, and warm-from-disk lookups must stay **within 2x** of lookups
against the cache that never left memory (the entries deserialize into
the same in-memory structures, so the steady-state cost is identical;
the bound catches accidental lazy-loading or re-parsing on the lookup
path).

Series reported, per cache size:

* build / save / load wall time and the on-disk footprint;
* per-probe lookup time three ways -- **cold** (direct evaluation
  against the backing database, no cache), **warm-mem** (the original
  in-memory cache), **warm-disk** (the reloaded cache) -- plus the
  warm-disk/warm-mem ratio, asserted ``<= MAX_DISK_RATIO``;
* a parity check: every probe's answer from the reloaded cache must be
  canonically byte-identical to the in-memory one, or the bench raises.

A final row times the durable OEM store itself (ingest, compact,
reopen-with-WAL-replay) on the synthetic bibliography.

The filler entries share one (empty) answer object so building a 100k
entry cache stays tractable; the probe entries carry real per-title
answers so both the parity check and the cold series are meaningful.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.oem.serialize import database_to_json
from repro.repository.cache import QueryCache
from repro.storage import CacheStore, DurableStore, StorageLayout
from repro.tsl import parse_query
from repro.tsl.evaluator import evaluate
from repro.workloads import generate_bibliography

#: Cache sizes for the recorded series (the last one is the acceptance
#: floor: >= 100k entries).
SIZES = (10_000, 100_000)

#: Probe queries timed / parity-checked per size.
PROBES = 200

#: Publications in the backing database (drives the cold series).
BACKING_PUBS = 1_000

#: Acceptance bound: warm-from-disk lookups vs in-memory warm lookups.
MAX_DISK_RATIO = 2.0

#: Timing repetitions; the minimum is reported (best-of-N damps jitter).
ROUNDS = 3


def backing_database():
    return generate_bibliography(BACKING_PUBS, seed=17)


def _title_query(title: str) -> str:
    escaped = title.replace("'", "")
    return (f"<ans(P) pub {{<T title '{escaped}'>}}> :- "
            f"<P pub {{<T title '{escaped}'>}}>@db")


def probe_queries(db, count: int = PROBES) -> list:
    """Selections on real titles -- nonempty answers, distinct keys."""
    titles = sorted(db.atomic_value(oid) for oid in db.oids()
                    if db.is_atomic(oid) and db.label(oid) == "title")
    assert len(titles) >= count, "backing database too small"
    return [parse_query(_title_query(title)) for title in titles[:count]]


def filler_queries(count: int) -> list:
    """Misses with distinct canonical keys; answers are all empty."""
    return [parse_query(_title_query(f"nohit #{index}"))
            for index in range(count)]


def canonical(answer) -> str:
    return json.dumps(database_to_json(answer, sort_oids=True),
                      sort_keys=True)


def build_cache(db, probes: list, fillers: list,
                version: int = 1) -> QueryCache:
    cache = QueryCache(capacity=len(probes) + len(fillers))
    empty = evaluate(fillers[0], db) if fillers else None
    for query in fillers:
        cache.insert(query, empty, version)
    for query in probes:
        cache.insert(query, evaluate(query, db), version)
    return cache


def _best_of(rounds: int, fn) -> float:
    return min(fn() for _ in range(rounds))


def _time_lookups(cache: QueryCache, probes: list,
                  version: int) -> float:
    """Best-of-ROUNDS total seconds for one pass over the probes."""
    def one_pass() -> float:
        started = time.perf_counter()
        for query in probes:
            assert cache.lookup(query, version) is not None
        return time.perf_counter() - started
    return _best_of(ROUNDS, one_pass)


def run_size(entries: int, db=None) -> dict:
    db = db if db is not None else backing_database()
    probes = probe_queries(db)
    fillers = filler_queries(entries - len(probes))

    started = time.perf_counter()
    cache = build_cache(db, probes, fillers)
    build_s = time.perf_counter() - started
    assert len(cache) == entries

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        disk = CacheStore(StorageLayout(Path(root)).cache_file)
        started = time.perf_counter()
        disk.save(cache, store_version=1)
        save_s = time.perf_counter() - started
        disk_bytes = disk.path.stat().st_size

        reloaded = QueryCache(capacity=entries)
        started = time.perf_counter()
        loaded = disk.load(reloaded, store_version=1)
        load_s = time.perf_counter() - started
        assert loaded == {"entries": entries, "dropped": 0}, loaded

    # Parity first: the reloaded cache must answer byte-identically.
    for query in probes:
        before = cache.lookup(query, 1)
        after = reloaded.lookup(query, 1)
        assert canonical(before) == canonical(after), \
            f"warm-from-disk diverged on {query}"

    def cold_pass() -> float:
        started = time.perf_counter()
        for query in probes:
            evaluate(query, db)
        return time.perf_counter() - started

    cold_s = _best_of(ROUNDS, cold_pass)
    warm_mem_s = _time_lookups(cache, probes, version=1)
    warm_disk_s = _time_lookups(reloaded, probes, version=1)
    ratio = warm_disk_s / max(warm_mem_s, 1e-9)
    assert ratio <= MAX_DISK_RATIO, (
        f"warm-from-disk lookups {ratio:.2f}x slower than in-memory "
        f"warm (bound: {MAX_DISK_RATIO}x)")

    return {
        "scenario": f"cache x{entries}",
        "entries": entries,
        "build_s": build_s,
        "save_s": save_s,
        "load_s": load_s,
        "disk_mb": disk_bytes / 1e6,
        "cold_ms": cold_s / len(probes) * 1e3,
        "warm_mem_ms": warm_mem_s / len(probes) * 1e3,
        "warm_disk_ms": warm_disk_s / len(probes) * 1e3,
        "disk_vs_mem": ratio,
        "cold_vs_warm": cold_s / max(warm_disk_s, 1e-9),
    }


def run_durable_store() -> dict:
    """Ingest / compact / reopen timings for the OEM store itself."""
    db = backing_database()
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as root:
        store = DurableStore.create(root, db.name)
        started = time.perf_counter()
        store.ingest(db)
        ingest_s = time.perf_counter() - started
        objects = store.stats()["objects"]
        version = store.version
        store.close()

        started = time.perf_counter()
        DurableStore.open(root).close()
        replay_s = time.perf_counter() - started

        store = DurableStore.open(root)
        started = time.perf_counter()
        store.compact()
        compact_s = time.perf_counter() - started
        store.close()

        started = time.perf_counter()
        reopened = DurableStore.open(root)
        snapshot_s = time.perf_counter() - started
        assert reopened.version == version
        reopened.close()

    return {
        "scenario": f"durable store ({BACKING_PUBS} pubs)",
        "objects": objects,
        "ingest_s": ingest_s,
        "reopen_wal_s": replay_s,
        "compact_s": compact_s,
        "reopen_snapshot_s": snapshot_s,
    }


def run_experiment() -> list[dict]:
    db = backing_database()
    rows = [run_size(entries, db) for entries in SIZES]
    rows.append(run_durable_store())
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'scenario':24} {'build(s)':>9} {'save(s)':>8} "
          f"{'load(s)':>8} {'MB':>7} {'cold(ms)':>9} {'mem(ms)':>8} "
          f"{'disk(ms)':>9} {'ratio':>6}")
    for row in rows:
        if "entries" not in row:
            continue
        print(f"{row['scenario']:24} {row['build_s']:>9.2f} "
              f"{row['save_s']:>8.2f} {row['load_s']:>8.2f} "
              f"{row['disk_mb']:>7.1f} {row['cold_ms']:>9.3f} "
              f"{row['warm_mem_ms']:>8.3f} {row['warm_disk_ms']:>9.3f} "
              f"{row['disk_vs_mem']:>6.2f}")
    for row in rows:
        if "ingest_s" not in row:
            continue
        print(f"\n{row['scenario']}: {row['objects']} objects, "
              f"ingest={row['ingest_s']:.2f}s "
              f"reopen(wal)={row['reopen_wal_s']:.2f}s "
              f"compact={row['compact_s']:.2f}s "
              f"reopen(snapshot)={row['reopen_snapshot_s']:.2f}s")


# -- pytest entry points ----------------------------------------------------

def test_warm_disk_within_bound_small():
    """The 2x acceptance bound at a CI-friendly size (run_size asserts)."""
    row = run_size(5_000)
    assert row["disk_vs_mem"] <= MAX_DISK_RATIO
    assert row["cold_vs_warm"] > 1.0, row


def test_durable_store_reopen_converges():
    row = run_durable_store()
    assert row["objects"] > BACKING_PUBS
    assert row["reopen_snapshot_s"] > 0


if __name__ == "__main__":
    print_table(run_experiment())
