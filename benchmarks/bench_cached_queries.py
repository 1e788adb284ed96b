#!/usr/bin/env python3
"""E10 -- answering from cached queries beats re-scanning (Section 1).

The Section 1 scenario: the cache holds "all SIGMOD publications"; the
"SIGMOD 97" query is answered by *rewriting over the cache* -- filtering
the (small) cached result instead of scanning the (large) database.

Series reported: database size N -> direct evaluation time vs cache-hit
time and the speedup.  The speedup must grow with N (the cache is a
fixed fraction of the data, and rewriting cost is size-independent).

A second series measures the cache's *rewrite session* (prepared views
+ canonical-hash memo tables): repeated lookups against a warm cache
(memo on) vs a sessionless ``rewrite()`` over the same cache statements
followed by evaluation over the cached answers (memo off: the one-shot,
zero-capacity session every such call runs on).  The memoized
per-lookup time must be at least ~2x faster and the exported
``cache.hits`` counter nonzero.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry
from repro.repository import Repository
from repro.rewriting import rewrite
from repro.tsl import evaluate
from repro.workloads import (conference_query, generate_bibliography,
                             sigmod_97_query)
from repro.workloads.biblio import CONFERENCES

SIZES = (500, 2000, 8000)
SIGMOD_FRACTION = 0.15
#: Database size / repeated lookups for the memo-on/off series.  The
#: smaller SIGMOD fraction keeps the (memoization-independent) cost of
#: evaluating the rewriting over the cached answer from drowning out
#: the search time under measurement.
MEMO_SIZE = 2000
MEMO_REPEATS = 20
MEMO_FRACTION = 0.05


def build_repo(size: int) -> Repository:
    db = generate_bibliography(size, seed=size,
                               sigmod_fraction=SIGMOD_FRACTION)
    repo = Repository.from_database(db)
    repo.query(conference_query("sigmod"), use_views=False)  # warm cache
    return repo


def build_warm_repo(size: int,
                    metrics: MetricsRegistry | None = None) -> Repository:
    """A repository whose cache holds every per-conference query."""
    db = generate_bibliography(size, seed=size,
                               sigmod_fraction=MEMO_FRACTION)
    repo = Repository.from_database(db, metrics=metrics)
    for conference in CONFERENCES:
        repo.query(conference_query(conference), use_views=False)
    return repo


def cached_lookup(repo: Repository):
    report = repo.query_with_report(sigmod_97_query(), use_views=False)
    assert report.method == "cache"
    return report.answer


def sessionless_lookup(repo: Repository):
    """The cache lookup without its session: a one-shot ``rewrite()``
    over the cache statements, evaluated over the cached answers."""
    entries = repo.cache.entries
    statements = {name: entry.statement for name, entry in entries.items()}
    outcome = rewrite(sigmod_97_query(), statements, repo.constraints,
                      total_only=True, first_only=True)
    rewriting = outcome.rewritings[0]
    return evaluate(rewriting.query, {name: entries[name].answer
                                      for name in rewriting.views_used})


def direct_lookup(repo: Repository):
    return evaluate(sigmod_97_query(), repo.store.db)


def run_memo_experiment(size: int = MEMO_SIZE,
                        repeats: int = MEMO_REPEATS) -> dict:
    """Per-lookup time of repeated warm lookups, memoization on vs off."""
    metrics = MetricsRegistry()
    repo = build_warm_repo(size, metrics=metrics)
    per_lookup: dict[bool, float] = {}
    for memoize, lookup in ((True, cached_lookup),
                            (False, sessionless_lookup)):
        started = time.perf_counter()
        for _ in range(repeats):
            lookup(repo)
        per_lookup[memoize] = (time.perf_counter() - started) / repeats
    cache_hits = metrics.snapshot()["counters"].get("cache.hits", 0)
    return {
        "pubs": size,
        "repeats": repeats,
        "memo_s": per_lookup[True],
        "nomemo_s": per_lookup[False],
        "memo_speedup": per_lookup[False] / max(per_lookup[True], 1e-9),
        "cache_hits": cache_hits,
    }


def run_experiment() -> list[dict]:
    rows = []
    for size in SIZES:
        repo = build_repo(size)
        started = time.perf_counter()
        direct = direct_lookup(repo)
        t_direct = time.perf_counter() - started
        started = time.perf_counter()
        cached = cached_lookup(repo)
        t_cached = time.perf_counter() - started
        rows.append({
            "pubs": size,
            "answers": len(direct.roots),
            "direct_s": t_direct,
            "cached_s": t_cached,
            "speedup": t_direct / max(t_cached, 1e-9),
        })
    rows.append(run_memo_experiment())
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'pubs':>6} {'answers':>8} {'direct(s)':>10} "
          f"{'cached(s)':>10} {'speedup':>8}")
    for row in rows:
        if "memo_s" in row:
            continue
        print(f"{row['pubs']:>6} {row['answers']:>8} "
              f"{row['direct_s']:>10.3f} {row['cached_s']:>10.3f} "
              f"{row['speedup']:>7.1f}x")
    for row in rows:
        if "memo_s" not in row:
            continue
        print(f"\nmemo on/off ({row['repeats']} warm lookups, "
              f"{row['pubs']} pubs): "
              f"memo={row['memo_s'] * 1e3:.1f}ms "
              f"no-memo={row['nomemo_s'] * 1e3:.1f}ms "
              f"speedup={row['memo_speedup']:.1f}x "
              f"cache.hits={row['cache_hits']}")


# -- pytest-benchmark entry points ------------------------------------------

def test_direct_2000(benchmark):
    repo = build_repo(2000)
    benchmark(direct_lookup, repo)


def test_cached_2000(benchmark):
    repo = build_repo(2000)
    benchmark(cached_lookup, repo)


def test_memo_lookup_2000(benchmark):
    repo = build_warm_repo(2000)
    cached_lookup(repo)         # warm the session's result memo
    benchmark(cached_lookup, repo)


def test_memo_faster_and_agrees():
    from repro.oem import identical
    metrics = MetricsRegistry()
    repo = build_warm_repo(2000, metrics=metrics)
    assert identical(cached_lookup(repo), sessionless_lookup(repo))
    repeats = 5
    t0 = time.perf_counter()
    for _ in range(repeats):
        cached_lookup(repo)
    t_memo = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        sessionless_lookup(repo)
    t_plain = time.perf_counter() - t0
    assert t_memo < t_plain
    assert metrics.snapshot()["counters"].get("cache.hits", 0) > 0


def test_cache_wins_and_agrees():
    from repro.oem import identical
    repo = build_repo(2000)
    t0 = time.perf_counter()
    direct = direct_lookup(repo)
    t_direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    cached = cached_lookup(repo)
    t_cached = time.perf_counter() - t0
    assert identical(direct, cached)
    assert t_cached < t_direct


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
