#!/usr/bin/env python3
"""Substrate benchmark -- TSL evaluation scaling (supports E10/E11).

Not a paper claim per se, but the cache and mediator experiments depend
on evaluation cost scaling with data size; this bench pins that baseline
and compares the direct evaluator against the Datalog-translation path
(E13's slower twin).  The ``agrees`` column says whether the two answers
are identical: the direct evaluator is driven by the store's label and
value indexes, the translation by none of them.
"""

from __future__ import annotations

import time

from repro.logic.translate import evaluate_via_datalog
from repro.oem import identical
from repro.tsl import evaluate
from repro.workloads import generate_bibliography, sigmod_97_query

SIZES = (200, 800, 3200)
TRANSLATED_CAP = 3200  # keep the slower twin bounded


def evaluate_direct(db):
    return evaluate(sigmod_97_query(), db)


def evaluate_translated(db):
    return evaluate_via_datalog(sigmod_97_query(), db)


def run_experiment() -> list[dict]:
    rows = []
    for size in SIZES:
        db = generate_bibliography(size, seed=size)
        started = time.perf_counter()
        direct = evaluate_direct(db)
        t_direct = time.perf_counter() - started
        t_translated = agrees = None
        if size <= TRANSLATED_CAP:
            started = time.perf_counter()
            translated = evaluate_translated(db)
            t_translated = time.perf_counter() - started
            agrees = identical(direct, translated)
        rows.append({"pubs": size, "answers": len(direct.roots),
                     "direct_s": t_direct, "datalog_s": t_translated,
                     "agrees": agrees})
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'pubs':>6} {'answers':>8} {'direct(s)':>10} "
          f"{'datalog(s)':>11} {'agrees':>7}")
    for row in rows:
        datalog = ("-" if row["datalog_s"] is None
                   else f"{row['datalog_s']:.3f}")
        agrees = "-" if row["agrees"] is None else str(row["agrees"])
        print(f"{row['pubs']:>6} {row['answers']:>8} "
              f"{row['direct_s']:>10.3f} {datalog:>11} {agrees:>7}")


# -- pytest-benchmark entry points ------------------------------------------

def test_direct_800(benchmark):
    db = generate_bibliography(800, seed=800)
    answer = benchmark(evaluate_direct, db)
    benchmark.extra_info["answers"] = len(answer.roots)


def test_translated_200(benchmark):
    db = generate_bibliography(200, seed=200)
    benchmark(evaluate_translated, db)


def test_paths_agree():
    db = generate_bibliography(100, seed=3)
    assert identical(evaluate_direct(db), evaluate_translated(db))


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
