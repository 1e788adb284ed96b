#!/usr/bin/env python3
"""End-to-end rewriter benchmark on the paper's workload (E2 timing).

Times the complete Section 3.4 pipeline -- mapping discovery, candidate
enumeration with the covering heuristic, chase, composition, equivalence
-- on the paper's own queries over (V1), and on the multi-view
per-condition workload.  This is the headline "how fast is the
algorithm" number for the reproduction.
"""

from __future__ import annotations

import time

from repro.obs import METRICS
from repro.rewriting import Explanation, RewriteSession, paper_dtd, rewrite
from repro.rewriting.canon import query_key
from repro.workloads import (condition_view, k_conditions_query, query_q3,
                             query_q5, query_q7, view_v1)

#: Repetitions for the instrumentation-overhead measurement.
OVERHEAD_REPEATS = 10

#: The signature-prefilter series: a mediator with many registered views
#: of which only a handful mention the query's labels.  200 dead views
#: is a realistic "big mediator config"; the pre-filter should skip all
#: of them before Step 1A.
PREFILTER_QUERY_K = 6
PREFILTER_DEAD_VIEWS = 200
PREFILTER_REPEATS = 3

#: The opt-out path must stay within noise of the instrumented one --
#: generous bound so CI machines under load don't flake, but a default
#: path that accidentally does the EXPLAIN/metrics work blows past it.
OVERHEAD_TOLERANCE = 2.0
OVERHEAD_SLACK_SECONDS = 0.05


def rewrite_q3():
    return rewrite(query_q3(), {"V1": view_v1()})


def rewrite_q5():
    return rewrite(query_q5(), {"V1": view_v1()})


def rewrite_q7_plain():
    return rewrite(query_q7(), {"V1": view_v1()})


def rewrite_q7_dtd():
    return rewrite(query_q7(), {"V1": view_v1()}, constraints=paper_dtd())


def rewrite_k(k: int):
    views = {f"V{i}": condition_view(i) for i in range(1, k + 1)}
    return rewrite(k_conditions_query(k), views, total_only=True)


SCENARIOS = {
    "Q3 over V1": rewrite_q3,
    "Q5 over V1 (set mapping)": rewrite_q5,
    "Q7 over V1 (reject)": rewrite_q7_plain,
    "Q7 over V1 + DTD": rewrite_q7_dtd,
    "k=3 per-condition views": lambda: rewrite_k(3),
    "k=4 per-condition views": lambda: rewrite_k(4),
}


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_overhead(repeats: int = OVERHEAD_REPEATS) -> dict:
    """Opt-in instrumentation cost: plain vs explain+metrics rewrite.

    The plain run uses the library defaults (``explain=None``, a
    one-shot session without metrics); the instrumented run attaches a
    fresh :class:`~repro.rewriting.Explanation` per call and runs on a
    ``memo_size=0`` session feeding the process-wide
    :data:`~repro.obs.METRICS` registry (so a recorded
    snapshot carries the phase histograms this produces).  Asserts the
    default path is within noise of the instrumented one -- the
    "observability is opt-in" contract.
    """
    plain_s, result = _best_of(rewrite_q3, repeats)
    instrumented_s, _ = _best_of(
        lambda: RewriteSession({"V1": view_v1()}, memo_size=0,
                               metrics=METRICS).rewrite(
            query_q3(), explain=Explanation()),
        repeats)
    assert plain_s <= instrumented_s * OVERHEAD_TOLERANCE \
        + OVERHEAD_SLACK_SECONDS, (
        f"default (uninstrumented) rewrite took {plain_s:.4f}s vs "
        f"{instrumented_s:.4f}s instrumented -- the opt-out path is "
        f"paying for observability it did not ask for")
    return {"scenario": f"obs overhead (Q3 best of {repeats})",
            "rewritings": len(result.rewritings),
            "tested": result.stats.candidates_tested,
            "seconds": plain_s,
            "instrumented_seconds": instrumented_s,
            "overhead_ratio": (instrumented_s / plain_s
                               if plain_s > 0 else None)}


def _prefilter_views(k: int = PREFILTER_QUERY_K,
                     dead: int = PREFILTER_DEAD_VIEWS) -> dict:
    """k live per-condition views plus *dead* label-disjoint ones."""
    views = {}
    for index in range(1, k + 1):
        view = condition_view(index)
        views[view.name] = view
    for index in range(1000, 1000 + dead):
        view = condition_view(index)
        views[view.name] = view
    return views


def measure_signature_prefilter(repeats: int = PREFILTER_REPEATS) -> dict:
    """The label-signature pre-filter over a many-view config.

    Uses the plain :func:`~repro.rewriting.rewrite` (no session), so no
    run can serve another from a memo; asserts the rewriting set equals
    the one over the live views alone -- the benchmark doubles as a
    parity check on exactly the configuration it measures.
    """
    query = k_conditions_query(PREFILTER_QUERY_K)
    views = _prefilter_views()
    seconds, result = _best_of(
        lambda: rewrite(query, views, total_only=True), repeats)
    live = rewrite(query, _prefilter_views(dead=0), total_only=True)

    def canonical(result):
        return {(query_key(r.query), tuple(sorted(r.views_used)))
                for r in result.rewritings}

    assert canonical(result) == canonical(live), (
        "signature pre-filter changed the rewriting set on the "
        "benchmark configuration")
    assert result.stats.views_pruned_signature == PREFILTER_DEAD_VIEWS
    return {"scenario": f"prefilter {PREFILTER_DEAD_VIEWS}+"
                        f"{PREFILTER_QUERY_K} views",
            "rewritings": len(result.rewritings),
            "tested": result.stats.candidates_tested,
            "seconds": seconds,
            "views_pruned": result.stats.views_pruned_signature}


def run_experiment() -> list[dict]:
    rows = []
    for name, scenario in SCENARIOS.items():
        started = time.perf_counter()
        result = scenario()
        elapsed = time.perf_counter() - started
        rows.append({"scenario": name,
                     "rewritings": len(result.rewritings),
                     "tested": result.stats.candidates_tested,
                     "seconds": elapsed})
    rows.append(measure_overhead())
    rows.append(measure_signature_prefilter())
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'scenario':26} {'rewritings':>11} {'tested':>7} "
          f"{'seconds':>9}")
    for row in rows:
        print(f"{row['scenario']:26} {row['rewritings']:>11} "
              f"{row['tested']:>7} {row['seconds']:>9.3f}")


# -- pytest-benchmark entry points ------------------------------------------

def test_rewrite_q3(benchmark):
    result = benchmark(rewrite_q3)
    assert len(result.rewritings) == 1


def test_rewrite_q5(benchmark):
    result = benchmark(rewrite_q5)
    assert len(result.rewritings) == 1


def test_rewrite_q7_with_dtd(benchmark):
    result = benchmark(rewrite_q7_dtd)
    assert len(result.rewritings) == 1


def test_rewrite_k3(benchmark):
    result = benchmark(rewrite_k, 3)
    assert result.rewritings


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
