#!/usr/bin/env python3
"""Ablation -- minimizing compositions before the equivalence test.

Composition brings one fresh view-body copy per resolution goal (the
fusion-correct unfolding), so raw compositions carry heavy redundancy.
DESIGN.md calls out the design choice of running CQ-style minimization on
each composed rule before Theorem 4.2's mutual-mapping search.  This
ablation measures the end-to-end equivalence-test time with and without
that pass, over the paper's (Q4)/(V1) composition and the fan-out family.

Each row also reports the equivalence decision and the body paths the
test compared (``tested_paths``): minimizing must not change a decision
and may only shrink what is compared.  Measured shape (EXPERIMENTS.md):
minimization costs about what it saves at these sizes and cuts the
compared paths 8-12x; it bounds the worst case, since the mapping search
is exponential in the number of body paths.
"""

from __future__ import annotations

import time

from repro.rewriting import chase, compose, programs_equivalent
from repro.rewriting.equivalence import minimize, prepare_program
from repro.tsl import parse_query, query_paths
from repro.workloads import fanout_probe_query, fanout_view, view_v1

FANOUTS = (1, 2, 3)


def _paper_case():
    v1 = view_v1()
    q4n = parse_query(
        "<f(P) stanford yes> :- "
        "<g(P) p {<pp(P,Y) pr Y>}>@V1 AND "
        "<g(P) p {<h(X) v leland>}>@V1")
    q3 = parse_query("<f(P) stanford yes> :- <P p {<X Y leland>}>@db")
    return compose(q4n, {"V1": v1}), q3


def _fanout_case(fanout: int):
    view = fanout_view(fanout, name="V")
    probe = fanout_probe_query("V")
    composed = compose(probe, {"V": view})
    return composed, _prepared(composed, True)


def _prepared(composed, minimized: bool):
    """The chased rules of *composed*, each minimized when asked."""
    rules = prepare_program(composed)
    return [minimize(rule) for rule in rules] if minimized else rules


def equivalence_run(composed, reference, minimized: bool):
    """Time one equivalence test; return its seconds, its decision and
    the body paths it compared (after the chase, and minimization when
    on)."""
    started = time.perf_counter()
    prepared = _prepared(composed, minimized)
    decision = programs_equivalent(prepared, reference)
    seconds = time.perf_counter() - started
    return seconds, decision, sum(len(query_paths(r)) for r in prepared)


def equivalence_time(composed, reference, minimized: bool) -> float:
    seconds, decision, _ = equivalence_run(composed, reference, minimized)
    assert decision
    return seconds


def _rows(case: str, composed, reference) -> list[dict]:
    rows = []
    for minimized in (False, True):
        seconds, decision, tested = equivalence_run(composed, reference,
                                                    minimized)
        rows.append({
            "case": case,
            "minimize": minimized,
            "paths": sum(len(query_paths(r)) for r in composed),
            "tested_paths": tested,
            "equivalent": decision,
            "seconds": seconds,
        })
    return rows


def run_experiment() -> list[dict]:
    composed, q3 = _paper_case()
    rows = _rows("(V1) o (Q4)n vs (Q3)", composed, [q3])
    for fanout in FANOUTS:
        composed, reference = _fanout_case(fanout)
        rows += _rows(f"fanout({fanout}) self-equivalence", composed,
                      reference)
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'case':28} {'minimize':>8} {'paths':>6} {'tested':>6} "
          f"{'seconds':>9}")
    for row in rows:
        print(f"{row['case']:28} {str(row['minimize']):>8} "
              f"{row['paths']:>6} {row['tested_paths']:>6} "
              f"{row['seconds']:>9.4f}")


# -- pytest-benchmark entry points ------------------------------------------

def test_paper_case_minimized(benchmark):
    composed, q3 = _paper_case()
    benchmark(equivalence_time, composed, [q3], True)


def test_paper_case_raw(benchmark):
    composed, q3 = _paper_case()
    benchmark(equivalence_time, composed, [q3], False)


def test_decisions_agree():
    composed, q3 = _paper_case()
    assert programs_equivalent(_prepared(composed, True), [q3])
    assert programs_equivalent(_prepared(composed, False), [q3])


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
