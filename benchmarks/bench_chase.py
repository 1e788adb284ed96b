#!/usr/bin/env python3
"""E8 -- label inference and the chase are polynomial (Section 3.3).

Claim: "applying label inference and the chase always terminates in time
polynomial to the length of the queries and the constraints description."

Workload: chain queries of growing depth whose labels are all variables,
against a chain DTD that determines every label; the chase must infer all
of them.  Series reported: depth -> time; the fitted growth ratio stays
polynomial (doubling the input multiplies time by a constant factor, not
an exponential one).

The ``fast@depth`` rows time the chase at two fixed depths as stable
per-row series for the regression gate.  Parity of the worklist kernels
with the quadratic ones they replaced is checked in
``tests/rewriting/test_path_index.py``.
"""

from __future__ import annotations

import time

from repro.logic.terms import Constant, FunctionTerm, Variable
from repro.rewriting import chase
from repro.rewriting.constraints import ChildSpec, Dtd
from repro.tsl.ast import Condition, ObjectPattern, Query, SetPattern

DEPTHS = (4, 8, 16, 32, 64)
FAST_DEPTHS = (16, 64)


def chain_dtd(depth: int) -> Dtd:
    dtd = Dtd(source="db")
    for level in range(1, depth):
        dtd.declare(f"l{level}", [ChildSpec(f"l{level + 1}", "1")])
    dtd.declare_atomic(f"l{depth}")
    return dtd


def variable_label_chain(depth: int) -> Query:
    """A chain whose first and last labels are known, the rest variables."""
    leaf: object = Variable("V")
    pattern = ObjectPattern(Variable(f"X{depth}"), Constant(f"l{depth}"),
                            leaf)
    for level in range(depth - 1, 1, -1):
        pattern = ObjectPattern(Variable(f"X{level}"),
                                Variable(f"L{level}"),
                                SetPattern((pattern,)))
    pattern = ObjectPattern(Variable("X1"), Constant("l1"),
                            SetPattern((pattern,)))
    head = ObjectPattern(FunctionTerm("f", (Variable("X1"),)),
                         Constant("result"), Variable("V"))
    return Query(head, (Condition(pattern, "db"),))


def chase_depth(depth: int) -> Query:
    return chase(variable_label_chain(depth), chain_dtd(depth))


def run_experiment() -> list[dict]:
    rows = []
    for depth in DEPTHS:
        started = time.perf_counter()
        chased = chase_depth(depth)
        elapsed = time.perf_counter() - started
        inferred = sum(
            1 for v in chased.all_variables() if v.name.startswith("L"))
        rows.append({"depth": depth, "seconds": elapsed,
                     "labels_left": inferred})
    for depth in FAST_DEPTHS:
        started = time.perf_counter()
        chase_depth(depth)
        rows.append({"mode": f"fast@{depth}", "depth": depth,
                     "seconds": time.perf_counter() - started})
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'mode':>20} {'depth':>6} {'seconds':>10} {'labels left':>12}")
    previous = None
    for row in rows:
        ratio = ""
        if previous and "mode" not in row:
            ratio = f"  (x{row['seconds'] / max(previous, 1e-9):.1f})"
        print(f"{row.get('mode', ''):>20} {row['depth']:>6} "
              f"{row['seconds']:>10.4f} "
              f"{row.get('labels_left', ''):>12}{ratio}")
        if "mode" not in row:
            previous = row["seconds"]


# -- pytest-benchmark entry points ------------------------------------------

def test_chase_depth_32(benchmark):
    chased = benchmark(chase_depth, 32)
    assert not any(v.name.startswith("L")
                   for v in chased.all_variables())


def test_all_labels_inferred():
    for depth in (4, 8):
        chased = chase_depth(depth)
        assert not any(v.name.startswith("L")
                       for v in chased.all_variables())


def test_polynomial_shape():
    timings = []
    for depth in (8, 16, 32):
        started = time.perf_counter()
        chase_depth(depth)
        timings.append(time.perf_counter() - started)
    # Doubling depth must not square^2 the time (allow a cubic factor
    # with generous noise headroom -- exponential would blow well past).
    assert timings[2] < 64 * max(timings[0], 1e-4)


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
