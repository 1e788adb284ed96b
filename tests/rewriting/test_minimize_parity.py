"""Parity of ``minimize`` with the greedy restart loop it replaced.

``minimize`` retracts the body onto a witness mapping's image and scans
once; the reference below drops one removable path at a time and
restarts its scan.  Both stop when no single path is removable, so both
return a core, and cores are unique up to isomorphism: the results must
have the same size and map into each other with the head variables
fixed.  On the workload compositions the canonical keys agree as well.
"""

import importlib

import pytest

from repro.errors import ChaseContradictionError
from repro.logic.subst import Substitution
from repro.oracle.gen import PROFILES, generate_case
from repro.oracle.oracles import _pad_with_path_copies
from repro.rewriting import rewrite
from repro.rewriting.canon import query_key
from repro.rewriting.chase import chase
from repro.rewriting.constraints import paper_dtd
from repro.rewriting.mappings import body_mappings
from repro.tsl.ast import Query
from repro.tsl.normalize import normalize, path_to_condition, query_paths
from repro.workloads import (conference_query, conference_view, query_q3,
                             query_q5, query_q7, view_v1)
from repro.workloads.biblio import CONFERENCES

equivalence_mod = importlib.import_module("repro.rewriting.equivalence")
rewriter_mod = importlib.import_module("repro.rewriting.rewriter")


def greedy_minimize(query: Query) -> Query:
    """Reference: drop the first removable path, rescan from the start."""
    current = normalize(query)
    frozen = Substitution({v: v for v in current.head_variables()})
    paths = query_paths(current)
    improved = True
    while improved and len(paths) > 1:
        improved = False
        for index in range(len(paths)):
            remaining = paths[:index] + paths[index + 1:]
            if body_mappings(paths, remaining, initial=frozen, limit=1):
                paths = remaining
                improved = True
                break
    return Query(current.head, tuple(path_to_condition(p) for p in paths),
                 name=current.name)


def assert_same_core(actual: Query, expected: Query) -> None:
    left, right = query_paths(actual), query_paths(expected)
    assert len(left) == len(right), (str(actual), str(expected))
    assert actual.head == expected.head
    frozen = Substitution({v: v for v in actual.head_variables()})
    assert body_mappings(left, right, initial=frozen, limit=1)
    assert body_mappings(right, left, initial=frozen, limit=1)


def compositions(monkeypatch, query, views, constraints=None):
    """The chased composition rules of every candidate tested while
    *query* is rewritten: what ``minimize`` is asked to shrink when a
    composition is minimized (for storage, or for an EXPLAIN report)."""
    seen: list[Query] = []
    real = rewriter_mod.compose

    def spy(*args, **kwargs):
        rules = real(*args, **kwargs)
        for rule in rules:
            try:
                seen.append(chase(rule, constraints))
            except ChaseContradictionError:
                pass
        return rules

    with monkeypatch.context() as patch:
        patch.setattr(rewriter_mod, "compose", spy)
        rewrite(query, views, constraints)
    return seen


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", range(6))
def test_generated_cases(profile, seed):
    # Generated queries are rarely redundant; their padded forms (a
    # weakened copy of every path first) mostly are.
    case = generate_case(seed, PROFILES[profile])
    for query in [case.query, *case.views.values()]:
        chased = chase(query, case.constraints)
        for variant in (chased, _pad_with_path_copies(chased)):
            assert_same_core(equivalence_mod.minimize(variant),
                             greedy_minimize(variant))


def _people_workload():
    views, dtd = {"V1": view_v1()}, paper_dtd()
    return [(query, views, dtd)
            for query in (query_q3(), query_q5(), query_q7())]


def _conference_workload():
    views = {f"V{c}": conference_view(c, f"V{c}") for c in CONFERENCES}
    return [(conference_query(c, 1999), views, None)
            for c in CONFERENCES[:3]]


@pytest.mark.parametrize("workload", [_people_workload,
                                      _conference_workload],
                         ids=["people-v1-dtd", "conference-year"])
def test_workload_compositions(monkeypatch, workload):
    checked = 0
    for query, views, constraints in workload():
        for composed in compositions(monkeypatch, query, views,
                                     constraints):
            actual = equivalence_mod.minimize(composed)
            expected = greedy_minimize(composed)
            assert_same_core(actual, expected)
            assert query_key(actual) == query_key(expected)
            checked += 1
    assert checked
