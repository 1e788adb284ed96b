"""Regression: duplicate candidate atoms are merged, not re-tested.

Distinct containment mappings can instantiate a view to the *same*
condition (e.g. a view with a ground head matched at several target
paths).  Before the fix, each mapping produced its own
:class:`~repro.rewriting.rewriter.CandidateAtom`, so ``_search`` built
and equivalence-tested identical candidate bodies once per copy --
pure duplicated work.  Now equal-condition atoms are merged (their
``covers`` unioned) and counted in ``stats.candidates_pruned_duplicate``.
"""

import pytest

from repro.rewriting import rewrite
from repro.tsl import parse_query
from tests.rewriting.step1a import view_atoms


@pytest.fixture
def ground_head_view():
    # Every mapping of the body instantiates the same (ground) head.
    return parse_query("<c result done> :- <X item Y>@db", name="V")


@pytest.fixture
def two_site_query():
    # Two body paths the view maps onto independently (different oids,
    # so the chase cannot unify them away).
    return parse_query(
        "<f(P1,P2) res {<g1(P1) got V1> <g2(P2) got V2>}> :- "
        "<P1 item V1>@db AND <P2 item V2>@db")


def test_instantiations_still_report_each_mapping(ground_head_view,
                                                  two_site_query):
    atoms, _stats = view_atoms(two_site_query, {"V": ground_head_view})
    conditions = [a.condition for a in atoms]
    assert len(conditions) == 2
    assert conditions[0] == conditions[1]
    assert {frozenset(a.covers) for a in atoms} \
        == {frozenset({0}), frozenset({1})}


def test_search_merges_duplicates_and_unions_covers(ground_head_view,
                                                    two_site_query):
    result = rewrite(two_site_query, {"V": ground_head_view})
    assert result.stats.candidates_pruned_duplicate == 1


def test_distinct_conditions_not_merged():
    view = parse_query("<v(X) got Y> :- <X item Y>@db", name="V")
    query = parse_query(
        "<f(P1,P2) res {<g1(P1) a V1> <g2(P2) b V2>}> :- "
        "<P1 item V1>@db AND <P2 item V2>@db")
    result = rewrite(query, {"V": view})
    assert result.stats.candidates_pruned_duplicate == 0


def test_stat_serializes():
    view = parse_query("<c result done> :- <X item Y>@db", name="V")
    query = parse_query(
        "<f(P1,P2) res {<g1(P1) got V1> <g2(P2) got V2>}> :- "
        "<P1 item V1>@db AND <P2 item V2>@db")
    stats = rewrite(query, {"V": view}).stats
    assert stats.to_json()["candidates_pruned_duplicate"] == 1
