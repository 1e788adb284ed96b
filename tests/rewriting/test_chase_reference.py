"""The chase agrees with the reference chase on everything it is run on.

:func:`repro.rewriting.chase.chase` keeps ``(head, paths)`` between
rules; :func:`tests.rewriting.reference_chase.reference_chase` rebuilds
and re-normalizes the query per fired rule.  Both must print the same
query, raise the same contradiction or cycle error, and tick a budget
the same number of times, on the inputs a search chases: each case's
query and views, its candidates and their composition rules.
"""

from __future__ import annotations

import glob
import importlib
import os

import pytest

from repro.errors import ChaseContradictionError, CyclicPatternError
from repro.oracle.corpus import load_case
from repro.oracle.gen import PROFILES, generate_case
from repro.rewriting import RewriteSession, rewrite
from repro.rewriting.chase import chase
from repro.rewriting.constraints import paper_dtd
from repro.tsl import parse_query
from repro.workloads import (CONFERENCES, condition_view, conference_query,
                             conference_view, k_conditions_query, query_q3,
                             query_q5, query_q7, star_query, star_view,
                             view_v1)
from tests.rewriting.reference_chase import reference_chase
from tests.rewriting.test_path_index import (chain_dtd,
                                             shared_empty_set_query,
                                             shared_oid_query,
                                             variable_label_chain)

CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")


class CountingBudget:
    """A budget that only counts its ticks."""

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, amount: int = 1) -> None:
        self.ticks += amount


def chased_inputs(query, views, constraints, monkeypatch) -> list:
    """*query* and *views*, then every other query a search of *query*
    under *constraints* chases (candidates, composition rules)."""
    seen: dict = dict.fromkeys([query, *views.values()])

    def recording(query, constraints=None, *args, **kwargs):
        seen.setdefault(query)
        return chase(query, constraints, *args, **kwargs)

    for module in ("repro.rewriting.session", "repro.rewriting.equivalence"):
        monkeypatch.setattr(importlib.import_module(module), "chase",
                            recording)
    try:
        rewrite(query, views, constraints, heuristic=False,
                session=RewriteSession(views, constraints))
    except ChaseContradictionError:
        pass  # the query itself contradicts; it is still recorded
    finally:
        monkeypatch.undo()
    return list(seen)


def outcome(chaser, query, constraints):
    budget = CountingBudget()
    try:
        result = str(chaser(query, constraints, budget=budget))
    except (ChaseContradictionError, CyclicPatternError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, budget.ticks


def cases():
    for path in sorted(glob.glob(os.path.join(CORPUS, "chase-*.json"))):
        yield os.path.basename(path), load_case(path)
    for profile in sorted(PROFILES):
        for seed in range(60):
            yield f"{profile}/{seed}", generate_case(seed, PROFILES[profile])


def test_chase_matches_the_reference_chase(monkeypatch):
    searched = 0
    for name, case in cases():
        settings = [None, paper_dtd()]
        if case.constraints is not None:
            settings.append(case.constraints)
        for constraints in settings:
            inputs = chased_inputs(case.query, case.views, constraints,
                                   monkeypatch)
            searched += len(inputs) - 1 - len(case.views)
            for query in inputs:
                expected = outcome(reference_chase, query, constraints)
                assert outcome(chase, query, constraints) == expected, \
                    (name, str(query))
    # Most inputs come from the searches, not from the cases themselves.
    assert searched > 1000, searched


def workloads():
    """The paper's queries and the benchmark's families, whose
    compositions are longer than the generator's and fire more rules."""
    v1 = {"V1": view_v1()}
    for make in (query_q3, query_q5, query_q7):
        for constraints in (None, paper_dtd()):
            yield make(), v1, constraints
    conferences = {f"V{c}": conference_view(c, f"V{c}")
                   for c in CONFERENCES}
    for conference in CONFERENCES[:3]:
        yield conference_query(conference, 1997), conferences, None
    yield star_query(3), {"S": star_view(3)}, None
    yield (k_conditions_query(3),
           {f"C{i}": condition_view(i) for i in (1, 2, 3)}, None)
    yield variable_label_chain(), {}, chain_dtd()
    yield shared_oid_query(), {}, None
    yield shared_empty_set_query(), {}, None


def test_chase_matches_the_reference_on_paper_workloads(monkeypatch):
    multi_step = 0
    for query, views, constraints in workloads():
        for chased in chased_inputs(query, views, constraints,
                                    monkeypatch):
            expected = outcome(reference_chase, chased, constraints)
            assert outcome(chase, chased, constraints) == expected, \
                str(chased)
            multi_step += expected[1] > 2
    assert multi_step > 20, multi_step


@pytest.mark.parametrize("text,error", [
    ("<f(X) r V> :- <X a 1>@db AND <X a 2>@db", ChaseContradictionError),
    ("<f(X) r V> :- <X a {<Y b V>}>@db AND <X a 3>@db",
     ChaseContradictionError),
    ("<g(X) r Y> :- <X e {<X e Y>}>@db", CyclicPatternError),
])
def test_failures_match_the_reference_chase(text, error):
    query = parse_query(text)
    expected = outcome(reference_chase, query, None)
    assert expected[0][0] == error.__name__
    assert outcome(chase, query, None) == expected
