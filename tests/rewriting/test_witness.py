"""Step 2 by witness: query ⊆ composition checked from the Step 1A θ.

The witness is built from data the search already has (each view atom's
θ, each composition rule's unifier and view copies) and is *checked*,
so a hit is a proof; a failed check falls back to the full component
search.  These tests pin where it hits, where it must fall back, and
that its completion search honours the run's budget.
"""

import importlib

import pytest

from repro.errors import BudgetExceededError
from repro.logic.subst import Substitution
from repro.logic.terms import Variable
from repro.obs import Budget, Tracer
from repro.rewriting import rewrite
from repro.rewriting.constraints import paper_dtd
from repro.rewriting.equivalence import programs_equivalent
from repro.rewriting.rewriter import CandidateAtom, _Search
from repro.rewriting.session import RewriteSession
from repro.tsl import parse_query
from repro.workloads import (conference_query, conference_view, query_q3,
                             query_q5, query_q7, view_v1)
from repro.workloads.biblio import CONFERENCES

witness_mod = importlib.import_module("repro.rewriting.witness")


def witness_outcomes(tracer: Tracer) -> list[str]:
    return [span.attrs["witness"] for span in tracer.spans
            if span.name == "equivalence" and "witness" in span.attrs]


@pytest.fixture()
def completions(monkeypatch):
    """Counts the witness's completion searches (its only mapping
    search) while leaving them in place."""
    calls = []
    real = witness_mod.body_mappings

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(witness_mod, "body_mappings", spy)
    return calls


@pytest.mark.parametrize("query, completes", [
    (query_q3, False), (query_q5, True), (query_q7, True)],
    ids=["q3", "q5", "q7"])
def test_paper_queries_are_witness_hits(query, completes, completions):
    tracer = Tracer()
    result = rewrite(query(), {"V1": view_v1()}, paper_dtd(),
                     tracer=tracer)
    assert result.rewritings
    outcomes = witness_outcomes(tracer)
    assert outcomes and set(outcomes) == {"hit"}
    # Under the DTD the chase adds fresh W_i variables to Q5's and Q7's
    # compositions; only those are completed by a mapping search.
    assert bool(completions) is completes
    for holding in completions:
        names = {v.name for path in holding
                 for v in witness_mod._path_variables(path)}
        assert any(name.startswith("W_") for name in names)


def test_biblio_family_is_a_witness_hit():
    views = {f"V{c}": conference_view(c, f"V{c}") for c in CONFERENCES}
    tracer = Tracer()
    result = rewrite(conference_query("vldb", 1999), views, tracer=tracer)
    assert len(result) == 4
    outcomes = witness_outcomes(tracer)
    assert outcomes and set(outcomes) == {"hit"}


def test_accepted_compositions_stay_unminimized_and_equivalent():
    result = rewrite(query_q5(), {"V1": view_v1()}, paper_dtd())
    (rewriting,) = result.rewritings
    assert programs_equivalent(rewriting.composition, [query_q5()],
                               paper_dtd())
    # One view-body copy per resolution goal survives: more paths than
    # the query has.
    paths = sum(len(rule.body) for rule in rewriting.composition)
    assert paths > len(query_q5().body)


def _stacked():
    s1 = parse_query("<v_s1(X) row 7> :- <X a 7>@db", name="S1")
    s2 = parse_query("<v_s2(X) out 7> :- <X row 7>@S1", name="S2")
    query = parse_query("<p(Z) x ok> :- <Z a 7>@db", name="Q")
    return {"S1": s1, "S2": s2}, query


def test_view_over_view_falls_back_to_the_search():
    views, query = _stacked()
    session = RewriteSession(views, memo_size=0)
    tracer = Tracer()
    search = _Search(session, tracer=tracer)
    assert search.prepare(query)
    # S2 over S1 over db: the candidate unfolds in two levels to the
    # query itself.
    candidate = parse_query("<p(Z) x ok> :- <v_s2(v_s1(Z)) out 7>@S2",
                            name="Q")
    atom = CandidateAtom(candidate.body[0], frozenset([0]), "S2",
                         Substitution({Variable("X"): Variable("Z")}))
    rules, witness = search.composition(session.chase(candidate), [atom])
    # Two unfolding levels: no rule reports provenance.
    assert rules and witness.origins == [None]
    assert witness.holds() is False
    accepted, verdict, _, _ = search.test_candidate(candidate, [atom])
    assert accepted is not None and verdict == "accepted"
    assert witness_outcomes(tracer) == ["fallback"]


def test_view_over_view_returns_the_search_rewritings(monkeypatch):
    views, query = _stacked()
    with_witness = rewrite(query, views).queries
    monkeypatch.setattr(witness_mod.Step2Witness, "holds",
                        lambda self, budget=None: False)
    assert rewrite(query, views).queries == with_witness
    assert [str(q) for q in with_witness] == [
        "<p(Z) x ok> :- <v_s1(Z) row 7>@S1"]


def test_budget_expiring_in_the_completion_truncates_the_run(
        monkeypatch):
    # Find the step count at which Q5's completion search starts, then
    # grant no step beyond it: the search's first tick expires.
    started = []
    real = witness_mod.body_mappings

    def spy(*args, budget=None, **kwargs):
        started.append(budget.steps)
        return real(*args, budget=budget, **kwargs)

    monkeypatch.setattr(witness_mod, "body_mappings", spy)
    rewrite(query_q5(), {"V1": view_v1()}, paper_dtd(),
            budget=Budget(max_steps=10**9))
    assert started
    raised = []

    def tight(*args, budget=None, **kwargs):
        try:
            return real(*args, budget=budget, **kwargs)
        except BudgetExceededError:
            raised.append(budget.steps)
            raise

    monkeypatch.setattr(witness_mod, "body_mappings", tight)
    result = rewrite(query_q5(), {"V1": view_v1()}, paper_dtd(),
                     budget=Budget(max_steps=started[0]))
    assert raised, "the budget did not expire inside the completion"
    assert result.truncated
    assert result.stats.stop_reason == "steps"
    assert not result.rewritings
