"""Tests for maximally contained rewritings (Section 7 future work)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import CyclicPatternError
from repro.obs import Budget
from repro.oem import build_database, obj
from repro.oracle import PROFILES, generate_case
from repro.rewriting import (RewriteResult, RewriteSession, contained_in,
                             maximally_contained_rewritings, minimize,
                             prepare_program, programs_contained, rewrite)
from repro.rewriting import contained as contained_mod
from repro.rewriting.rewriter import _Search
from repro.tsl import evaluate, parse_query


@pytest.fixture
def sigmod_view():
    """A view keeping only SIGMOD publications (partial coverage)."""
    return parse_query(
        "<v(P) pub {<c(P,L,W) L W>}> :- "
        "<P pub {<B booktitle sigmod>}>@db AND <P pub {<X L W>}>@db",
        name="V")


@pytest.fixture
def all_titles_query():
    """Titles of ALL publications -- more than the view retains."""
    return parse_query("<f(P) title T> :- <P pub {<X title T>}>@db")


class TestContainment:
    def test_reflexive(self, all_titles_query):
        assert contained_in(all_titles_query, all_titles_query)

    def test_narrower_contained_in_broader(self):
        broad = parse_query("<f(P) title T> :- <P pub {<X title T>}>@db")
        narrow = parse_query(
            "<f(P) title T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<B booktitle sigmod>}>@db")
        assert contained_in(narrow, broad)
        assert not contained_in(broad, narrow)

    def test_programs_contained_unions(self):
        broad = [parse_query("<f(P) x V> :- <P a {<X b V>}>@db")]
        union = [
            parse_query("<f(P) x V> :- "
                        "<P a {<X b V>}>@db AND <P a {<Y c 1>}>@db"),
            parse_query("<f(P) x V> :- "
                        "<P a {<X b V>}>@db AND <P a {<Z d 2>}>@db"),
        ]
        assert programs_contained(union, broad)
        assert not programs_contained(broad, union)


class TestMaximallyContained:
    def test_no_equivalent_but_a_contained_one(self, sigmod_view,
                                               all_titles_query):
        # Equivalent rewriting impossible: the view only has SIGMOD pubs.
        assert not rewrite(all_titles_query, {"V": sigmod_view},
                           total_only=True).rewritings
        result = maximally_contained_rewritings(
            all_titles_query, {"V": sigmod_view})
        assert len(result.rewritings) >= 1
        assert all(not r.is_equivalent for r in result.rewritings)

    def test_contained_answer_is_sound_and_maximal(self, sigmod_view,
                                                   all_titles_query):
        db = build_database("db", [
            obj("pub", [obj("title", "a"), obj("booktitle", "sigmod")]),
            obj("pub", [obj("title", "b"), obj("booktitle", "vldb")]),
        ])
        result = maximally_contained_rewritings(
            all_titles_query, {"V": sigmod_view})
        view_data = evaluate(sigmod_view, db, answer_name="V")
        full = {r.value for r in
                evaluate(all_titles_query, db).root_objects()}
        best = result.rewritings[0]
        partial = {r.value for r in
                   evaluate(best.query, {"V": view_data}).root_objects()}
        # Sound: only true answers; maximal here: all SIGMOD titles.
        assert partial <= full
        assert partial == {"a"}

    def test_equivalent_rewriting_dominates(self, sigmod_view):
        # A query the view fully answers: the maximal rewriting is the
        # equivalent one, flagged as such.
        query = parse_query(
            "<f(P) title T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<B booktitle sigmod>}>@db")
        result = maximally_contained_rewritings(query, {"V": sigmod_view})
        assert any(r.is_equivalent for r in result.rewritings)

    def test_dominated_candidates_dropped(self, sigmod_view):
        # With two views (sigmod pubs and sigmod-1997 pubs), the 1997
        # view's rewriting is strictly contained in the sigmod view's
        # and must not be reported.
        narrow_view = parse_query(
            "<w(P) pub {<d(P,L,W) L W>}> :- "
            "<P pub {<B booktitle sigmod>}>@db AND "
            "<P pub {<Y year 1997>}>@db AND <P pub {<X L W>}>@db",
            name="W")
        query = parse_query("<f(P) title T> :- <P pub {<X title T>}>@db")
        result = maximally_contained_rewritings(
            query, {"V": sigmod_view, "W": narrow_view})
        used = {frozenset(r.views_used) for r in result.rewritings}
        assert frozenset(["V"]) in used
        assert frozenset(["W"]) not in used

    def test_irrelevant_view_gives_nothing(self, all_titles_query):
        view = parse_query("<v(P) z V> :- <P zzz V>@db", name="V")
        result = maximally_contained_rewritings(
            all_titles_query, {"V": view})
        assert len(result.rewritings) == 0

    def test_compositions_are_chased_not_minimized(self, sigmod_view,
                                                   all_titles_query):
        # Like Rewriting.composition: each rule chased once, kept whole
        # (one view-body copy per resolution goal).
        [best] = maximally_contained_rewritings(
            all_titles_query, {"V": sigmod_view}).rewritings
        assert best.composition == prepare_program(best.composition)
        assert all(len(minimize(rule).body) < len(rule.body)
                   for rule in best.composition)

    def test_unsatisfiable_view_is_skipped(self):
        from tests.rewriting.test_rewriter import (PERSON_QUERY,
                                                   UNSATISFIABLE_VIEWS)
        views = {name: parse_query(text, name=name)
                 for name, text in UNSATISFIABLE_VIEWS.items()}
        outcome = maximally_contained_rewritings(parse_query(PERSON_QUERY),
                                                 views)
        assert [str(r) for r in outcome] == [
            "[equivalent] <f(P) person Y> :- <h(P) person Y>@Good"]


#: SIGMOD publications, SIGMOD 1997 publications, and a VLDB query the
#: views can answer only in part.  Every accepted composition repeats
#: the views' ``booktitle sigmod`` paths, so mapping one unminimized
#: composition into another is costly.
SIGMOD_VIEWS = {
    "S": "<v(P) pub {<c(P,L,W) L W>}> :- "
         "<P pub {<B booktitle sigmod>}>@db AND <P pub {<X L W>}>@db",
    "W": "<w(P) pub {<d(P,L,W) L W>}> :- "
         "<P pub {<B booktitle sigmod>}>@db AND "
         "<P pub {<Y year 1997>}>@db AND <P pub {<X L W>}>@db",
}
VLDB_QUERY = ("<f(P) r {<t(P) title T> <y(P) year Y>}> :- "
              "<P pub {<X title T>}>@db AND <P pub {<Z year Y>}>@db AND "
              "<P pub {<B booktitle vldb>}>@db")


def sigmod_inputs():
    return parse_query(VLDB_QUERY), {
        name: parse_query(text, name=name)
        for name, text in SIGMOD_VIEWS.items()}


class TestOneSearchLoop:
    def test_result_is_a_rewrite_result(self, sigmod_view,
                                        all_titles_query):
        outcome = maximally_contained_rewritings(all_titles_query,
                                                 {"V": sigmod_view})
        assert isinstance(outcome, RewriteResult)
        assert outcome.stats.rewritings == len(outcome) == 1
        assert outcome.stats.candidates_tested >= 1
        assert not outcome.truncated and outcome.stats.stop_reason is None

    def test_stops_at_the_first_equivalent_rewriting(self):
        # Unpruned and unstopped, this case tested 7,161 candidates.
        case = generate_case(19, PROFILES["dag"])
        outcome = maximally_contained_rewritings(
            case.query, case.views, case.constraints)
        assert outcome.stats.candidates_tested == 1
        assert [r.is_equivalent for r in outcome] == [True]

    def test_bodies_extending_an_accepted_one_are_pruned(self,
                                                         sigmod_view):
        # The title atom alone is accepted (contained, not equivalent);
        # any second condition would only narrow it.
        query = parse_query("<f(P) title T> :- <P pub {<X title T>}>@db "
                            "AND <P pub {<Y L W>}>@db")
        outcome = maximally_contained_rewritings(query, {"V": sigmod_view})
        assert outcome.stats.candidates_pruned_subsumed == 1
        assert [str(r) for r in outcome] == [
            "[contained] <f(P) title T> :- "
            "<v(P) pub {<c(P,title,T) title T>}>@V"]


class TestDominanceFilter:
    @pytest.mark.parametrize("total_only", [True, False])
    def test_returns_within_the_deadline(self, total_only):
        query, views = sigmod_inputs()
        deadline_ms = 1000
        started = time.monotonic()
        outcome = maximally_contained_rewritings(
            query, views, total_only=total_only,
            budget=Budget(deadline_ms=deadline_ms))
        assert (time.monotonic() - started) * 1e3 < 1.5 * deadline_ms
        assert not outcome.truncated
        assert [r.views_used for r in outcome] == [frozenset({"S"})]
        assert not outcome.rewritings[0].is_equivalent

    def test_expiry_in_the_filter_keeps_the_rest(self, monkeypatch):
        query, views = sigmod_inputs()
        seen = {}
        real = contained_mod._ContainedSearch.finish

        def recording(search):
            seen["steps"] = search.budget.steps
            seen["accepted"] = [str(r) for r in search.result]
            real(search)

        monkeypatch.setattr(contained_mod._ContainedSearch, "finish",
                            recording)
        full = maximally_contained_rewritings(query, views,
                                              total_only=False,
                                              budget=Budget())
        assert len(seen["accepted"]) > len(full) == 1
        monkeypatch.undo()
        # The search's own steps fit; the filter's first one does not.
        outcome = maximally_contained_rewritings(
            query, views, total_only=False,
            budget=Budget(max_steps=seen["steps"]))
        assert outcome.truncated
        assert outcome.stats.stop_reason == "steps"
        assert [str(r) for r in outcome] == seen["accepted"]
        assert outcome.stats.rewritings == len(seen["accepted"])


#: A view whose partial instantiation ``O1 = O6`` nests an oid under
#: itself in the composition (generator case dag/7).
CYCLE_VIEW = ("<xrow(L4,O1,O6,V2,V5) row ok> :- "
              "<O1 e V2>@db AND <O6 e {<O1 L4 V5>}>@db")
CYCLE_QUERY = ("<ans(O1) result {<out(O1) item V5>}> :- "
               "<O1 e V2>@db AND <O6 e {<O1 L4 V5>}>@db")


class TestCyclicCompositions:
    @pytest.mark.parametrize("seed", [7, 19])
    def test_dag_cases_return_within_the_deadline(self, seed):
        case = generate_case(seed, PROFILES["dag"])
        deadline_ms = 1000
        started = time.monotonic()
        outcome = maximally_contained_rewritings(
            case.query, case.views, case.constraints,
            budget=Budget(deadline_ms=deadline_ms))
        assert (time.monotonic() - started) * 1e3 < 1.5 * deadline_ms
        assert any(r.is_equivalent for r in outcome)

    def test_cyclic_composition_rejects_the_candidate(self):
        # Both searches reject the whole candidate: dropping only the
        # cyclic rule could leave a smaller, wrongly contained union.
        session = RewriteSession(
            {"V": parse_query(CYCLE_VIEW, name="V")}, memo_size=0)
        search = _Search(session)
        assert search.prepare(parse_query(CYCLE_QUERY))
        candidate = parse_query(
            "<ans(O1) result {<out(O1) item V5>}> :- "
            "<xrow(e,U,U,V2,V5) row ok>@V")
        accepted, verdict, reason, _ = search.test_candidate(candidate)
        assert accepted is None
        assert verdict == "failed-composition"
        assert "cycle" in reason
        assert search.stats.candidates_failed_composition == 1

    def test_cyclic_view_raises_promptly(self):
        query = parse_query("<f(X) r Y> :- <X e Y>@db")
        view = parse_query("<g(X) r Y> :- <X e {<X e Y>}>@db", name="V")
        for search in (rewrite, maximally_contained_rewritings):
            started = time.monotonic()
            with pytest.raises(CyclicPatternError):
                search(query, {"V": view},
                       budget=Budget(deadline_ms=500))
            assert time.monotonic() - started < 5


#: Prints the contained rewritings of generator case conjunctive/1, whose
#: view has three variables the query does not bind; then, for three
#: generator cases per profile, rewrite()'s rewritings, its EXPLAIN JSON
#: and the SessionRegistry document of the session it ran on.
HASH_SEED_SCRIPT = """
import json, tempfile
from repro.oracle import PROFILES, generate_case
from repro.rewriting import (Explanation, RewriteSession,
                             maximally_contained_rewritings)
from repro.storage import SessionRegistry, StorageLayout
case = generate_case(1, PROFILES["conjunctive"])
for rewriting in maximally_contained_rewritings(
        case.query, case.views, case.constraints):
    print(rewriting)
with tempfile.TemporaryDirectory() as root:
    registry = SessionRegistry(StorageLayout(root))
    for profile in sorted(PROFILES):
        for seed in range(3):
            case = generate_case(seed, PROFILES[profile])
            session = RewriteSession(case.views, case.constraints)
            explain = Explanation()
            result = session.rewrite(case.query, explain=explain)
            print(profile, seed, [str(r) for r in result])
            print(json.dumps(explain.to_json()))
            registry.save(profile, session, 0)
            print(registry.layout.session_path(profile).read_text())
"""


class TestDeterminism:
    def test_fresh_names_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            outputs.append(proc.stdout)
        assert "U_1" in outputs[0]
        printed = [line for line in outputs[0].splitlines()
                   if line.split(" ")[0] in PROFILES]
        assert len(printed) == 3 * len(PROFILES)
        assert all("@" in line for line in printed)  # each has rewritings
        assert outputs[0] == outputs[1]
