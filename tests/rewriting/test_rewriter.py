"""Tests for the general rewriting algorithm (Section 3.4)."""

import pytest

from repro.errors import ChaseContradictionError, RewritingError
from repro.rewriting import rewrite
from repro.tsl import parse_query, print_query
from repro.workloads import condition_view, k_conditions_query
from tests.rewriting.step1a import view_atoms


@pytest.fixture
def k2():
    return k_conditions_query(2)


@pytest.fixture
def two_views():
    return {"V1": condition_view(1), "V2": condition_view(2)}


class TestBasics:
    def test_total_rewriting_with_per_condition_views(self, k2, two_views):
        result = rewrite(k2, two_views, total_only=True)
        assert len(result.rewritings) >= 1
        best = result.rewritings[0]
        assert best.views_used == {"V1", "V2"}
        assert all(c.source in two_views for c in best.query.body)

    def test_partial_rewriting_mixes_sources(self, k2):
        views = {"V1": condition_view(1)}
        result = rewrite(k2, views)
        assert len(result.rewritings) >= 1
        sources = {c.source for c in result.rewritings[0].query.body}
        assert sources == {"V1", "db"}

    def test_no_relevant_view(self, k2):
        views = {"V9": condition_view(9)}
        result = rewrite(k2, views)
        assert result.rewritings == []
        assert result.stats.mappings == 0

    def test_views_as_sequence(self, k2):
        result = rewrite(k2, [condition_view(1), condition_view(2)])
        assert len(result.rewritings) >= 1

    def test_duplicate_view_names_rejected(self, k2):
        view = condition_view(1)
        with pytest.raises(RewritingError, match="duplicate"):
            rewrite(k2, [view, view])

    def test_head_preserved(self, k2, two_views):
        for rewriting in rewrite(k2, two_views):
            assert rewriting.query.head == k2.head

    def test_composition_evidence_attached(self, k2, two_views):
        [first, *_] = rewrite(k2, two_views).rewritings
        assert first.composition
        for rule in first.composition:
            assert all(c.source == "db" for c in rule.body)

    def test_contradictory_query_raises(self):
        q = parse_query("<f(P) x 1> :- <P a 1>@db AND <P a 2>@db")
        with pytest.raises(ChaseContradictionError):
            rewrite(q, {"V1": condition_view(1)})


class TestHeuristic:
    def test_heuristic_preserves_rewriting_set(self, k2, two_views):
        fast = rewrite(k2, two_views, heuristic=True)
        slow = rewrite(k2, two_views, heuristic=False)
        assert {print_query(r.query) for r in fast.rewritings} == \
            {print_query(r.query) for r in slow.rewritings}

    def test_heuristic_prunes_candidates(self):
        # The head binds only condition 1's variables, so non-covering
        # candidates are safe -- only the heuristic can skip them before
        # the expensive equivalence test.
        q = parse_query("<f(P1) x V1> :- <P1 c1 V1>@db AND "
                        "<P2 c2 V2>@db AND <P3 c3 V3>@db")
        views = {f"V{i}": condition_view(i) for i in (1, 2, 3)}
        fast = rewrite(q, views, heuristic=True)
        slow = rewrite(q, views, heuristic=False)
        assert fast.stats.candidates_tested < slow.stats.candidates_tested
        assert fast.stats.candidates_pruned_by_heuristic > 0

    def test_heuristic_equals_exhaustive_on_partial_head(self):
        q = parse_query("<f(P1) x V1> :- <P1 c1 V1>@db AND "
                        "<P2 c2 V2>@db")
        views = {f"V{i}": condition_view(i) for i in (1, 2)}
        fast = {print_query(r.query) for r in rewrite(q, views).rewritings}
        slow = {print_query(r.query)
                for r in rewrite(q, views, heuristic=False).rewritings}
        assert fast == slow


class TestControls:
    def test_first_only_stops_early(self, k2, two_views):
        result = rewrite(k2, two_views, first_only=True)
        assert len(result.rewritings) == 1

    def test_max_candidates_cap(self, k2, two_views):
        result = rewrite(k2, two_views, max_candidates=1)
        assert result.stats.candidates_tested <= 1

    def test_prune_subsumed(self, k2, two_views):
        pruned = rewrite(k2, two_views, prune_subsumed=True)
        unpruned = rewrite(k2, two_views, prune_subsumed=False)
        assert len(pruned.rewritings) <= len(unpruned.rewritings)
        # Every unpruned rewriting extends some pruned one ("trivial"
        # rewritings are suppressed, as the Results paragraph promises).
        pruned_bodies = [frozenset(r.query.body)
                         for r in pruned.rewritings]
        for rewriting in unpruned.rewritings:
            body = frozenset(rewriting.query.body)
            assert any(small <= body for small in pruned_bodies)

    def test_total_only_excludes_db_conditions(self, k2, two_views):
        result = rewrite(k2, two_views, total_only=True)
        for rewriting in result.rewritings:
            assert all(c.source != "db" for c in rewriting.query.body)


class TestStats:
    def test_stats_populated(self, k2, two_views):
        stats = rewrite(k2, two_views).stats
        assert stats.mappings == 2
        assert stats.candidates_enumerated > 0
        assert stats.candidates_tested > 0
        assert stats.rewritings == len(rewrite(k2, two_views).rewritings)

    def test_result_len_and_iter(self, k2, two_views):
        result = rewrite(k2, two_views)
        assert len(result) == len(list(result))
        assert result.queries == [r.query for r in result.rewritings]


class TestViewInstantiations:
    def test_atoms_carry_coverage(self, k2, two_views):
        atoms, _stats = view_atoms(k2, two_views)
        assert len(atoms) == 2
        assert {frozenset(a.covers) for a in atoms} == \
            {frozenset([0]), frozenset([1])}
        assert all(a.is_view for a in atoms)


#: A view whose body contradicts the oid key dependency (P is both a
#: set and the atom 3), beside a usable one.
UNSATISFIABLE_VIEWS = {
    "Bad": "<g(P) out Y> :- <P person {<N name Y>}>@db AND <P person 3>@db",
    "Good": "<h(P) person Y> :- <P person Y>@db",
}
PERSON_QUERY = "<f(P) person Y> :- <P person Y>@db"


class TestUnsatisfiableView:
    """A view empty on every database is skipped, not fatal."""

    def test_search_returns_the_usable_views_rewriting(self):
        from repro.rewriting import Explanation
        views = {name: parse_query(text, name=name)
                 for name, text in UNSATISFIABLE_VIEWS.items()}
        explain = Explanation()
        result = rewrite(parse_query(PERSON_QUERY), views, explain=explain)
        assert [str(r) for r in result] == [
            "<f(P) person Y> :- <h(P) person Y>@Good"]
        [refuted] = [m for m in explain.mappings if m.view == "Bad"]
        assert not refuted.found
        assert refuted.obstacle.startswith("the view body is unsatisfiable")
        assert "atomic" in refuted.obstacle


class TestBoundK:
    """Lemma 5.2: at most k view heads are needed."""

    def test_candidate_size_bounded_by_k(self, two_views):
        q = k_conditions_query(2)
        for rewriting in rewrite(q, two_views, prune_subsumed=False):
            assert len(rewriting.query.body) <= 2


class TestMultiSource:
    def test_rewriting_respects_sources(self):
        query = parse_query(
            "<f(P,Q) pair 1> :- <P a V>@s1 AND <Q b W>@s2")
        views = {
            "VA": parse_query("<va(P) row V> :- <P a V>@s1", name="VA"),
            "VB": parse_query("<vb(Q) row W> :- <Q b W>@s2", name="VB"),
        }
        result = rewrite(query, views, total_only=True)
        assert result.rewritings
        best = result.rewritings[0]
        assert best.views_used == {"VA", "VB"}

    def test_wrong_source_view_is_irrelevant(self):
        query = parse_query("<f(P) x V> :- <P a V>@s1")
        views = {"V": parse_query("<v(P) row V> :- <P a V>@s2", name="V")}
        assert rewrite(query, views).rewritings == []

    def test_multi_source_rewriting_is_sound(self):
        from repro.oem import build_database, identical, obj
        from repro.tsl import evaluate
        s1 = build_database("s1", [obj("a", "u", oid="x1")])
        s2 = build_database("s2", [obj("b", "u", oid="y1"),
                                   obj("b", "w", oid="y2")])
        query = parse_query(
            "<f(P,Q) pair 1> :- <P a V>@s1 AND <Q b V>@s2")
        views = {
            "VA": parse_query("<va(P) row V> :- <P a V>@s1", name="VA"),
            "VB": parse_query("<vb(Q) row W> :- <Q b W>@s2", name="VB"),
        }
        result = rewrite(query, views, total_only=True)
        assert result.rewritings
        sources = {"s1": s1, "s2": s2,
                   "VA": evaluate(views["VA"], s1, answer_name="VA"),
                   "VB": evaluate(views["VB"], s2, answer_name="VB")}
        direct = evaluate(query, {"s1": s1, "s2": s2})
        for rewriting in result.rewritings:
            assert identical(direct, evaluate(rewriting.query, sources))
