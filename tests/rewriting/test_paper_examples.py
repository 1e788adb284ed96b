"""E2: the worked examples of Section 3 run end to end.

Every example is checked two ways: the rewriter's *decision* matches the
paper, and every produced rewriting evaluates *identically* to the
original query when the view is materialized.
"""

import pytest

from repro.oem import identical
from repro.tsl import evaluate, parse_query, print_query
from repro.rewriting import is_rewriting, rewrite


def _verify_semantics(query, rewriting, view, db):
    """A rewriting must produce the same answer via the materialized view."""
    view_data = evaluate(view, db, answer_name=view.name)
    direct = evaluate(query, db)
    via = evaluate(rewriting.query, {"db": db, view.name: view_data})
    assert identical(direct, via)


class TestExample31:
    """(Q3) has the rewriting (Q4) over (V1)."""

    def test_rewriting_found(self, v1, q3):
        result = rewrite(q3, {"V1": v1})
        assert len(result.rewritings) == 1

    def test_rewriting_is_q4(self, v1, q3):
        [rewriting] = rewrite(q3, {"V1": v1}).rewritings
        rendered = print_query(rewriting.query)
        assert "@V1" in rendered
        assert "leland" in rendered
        assert rewriting.query.head == q3.head  # Lemma 5.4
        assert rewriting.views_used == {"V1"}

    def test_rewriting_semantics(self, v1, q3, small_people):
        [rewriting] = rewrite(q3, {"V1": v1}).rewritings
        _verify_semantics(q3, rewriting, v1, small_people)

    def test_hand_written_q4_accepted(self, v1, q3):
        q4 = parse_query(
            "<f(P) stanford yes> :- "
            "<g(P) p {<pp(P,Y) pr Y> <h(X) v leland>}>@V1")
        assert is_rewriting(q4, q3, {"V1": v1})

    def test_single_path_entry_point(self, v1, q3):
        result = rewrite(q3, {"V1": v1}, total_only=True, first_only=True)
        assert len(result.rewritings) == 1


class TestExample32:
    """(Q5) has the set-mapping rewriting (Q6)."""

    def test_rewriting_found(self, v1, q5):
        result = rewrite(q5, {"V1": v1})
        assert len(result.rewritings) == 1

    def test_rewriting_contains_set_pattern(self, v1, q5):
        [rewriting] = rewrite(q5, {"V1": v1}).rewritings
        assert "{<Z last stanford>}" in print_query(rewriting.query)

    def test_rewriting_semantics(self, v1, q5, small_people):
        [rewriting] = rewrite(q5, {"V1": v1}).rewritings
        _verify_semantics(q5, rewriting, v1, small_people)

    def test_hand_written_q6_accepted(self, v1, q5):
        q6 = parse_query(
            "<f(P) stanford yes> :- "
            "<g(P) p {<pp(P,Y) pr Y> "
            "<h(X) v {<Z last stanford>}>}>@V1")
        assert is_rewriting(q6, q5, {"V1": v1})


class TestExample33:
    """(Q7) has NO rewriting over (V1): mappings are not sufficient."""

    def test_no_rewriting(self, v1, q7):
        result = rewrite(q7, {"V1": v1})
        assert len(result.rewritings) == 0

    def test_mapping_exists_but_candidate_rejected(self, v1, q7):
        # The mapping (M6) produces the candidate (Q8), whose composition
        # (Q9) is not equivalent to (Q7).
        result = rewrite(q7, {"V1": v1})
        assert result.stats.mappings >= 1
        assert result.stats.candidates_tested >= 1

    def test_hand_written_q8_rejected(self, v1, q7):
        q8 = parse_query(
            "<f(P) stanford yes> :- "
            "<g(P) p {<pp(P,Y) pr name> "
            "<h(X) v {<Z last stanford>}>}>@V1")
        assert not is_rewriting(q8, q7, {"V1": v1})

    def test_q7_and_q5_differ_semantically(self, q5, q7, small_people):
        # p2's stanford surname hides under "nick": Q5 sees it, Q7 not.
        ans5 = evaluate(q5, small_people)
        ans7 = evaluate(q7, small_people)
        assert len(ans5.roots) == 2
        assert len(ans7.roots) == 1


class TestExample35:
    """With the Section 3.3 DTD, (Q7) becomes rewritable."""

    def test_rewriting_found_with_dtd(self, v1, q7, dtd):
        result = rewrite(q7, {"V1": v1}, constraints=dtd)
        assert len(result.rewritings) == 1

    def test_q8_accepted_with_dtd(self, v1, q7, dtd):
        q8 = parse_query(
            "<f(P) stanford yes> :- "
            "<g(P) p {<pp(P,Y) pr name> "
            "<h(X) v {<Z last stanford>}>}>@V1")
        assert is_rewriting(q8, q7, {"V1": v1}, constraints=dtd)

    def test_semantics_on_dtd_conforming_data(self, v1, q7, dtd,
                                              people_db):
        [rewriting] = rewrite(q7, {"V1": v1}, constraints=dtd).rewritings
        view_data = evaluate(v1, people_db, answer_name="V1")
        direct = evaluate(q7, people_db)
        via = evaluate(rewriting.query,
                       {"db": people_db, "V1": view_data})
        assert identical(direct, via)

    def test_dtd_gain_is_real(self, v1, q7, dtd):
        """E4/ablation: without label inference + FDs there is nothing."""
        without = rewrite(q7, {"V1": v1})
        with_dtd = rewrite(q7, {"V1": v1}, constraints=dtd)
        assert len(without.rewritings) == 0
        assert len(with_dtd.rewritings) == 1
