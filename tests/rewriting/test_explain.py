"""EXPLAIN provenance: the decision log for the Section 3.4 search."""

import json

import pytest

from repro.oracle.gen import PROFILES, generate_case
from repro.rewriting import (Explanation, RewriteSession, paper_dtd,
                             rewrite)
from repro.tsl import parse_query
from repro.workloads import query_q3, query_q7, view_v1


def explain_rewrite(query, views, constraints=None, **kwargs):
    explanation = Explanation()
    result = rewrite(query, views, constraints, explain=explanation,
                     **kwargs)
    return result, explanation


class TestRunningExample:
    def test_q3_every_candidate_has_a_verdict(self):
        result, explanation = explain_rewrite(query_q3(),
                                              {"V1": view_v1()})
        assert result.rewritings
        assert explanation.candidates
        assert all(c.verdict for c in explanation.candidates)
        assert any(c.verdict == "accepted" for c in explanation.candidates)

    def test_q3_mapping_recorded_with_substitution(self):
        _, explanation = explain_rewrite(query_q3(), {"V1": view_v1()})
        found = [m for m in explanation.mappings if m.found]
        assert found and found[0].view == "V1"
        assert "P' -> P" in found[0].substitution
        assert found[0].covers == (0,)

    def test_accepted_candidate_names_its_views(self):
        _, explanation = explain_rewrite(query_q3(), {"V1": view_v1()})
        accepted = [c for c in explanation.candidates
                    if c.verdict == "accepted"]
        assert accepted and accepted[0].views == ("V1",)


class TestDtdGatedRewriting:
    """Example 3.3/3.5: Q7 over V1 rewrites *because* of the DTD."""

    def test_without_dtd_equivalence_fails_naming_the_component(self):
        result, explanation = explain_rewrite(query_q7(),
                                              {"V1": view_v1()})
        assert not result.rewritings
        failed = [c for c in explanation.candidates
                  if c.verdict == "failed-equivalence"]
        assert failed
        assert "no containment mapping" in failed[0].reason
        detail = dict(failed[0].detail)
        assert detail["component_kind"] in ("top", "member", "object")
        assert "top(" in detail["component"] or \
            "member(" in detail["component"]

    def test_with_dtd_the_same_candidate_is_accepted(self):
        result, explanation = explain_rewrite(query_q7(),
                                              {"V1": view_v1()},
                                              paper_dtd())
        assert result.rewritings
        assert any(c.verdict == "accepted"
                   for c in explanation.candidates)
        assert explanation.constraints is not None


class TestPrunedCandidates:
    def test_heuristic_prune_names_the_uncovered_condition(self):
        query = parse_query('<f(P) ans yes> :- <P a {<X b Y>}>@db AND '
                            '<P a {<X2 c Z>}>@db')
        view = parse_query('<g(P) va {<h(X) b2 Y>}> :- '
                           '<P a {<X b Y>}>@db', name="VA")
        _, explanation = explain_rewrite(query, {"VA": view},
                                         total_only=True)
        pruned = [c for c in explanation.candidates
                  if c.verdict == "pruned-heuristic"]
        assert pruned
        assert "uncovered" in pruned[0].reason
        assert "<P a {<X2 c Z>}>@db" in pruned[0].reason

    def test_refuted_mapping_reports_the_obstacle(self):
        # The view's labels all occur in the query, so the signature
        # pre-filter lets it through; the mapping enumerator itself
        # refutes it and names the first failing label.
        query = parse_query('<f(P) ans yes> :- <P a {<X b Y>}>@db')
        view = parse_query('<g(P) vz {<h(X) z2 Y>}> :- '
                           '<P b {<X a Y>}>@db', name="VZ")
        _, explanation = explain_rewrite(query, {"VZ": view})
        refuted = [m for m in explanation.mappings if not m.found]
        assert refuted and refuted[0].view == "VZ"
        assert refuted[0].verdict is None
        assert "label b" in refuted[0].obstacle

    def test_signature_prefilter_prunes_before_enumeration(self):
        # Same configuration with the pre-filter on (the default): the
        # view is skipped before Step 1A, with the missing labels named.
        query = parse_query('<f(P) ans yes> :- <P a {<X b Y>}>@db')
        view = parse_query('<g(P) vz {<h(X) z2 Y>}> :- '
                           '<P zzz {<X qqq Y>}>@db', name="VZ")
        result, explanation = explain_rewrite(query, {"VZ": view})
        pruned = [m for m in explanation.mappings
                  if m.verdict == "pruned-signature"]
        assert pruned and pruned[0].view == "VZ"
        assert not pruned[0].found
        assert "qqq" in pruned[0].obstacle and "zzz" in pruned[0].obstacle
        assert result.stats.views_pruned_signature == 1
        assert pruned[0].to_json()["verdict"] == "pruned-signature"
        assert "pruned (signature)" in explanation.render_text()


class TestMemoReplay:
    def test_memo_hit_replays_the_identical_explanation(self):
        session = RewriteSession({"V1": view_v1()})
        cold = Explanation()
        session.rewrite(query_q3(), explain=cold)
        warm = Explanation()
        session.rewrite(query_q3(), explain=warm)
        assert cold.memo is None
        assert warm.memo == "hit"
        # Acceptance criterion: the JSON is byte-identical across the
        # memoized and unmemoized runs (memo provenance rides outside).
        assert json.dumps(cold.to_json(), sort_keys=True) == \
            json.dumps(warm.to_json(), sort_keys=True)

    def test_memo_hit_shows_in_text_rendering_only(self):
        session = RewriteSession({"V1": view_v1()})
        session.rewrite(query_q3(), explain=Explanation())
        warm = Explanation()
        session.rewrite(query_q3(), explain=warm)
        assert "memo: hit" in warm.render_text()
        assert "memo" not in json.dumps(warm.to_json())

    def test_entry_stored_without_explanation_is_upgraded(self):
        session = RewriteSession({"V1": view_v1()})
        session.rewrite(query_q3())  # stored with no decision log
        explanation = Explanation()
        session.rewrite(query_q3(), explain=explanation)
        assert explanation.memo is None  # honest miss: recomputed
        warm = Explanation()
        session.rewrite(query_q3(), explain=warm)
        assert warm.memo == "hit"


class TestSerialization:
    def test_json_is_schema_versioned_and_serializable(self):
        _, explanation = explain_rewrite(query_q3(), {"V1": view_v1()})
        payload = explanation.to_json()
        assert payload["schema_version"] == 1
        json.dumps(payload)  # must not raise

    def test_render_text_sections(self):
        _, explanation = explain_rewrite(query_q3(), {"V1": view_v1()})
        text = explanation.render_text()
        assert "step 1A -- containment mappings:" in text
        assert "candidates (" in text
        assert "rewritings (1):" in text


#: The RewriteStats counter of each per-candidate verdict that has one.
VERDICT_COUNTERS = {
    "accepted": "rewritings",
    "pruned-heuristic": "candidates_pruned_by_heuristic",
    "pruned-unsafe": "candidates_pruned_unsafe",
    "pruned-subsumed": "candidates_pruned_subsumed",
    "failed-chase": "candidates_failed_chase",
    "failed-composition": "candidates_failed_composition",
}


class TestAgreesWithStats:
    """The decision log and the counters describe the same search."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generator_cases(self, profile):
        mismatches = []
        for seed in range(60):
            case = generate_case(seed, PROFILES[profile])
            for heuristic in (True, False):
                explanation = Explanation()
                stats = rewrite(case.query, case.views, case.constraints,
                                heuristic=heuristic,
                                explain=explanation).stats
                counts = explanation.verdict_counts()
                found = sum(m.found for m in explanation.mappings)
                pruned = sum(m.verdict == "pruned-signature"
                             for m in explanation.mappings)
                tested = sum(n for verdict, n in counts.items()
                             if verdict == "accepted"
                             or verdict.startswith("failed-"))
                observed = (
                    len(explanation.candidates), found, pruned, tested,
                    *(counts.get(v, 0) for v in VERDICT_COUNTERS))
                expected = (
                    stats.candidates_enumerated, stats.mappings,
                    stats.views_pruned_signature, stats.candidates_tested,
                    *(getattr(stats, c) for c in VERDICT_COUNTERS.values()))
                if observed != expected:
                    mismatches.append((seed, heuristic, observed, expected))
        assert mismatches == []
