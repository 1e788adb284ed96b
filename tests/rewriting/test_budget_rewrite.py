"""Budgets, truncation flags, and tracing through the rewriting pipeline.

The adversarial workloads come from :mod:`repro.workloads.querygen`:
``star_query``/``star_view`` with identical labels exhibit the Section
5.1 mapping blowup (``star(4)`` runs for minutes unbudgeted), which is
exactly what the budgets exist to contain.
"""

import pytest

from repro.obs import Budget, MetricsRegistry, Tracer
from repro.rewriting import (RewriteSession, maximally_contained_rewritings,
                             paper_dtd, rewrite)
from repro.rewriting.rewriter import RewriteResult, _Search
from repro.tsl import parse_query
from repro.workloads import (condition_view, k_conditions_query, query_q3,
                             view_v1)
from repro.workloads.querygen import star_query, star_view


def star_workload(branches):
    return star_query(branches), {"V": star_view(branches)}


def midway_steps(query, views):
    """Half the steps of a full run: a step budget that stops the search
    midway however cheap the search becomes."""
    probe = Budget()
    rewrite(query, views, budget=probe)
    return probe.steps // 2


def two_view_workload():
    """One condition, two interchangeable views: two candidates tested."""
    query = parse_query('<f(P) result V> :- <P c V>@db')
    views = {
        "V1": parse_query('<view1(P) row V> :- <P c V>@db', name="V1"),
        "V2": parse_query('<view2(P) row V> :- <P c V>@db', name="V2"),
    }
    return query, views


class TestStepBudget:
    def test_expiry_mid_enumeration_returns_partial_result(self):
        query, views = star_workload(2)
        full = rewrite(query, views)
        assert full.rewritings and not full.truncated

        budget = Budget(max_steps=midway_steps(query, views))
        partial = rewrite(query, views, budget=budget)
        assert partial.truncated is True
        assert partial.stats.truncated is True
        assert partial.stats.stop_reason == "steps"
        assert budget.exceeded
        # Partial results are preserved, never invented.
        assert len(partial.rewritings) < len(full.rewritings)
        full_queries = {str(r.query) for r in full.rewritings}
        assert {str(r.query) for r in partial.rewritings} <= full_queries

    def test_tiny_budget_yields_empty_but_clean_result(self):
        query, views = star_workload(2)
        result = rewrite(query, views, budget=Budget(max_steps=1))
        assert isinstance(result, RewriteResult)
        assert result.truncated is True
        assert result.rewritings == []

    def test_generous_budget_changes_nothing(self):
        result = rewrite(query_q3(), {"V1": view_v1()},
                         budget=Budget(max_steps=10_000_000))
        assert len(result.rewritings) == 1
        assert result.truncated is False
        assert result.stats.stop_reason is None


class TestDeadline:
    def test_expired_deadline_returns_truncated(self):
        clock_values = iter([0.0] + [10.0] * 1_000_000)
        budget = Budget(deadline_ms=50,
                        clock=lambda: next(clock_values))
        query, views = star_workload(2)
        result = rewrite(query, views, budget=budget)
        assert result.truncated is True
        assert result.stats.stop_reason == "deadline"

    def test_real_deadline_terminates_adversarial_search(self):
        # star(3) runs for minutes without a budget; the deadline must
        # stop it almost immediately with a clean partial result.
        query, views = star_workload(3)
        result = rewrite(query, views, budget=Budget(deadline_ms=50))
        assert result.truncated is True
        assert result.stats.stop_reason == "deadline"


class TestMaxCandidatesTruncation:
    def test_sets_truncated_flag(self):
        query, views = two_view_workload()
        full = rewrite(query, views)
        assert full.stats.candidates_tested == 2 and not full.truncated

        result = rewrite(query, views, max_candidates=1)
        assert result.stats.candidates_tested == 1
        assert result.truncated is True
        assert result.stats.stop_reason == "max_candidates"
        assert len(result.rewritings) == 1

    def test_unlimited_run_is_not_truncated(self):
        query, views = two_view_workload()
        assert rewrite(query, views).truncated is False


class TestContainedBudget:
    def test_contained_search_truncates_cleanly(self):
        query = k_conditions_query(3)
        views = {f"V{i}": condition_view(i) for i in (1, 2, 3)}
        outcome = maximally_contained_rewritings(
            query, views, budget=Budget(max_steps=10))
        assert outcome.truncated is True
        assert outcome.stats.stop_reason == "steps"


class TestFailureCounters:
    def test_failed_chase_counted(self):
        target = parse_query('<f(P) ans V> :- <P pub V>@db')
        view = parse_query(
            '<v(P) pub {<c(X) L W>}> :- <P pub {<X L W>}>@db', name="V")
        # Same oid bound to two distinct constants: the chase contradicts.
        candidate = parse_query(
            '<f(P) ans V> :- <P pub V>@V AND <P x "a">@V AND <P y "b">@V')
        search = _Search(RewriteSession({"V": view}))
        assert search.prepare(target)
        accepted, verdict, _, _ = search.test_candidate(candidate)
        assert accepted is None
        assert verdict == "failed-chase"
        assert search.stats.candidates_failed_chase == 1
        assert search.stats.candidates_failed_composition == 0

    def test_failed_composition_counted(self):
        target = parse_query('<f(P) ans V> :- <P pub V>@db')
        view = parse_query(
            '<v(P) pub {<c(X) L W>}> :- <P pub {<X L W>}>@db', name="V")
        # V binds a variable to the set-constructed view value: the one
        # corner compose() rejects with CompositionError.
        candidate = parse_query('<f(P) ans V> :- <P pub V>@V')
        search = _Search(RewriteSession({"V": view}))
        assert search.prepare(target)
        accepted, verdict, _, _ = search.test_candidate(candidate)
        assert accepted is None
        assert verdict == "failed-composition"
        assert search.stats.candidates_failed_composition == 1
        assert search.stats.candidates_failed_chase == 0

    def test_stats_serialize_with_new_fields(self):
        result = rewrite(query_q3(), {"V1": view_v1()})
        stats = result.stats.to_json()
        for key in ("candidates_failed_chase",
                    "candidates_failed_composition", "truncated",
                    "stop_reason"):
            assert key in stats


class TestTracing:
    def test_span_tree_names_every_phase(self):
        tracer = Tracer()
        result = rewrite(query_q3(), {"V1": view_v1()}, tracer=tracer)
        assert len(result.rewritings) == 1
        names = {span.name for span in tracer.spans}
        assert {"rewrite", "prepare", "enumerate_mappings", "candidate",
                "chase", "compose", "equivalence"} <= names
        # Every span closed, with non-negative duration.
        for span in tracer.spans:
            assert span.end is not None
            assert span.duration >= 0
        (root,) = tracer.roots()
        assert root.name == "rewrite"
        assert root.duration > 0
        assert root.counters["rewritings"] == 1

    def test_candidate_spans_nest_pipeline_phases(self):
        tracer = Tracer()
        rewrite(query_q3(), {"V1": view_v1()}, tracer=tracer)
        candidates = [s for s in tracer.spans if s.name == "candidate"]
        assert candidates
        accepted = [s for s in candidates if s.attrs.get("accepted")]
        assert accepted
        child_names = {child.name
                       for span in accepted
                       for child in tracer.children(span)}
        assert {"chase", "compose", "equivalence"} <= child_names

    def test_budget_expiry_still_closes_spans(self):
        tracer = Tracer()
        query, views = star_workload(2)
        budget = Budget(max_steps=midway_steps(query, views))
        result = rewrite(query, views, tracer=tracer, budget=budget)
        assert result.truncated
        (root,) = tracer.roots()
        assert root.attrs.get("truncated") == "steps"
        assert all(span.end is not None for span in tracer.spans)

    def test_metrics_recorded_when_registry_passed(self):
        registry = MetricsRegistry()
        RewriteSession({"V1": view_v1()}, memo_size=0,
                       metrics=registry).rewrite(query_q3())
        counters = registry.snapshot()["counters"]
        assert counters["rewrite.runs"] == 1
        assert counters["rewrite.rewritings"] == 1
        assert counters["rewrite.candidates_tested"] >= 1

    def test_phase_seconds_agree_with_the_run_spans(self):
        # phase.seconds is read from the spans the run opened -- only
        # those: the span already open on the caller's tracer is not one.
        tracer, registry = Tracer(), MetricsRegistry()
        with tracer.span("request"):
            RewriteSession({"V1": view_v1()}, paper_dtd(), memo_size=0,
                           metrics=registry).rewrite(query_q3(),
                                                     tracer=tracer)
        # Without a tracer the run times itself on a private one.
        untraced = MetricsRegistry()
        RewriteSession({"V1": view_v1()}, paper_dtd(), memo_size=0,
                       metrics=untraced).rewrite(query_q3())
        histograms = registry.snapshot()["histograms"]
        counts = {name: hist["count"] for name, hist
                  in untraced.snapshot()["histograms"].items()}
        for phase in ("rewrite", "chase", "compose", "equivalence"):
            spans = [span for span in tracer.spans if span.name == phase]
            name = f"phase.seconds{{phase={phase}}}"
            assert histograms[name]["count"] == len(spans) > 0
            assert histograms[name]["sum"] == pytest.approx(
                sum(span.duration for span in spans), rel=1e-9)
            assert counts[name] == len(spans)
        assert set(counts) == set(
            name for name in histograms if name.startswith("phase."))

    def test_metrics_recorded_on_truncated_run(self):
        # Regression: stop_reason is a str on truncated runs and must not
        # be fed to Counter.inc (int += str raised TypeError, discarding
        # the partial result).
        registry = MetricsRegistry()
        query, views = star_workload(2)
        budget = Budget(max_steps=midway_steps(query, views))
        result = RewriteSession(views, memo_size=0, metrics=registry) \
            .rewrite(query, budget=budget)
        assert result.truncated is True
        counters = registry.snapshot()["counters"]
        assert counters["rewrite.runs"] == 1
        assert counters["rewrite.truncated_runs"] == 1
        assert counters["rewrite.stopped.steps"] == 1
        assert "rewrite.stop_reason" not in counters
