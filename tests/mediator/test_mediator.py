"""End-to-end tests for the TSIMMIS-style mediator (Figures 1-2, E11)."""

import pytest

from repro.errors import CapabilityError, MediatorError
from repro.mediator import (CapabilityView, CostModel, Mediator, Source,
                            plan_query, translate_to_native)
from repro.oem import build_database, identical, obj
from repro.tsl import evaluate, parse_query


def _biblio_source(name, pubs):
    db = build_database(name, [
        obj("pub", [obj("title", title), obj("conf", conf),
                    obj("year", year)])
        for title, conf, year in pubs
    ])
    return db


@pytest.fixture
def s1():
    """Supports only selections on year (the paper's running example)."""
    db = _biblio_source("s1", [
        ("views", "sigmod", 1997),
        ("cube", "icde", 1997),
        ("old", "sigmod", 1993),
    ])
    capability = CapabilityView.from_text("s1_by_year", """
        <v1(P) pub {<c1(P,L,W) L W>}> :-
            <P pub {<Y year $YEAR>}>@s1 AND <P pub {<X L W>}>@s1
    """)
    return Source("s1", db, [capability])


@pytest.fixture
def s2():
    """Supports only selections on conference."""
    db = _biblio_source("s2", [
        ("mediators", "sigmod", 1997),
        ("warehouse", "vldb", 1997),
    ])
    capability = CapabilityView.from_text("s2_by_conf", """
        <v2(P) pub {<c2(P,L,W) L W>}> :-
            <P pub {<C conf $CONF>}>@s2 AND <P pub {<X L W>}>@s2
    """)
    return Source("s2", db, [capability])


class TestSourceValidation:
    def test_name_mismatch_rejected(self):
        db = _biblio_source("other", [])
        with pytest.raises(MediatorError, match="named"):
            Source("s1", db, [])

    def test_foreign_capability_rejected(self, s1):
        foreign = CapabilityView.from_text(
            "bad", "<v(P) x V> :- <P a V>@elsewhere")
        with pytest.raises(MediatorError, match="other sources"):
            s1.add_capability(foreign)

    def test_capability_named(self, s1):
        assert s1.capability_named("s1_by_year").name == "s1_by_year"
        with pytest.raises(MediatorError):
            s1.capability_named("nope")


class TestCbrScenario:
    """The "SIGMOD 97" decomposition of Section 1."""

    def test_year_pushed_sigmod_filtered_locally(self, s1):
        mediator = Mediator(sources={"s1": s1})
        query = parse_query(
            "<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1 AND "
            "<P pub {<C conf sigmod>}>@s1")
        [plan] = mediator.plan(query)
        # The year selection ships to the source...
        assert "$YEAR=1997" in "".join(plan.capabilities)
        # ... and the SIGMOD filter stays in the mediator-side rewriting.
        assert "sigmod" in str(plan.query)
        answer = mediator.answer(query)
        assert len(answer.roots) == 1

    def test_answer_matches_direct_evaluation(self, s1):
        mediator = Mediator(sources={"s1": s1})
        query = parse_query(
            "<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1 AND "
            "<P pub {<C conf sigmod>}>@s1")
        direct = evaluate(query, s1.db)
        assert identical(direct, mediator.answer(query))

    def test_unanswerable_query(self, s1):
        mediator = Mediator(sources={"s1": s1})
        # No capability selects on title: no parameter binding possible.
        query = parse_query(
            "<f(P) hit yes> :- <P pub {<T title views>}>@s1")
        with pytest.raises(CapabilityError):
            mediator.plan(query)

    def test_explain_mentions_shipping(self, s1):
        mediator = Mediator(sources={"s1": s1})
        text = mediator.explain(
            "<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1")
        assert "ship" in text and "s1" in text

    def test_explain_unanswerable(self, s1):
        mediator = Mediator(sources={"s1": s1})
        text = mediator.explain(
            "<f(P) hit yes> :- <P pub {<T title views>}>@s1")
        assert text.startswith("unanswerable")


class TestMultiSource:
    def test_queries_decompose_per_source(self, s1, s2):
        mediator = Mediator(sources={"s1": s1, "s2": s2})
        query = parse_query(
            "<f(P,Q) pair yes> :- "
            "<P pub {<Y year 1997>}>@s1 AND "
            "<Q pub {<C conf sigmod>}>@s2")
        report = mediator.answer_with_report(query)
        assert report.source_queries == 2
        # 2 pubs from s1 in 1997 x 1 sigmod pub from s2.
        assert len(report.answer.roots) == 2

    def test_wrapper_stats_accumulate(self, s1):
        mediator = Mediator(sources={"s1": s1})
        query = parse_query(
            "<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1")
        mediator.answer(query)
        mediator.answer(query)
        assert mediator.wrappers["s1"].stats.queries_sent == 2


class TestIntegratedViews:
    def test_view_expansion(self, s1):
        mediator = Mediator(sources={"s1": s1})
        mediator.define_view("recent", """
            <rec(P) pub {<rc(P,L,W) L W>}> :-
                <P pub {<Y year 1997>}>@s1 AND <P pub {<X L W>}>@s1
        """)
        query = parse_query(
            "<f(P) hit yes> :- <rec(P) pub {<R1 conf sigmod>}>@recent")
        answer = mediator.answer(query)
        assert len(answer.roots) == 1

    def test_each_spelling_keeps_its_expansion(self, s1):
        # Two spellings of one query: each is memoized under itself, so
        # alternating them never evicts the other's expansion.
        mediator = Mediator(sources={"s1": s1})
        mediator.define_view("recent", """
            <rec(P) pub {<rc(P,L,W) L W>}> :-
                <P pub {<Y year 1997>}>@s1 AND <P pub {<X L W>}>@s1
        """)
        query = parse_query(
            "<f(P) hit yes> :- <rec(P) pub {<R1 conf sigmod>}>@recent")
        renamed = query.rename_apart("z")
        expansions = [mediator.expand(spelling)
                      for _ in range(3) for spelling in (query, renamed)]
        assert expansions == [expansions[0], expansions[1]] * 3
        stats = mediator._expansions.stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 4, 2)

    def test_view_over_unknown_source_rejected(self, s1):
        mediator = Mediator(sources={"s1": s1})
        with pytest.raises(MediatorError, match="unknown sources"):
            mediator.define_view("bad", "<v(P) x V> :- <P a V>@nowhere")

    def test_duplicate_source_rejected(self, s1):
        mediator = Mediator(sources={"s1": s1})
        with pytest.raises(MediatorError, match="duplicate"):
            mediator.add_source(s1)


class TestCostModel:
    def test_selectivity_favors_selective_plans(self):
        model = CostModel()
        selective = parse_query("<v(P) x 1> :- <P a {<X b 7>}>@s")
        broad = parse_query("<v(P) x V> :- <P a {<X b V>}>@s")
        assert model.selectivity(selective) < model.selectivity(broad)

    def test_plan_cost_orders_plans(self, s1):
        plans = plan_query(
            parse_query("<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1"),
            {"s1": s1})
        costs = [plan.estimated_cost for plan in plans]
        assert costs == sorted(costs)

    def test_native_translation_mentions_selection(self, s1):
        plans = plan_query(
            parse_query("<f(P) hit yes> :- <P pub {<Y year 1997>}>@s1"),
            {"s1": s1})
        native = plans[0].native_queries[0]
        assert "year = 1997" in native.program
