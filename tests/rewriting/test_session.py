"""Tests for memoized rewrite sessions (prepared views + memo tables)."""

import importlib
import json

import pytest

from repro.errors import ChaseContradictionError
from repro.obs import MetricsRegistry
from repro.rewriting import (Explanation, MemoTable, RewriteSession, chase,
                             paper_dtd, query_key, rewrite)
from repro.oracle.gen import PROFILES, generate_case
from repro.rewriting.session import _MISS, DEFAULT_MEMO_SIZE
from repro.tsl import parse_query, print_query
from repro.workloads import (condition_view, conference_view,
                             k_conditions_query, query_q3, query_q5,
                             sigmod_97_query, view_v1)


def fingerprint(result):
    return {(query_key(r.query), tuple(sorted(r.views_used)))
            for r in result.rewritings}


@pytest.fixture
def views():
    return {"V1": condition_view(1), "V2": condition_view(2)}


class TestMemoTable:
    def test_get_put_and_accounting(self):
        table = MemoTable("t", capacity=8)
        assert table.get("a") is _MISS
        table.put("a", 1)
        assert table.get("a") == 1
        assert (table.hits, table.misses) == (1, 1)

    def test_lru_eviction(self):
        table = MemoTable("t", capacity=2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")          # refresh a; b is now LRU
        table.put("c", 3)
        assert table.peek("b") is _MISS
        assert table.peek("a") == 1
        assert table.evictions == 1

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        table = MemoTable("probe", capacity=1, metrics=metrics)
        table.get("a")
        table.put("a", 1)
        table.get("a")
        table.put("b", 2)       # evicts a
        counters = metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.evictions"] == 1
        assert counters["cache.probe.hits"] == 1

    def test_zero_capacity_never_stores_or_hits(self):
        # Capacity 0 is the one-shot run's table: lookups still count
        # as misses, but nothing is stored, evicted or served.
        table = MemoTable("t", capacity=0)
        for _ in range(2):
            table.put("a", 1)
            assert table.get("a") is _MISS
        assert len(table) == 0
        assert table.stats() == {"size": 0, "capacity": 0, "hits": 0,
                                 "misses": 2, "evictions": 0}

    def test_stats_shape(self):
        table = MemoTable("t", capacity=4)
        table.put("a", 1)
        assert table.stats() == {"size": 1, "capacity": 4, "hits": 0,
                                 "misses": 0, "evictions": 0}


class TestSessionChase:
    def test_matches_plain_chase(self, views):
        session = RewriteSession(views)
        q = sigmod_97_query()
        assert session.chase(q) == chase(q)

    def test_second_call_hits(self, views):
        session = RewriteSession(views)
        q = sigmod_97_query()
        first = session.chase(q)
        second = session.chase(q)
        assert first == second
        assert session.stats()["chase"]["hits"] == 1

    def test_alias_is_chased_afresh(self, views):
        session = RewriteSession(views)
        q = sigmod_97_query()
        renamed = q.rename_apart("alias")
        session.chase(q)
        served = session.chase(renamed)
        # An alpha-variant is its own entry: chased afresh, in its own
        # variables and conjunct order, then served from the memo.
        assert session.stats()["chase"]["hits"] == 0
        assert str(served) == str(chase(renamed))
        assert session.chase(renamed) is served
        assert session.stats()["chase"]["hits"] == 1

    def test_compositions_print_alike_on_both_session_kinds(self):
        # conjunctive/1 chases alpha-variant composition rules; a memo
        # that served one variant's chase to the other printed their
        # conjuncts in the first caller's order.
        case = generate_case(1, PROFILES["conjunctive"])
        printed = []
        for memo_size in (0, DEFAULT_MEMO_SIZE):
            session = RewriteSession(case.views, memo_size=memo_size)
            printed.append([
                [print_query(rule) for rule in rewriting.composition]
                for heuristic in (True, False)
                for rewriting in session.rewrite(
                    case.query, heuristic=heuristic).rewritings])
        assert printed[0]
        assert printed[0] == printed[1]

    def test_contradiction_is_memoized(self, views):
        session = RewriteSession(views)
        bad = parse_query('<f(X) r X> :- <X a "one">@db AND <X a "two">@db')
        for _ in range(2):
            with pytest.raises(ChaseContradictionError):
                session.chase(bad)
        assert session.stats()["chase"]["hits"] == 1

    def test_disabled_session_never_memoizes(self, views):
        # A zero-capacity session: the one a sessionless rewrite() uses.
        session = RewriteSession(views, memo_size=0)
        q = sigmod_97_query()
        assert session.chase(q) == chase(q)
        session.chase(q)
        stats = session.stats()["chase"]
        assert stats["size"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 2

    def test_zero_capacity_session_counts_misses_only(self, views):
        session = RewriteSession(views, memo_size=0)
        q = k_conditions_query(2)
        for _ in range(2):
            assert fingerprint(session.rewrite(q)) == \
                fingerprint(rewrite(q, views))
        stats = session.stats()
        assert all(table["size"] == 0 and table["hits"] == 0
                   for table in stats.values())
        assert stats["rewrite"]["misses"] == 2
        assert stats["chase"]["misses"] > 0


@pytest.fixture
def chase_calls(monkeypatch):
    """The queries the session hands to the chase, in order."""
    from repro.rewriting import session as session_mod
    calls = []

    def counting(query, *args, **kwargs):
        calls.append(query)
        return chase(query, *args, **kwargs)

    monkeypatch.setattr(session_mod, "chase", counting)
    return calls


class TestChaseCalls:
    def test_one_search_chases_its_query_once(self, chase_calls):
        # Q5's chase infers a label, so a second chase of the chased
        # target would miss any memo; the search must not run one.
        session = RewriteSession({"V1": view_v1()}, paper_dtd(),
                                 memo_size=0)
        result = session.rewrite(query_q5())
        assert len(result) == 1
        target = chase(query_q5(), paper_dtd())
        assert target != query_q5()
        assert target not in chase_calls
        # The query, the view, each candidate and each composition rule.
        assert len(chase_calls) == 1 + 1 + result.stats.candidates_tested \
            + result.stats.composition_rules

    def test_contradictory_view_is_chased_once(self, chase_calls):
        from tests.rewriting.test_rewriter import (PERSON_QUERY,
                                                   UNSATISFIABLE_VIEWS)
        views = {name: parse_query(text, name=name)
                 for name, text in UNSATISFIABLE_VIEWS.items()}
        session = RewriteSession(views)
        for text in (PERSON_QUERY, PERSON_QUERY.replace("Y", "Z"),
                     "<f(P) who Y> :- <P person Y>@db"):
            [found] = session.rewrite(parse_query(text))
            assert found.views_used == {"Good"}
        assert chase_calls.count(views["Bad"]) == 1
        with pytest.raises(ChaseContradictionError):
            session.prepared_view("Bad")
        session.update_views(views)
        with pytest.raises(ChaseContradictionError):
            session.prepared_view("Bad")
        assert chase_calls.count(views["Bad"]) == 2


class TestSessionTables:
    def test_stats_list_two_tables(self, views):
        assert sorted(RewriteSession(views).stats()) == [
            "chase", "rewrite"]


class TestSessionRewrite:
    def test_same_rewritings_as_plain(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        plain = rewrite(q, views)
        assert fingerprint(session.rewrite(q)) == fingerprint(plain)

    def test_warm_result_served_from_memo(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        cold = session.rewrite(q)
        warm = session.rewrite(q)
        assert fingerprint(cold) == fingerprint(warm)
        assert session.stats()["rewrite"]["hits"] == 1

    def test_alpha_variant_recomputed_not_misserved(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        session.rewrite(q)
        renamed = q.rename_apart("v")
        warm = session.rewrite(renamed)
        # The variant is a query of its own, so it runs the search in
        # its own variable space -- and still agrees canonically.
        assert session.stats()["rewrite"]["hits"] == 0
        assert fingerprint(warm) == fingerprint(rewrite(renamed, views))

    def test_each_spelling_keeps_its_entry(self):
        # Alternating two spellings of Q3 on one session: each spelling
        # is searched once and then served, neither evicting the other.
        session = RewriteSession({"V1": view_v1()}, paper_dtd())
        q3 = query_q3()
        renamed = q3.rename_apart("z")
        for _ in range(3):
            for spelling in (q3, renamed):
                assert session.rewrite(spelling).rewritings
        stats = session.stats()["rewrite"]
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 4, 2)

    def test_flags_partition_the_memo(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        session.rewrite(q)
        total = session.rewrite(q, total_only=True)
        assert session.stats()["rewrite"]["hits"] == 0
        assert all(set(r.query.sources()) <= set(views)
                   for r in total.rewritings)

    def test_prepared_views_chased_once(self, views):
        session = RewriteSession(views)
        v1 = session.prepared_view("V1")
        assert session.prepared_view("V1") is v1

    def test_disabled_session_chases_each_view_once(self, monkeypatch):
        # The signature index and Step 1A share each prepared view, so
        # one sessionless rewrite (on its zero-capacity session) chases
        # every view once, pruned or not.
        session_mod = importlib.import_module("repro.rewriting.session")
        views = {"V1": view_v1(), "VC": conference_view("sigmod", "VC")}
        chased = []
        real_chase = session_mod.chase

        def counting_chase(query, *args, **kwargs):
            chased.extend(name for name, view in views.items()
                          if view is query)
            return real_chase(query, *args, **kwargs)

        monkeypatch.setattr(session_mod, "chase", counting_chase)
        result = rewrite(query_q3(), views)
        assert result.rewritings
        assert result.stats.views_pruned_signature == 1
        assert sorted(chased) == ["V1", "VC"]

    def test_update_views_keeps_chase_memo(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        session.rewrite(q)
        before = session.stats()["chase"]["size"]
        assert before > 0
        session.update_views(views)
        assert session.stats()["chase"]["size"] == before
        assert session.stats()["rewrite"]["size"] == 0
        warm = session.rewrite(q)
        assert fingerprint(warm) == fingerprint(rewrite(q, views))


class TestTruncatedResults:
    def test_truncated_result_not_stored(self, views):
        session = RewriteSession(views)
        q = k_conditions_query(2)
        truncated = session.rewrite(q, max_candidates=0)
        assert truncated.truncated
        assert session.stats()["rewrite"]["size"] == 0

    def test_rerun_after_truncation_matches_a_fresh_session(self, views):
        # The truncated run stores no result, so the unbudgeted re-run
        # searches again on the warm chase memo; nothing it reports may
        # differ from a cold session's search.
        q = k_conditions_query(2)
        session = RewriteSession(views)
        assert session.rewrite(q, max_candidates=1).truncated
        warm_log, cold_log = Explanation(), Explanation()
        warm = session.rewrite(q, explain=warm_log)
        cold = RewriteSession(views).rewrite(q, explain=cold_log)
        assert not warm.truncated
        assert [str(r) for r in warm] == [str(r) for r in cold]
        assert warm.stats == cold.stats
        assert json.dumps(warm_log.to_json()) == \
            json.dumps(cold_log.to_json())
