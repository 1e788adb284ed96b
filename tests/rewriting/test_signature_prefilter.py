"""The label-signature pre-filter: sound pruning, stats, memo plumbing."""

from repro.obs import MetricsRegistry
from repro.rewriting import RewriteSession, paper_dtd, rewrite
from repro.rewriting.canon import query_key
from repro.tsl import parse_query
from repro.workloads import (condition_view, k_conditions_query, query_q3,
                             query_q7, view_v1)
from tests.rewriting.step1a import view_atoms


def fingerprint(result):
    return {(query_key(r.query), tuple(sorted(r.views_used)))
            for r in result.rewritings}


def mixed_views(live=2, dead=5):
    """``live`` views covering q's labels plus ``dead`` label-disjoint ones."""
    views = {}
    for index in range(1, live + 1):
        view = condition_view(index)
        views[view.name] = view
    for index in range(100, 100 + dead):
        view = condition_view(index)
        views[view.name] = view
    return views


class TestPruning:
    def test_dead_views_are_pruned_and_results_identical(self):
        query = k_conditions_query(2)
        views = mixed_views(live=2, dead=5)
        on = rewrite(query, views)
        off = rewrite(query, mixed_views(live=2, dead=0))
        assert fingerprint(on) == fingerprint(off)
        assert on.rewritings
        assert on.stats.views_pruned_signature == 5
        assert off.stats.views_pruned_signature == 0

    def test_live_views_are_never_pruned(self):
        query = k_conditions_query(3)
        views = mixed_views(live=3, dead=0)
        result = rewrite(query, views)
        assert result.stats.views_pruned_signature == 0
        assert result.rewritings

    def test_parity_on_the_paper_workload(self):
        views = {"V1": view_v1()}
        with_dead = dict(views, **mixed_views(live=0, dead=3))
        for query in (query_q3(), query_q7()):
            for constraints in (None, paper_dtd()):
                on = rewrite(query, with_dead, constraints)
                off = rewrite(query, views, constraints)
                assert fingerprint(on) == fingerprint(off)
                assert on.stats.views_pruned_signature == 3

    def test_one_shot_session_index_is_consulted(self):
        # Without a session, Step 1A prunes through the index of the
        # one-shot session it prepares the views on.
        atoms, stats = view_atoms(k_conditions_query(1),
                                  mixed_views(live=1, dead=3))
        assert stats.views_pruned_signature == 3
        assert {a.view for a in atoms if a.view} == {"V1"}


class TestMetrics:
    def test_pruned_counter_is_emitted(self):
        registry = MetricsRegistry()
        session = RewriteSession(mixed_views(live=2, dead=5),
                                 metrics=registry)
        session.rewrite(k_conditions_query(2))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["rewrite.pruned.signature"] == 5


class TestSessionPlumbing:
    def test_signature_index_is_cached_and_invalidated(self):
        session = RewriteSession(mixed_views())
        index = session.signature_index()
        assert session.signature_index() is index
        session.update_views({"V1": condition_view(1)})
        rebuilt = session.signature_index()
        assert rebuilt is not index
        assert len(rebuilt) == 1

    def test_session_index_prunes_step_1a(self):
        session = RewriteSession(mixed_views(live=2, dead=5))
        atoms, stats = view_atoms(k_conditions_query(2), session=session)
        assert stats.views_pruned_signature == 5
        assert {a.view for a in atoms} == {"V1", "V2"}

    def test_disabled_session_still_prunes(self):
        query = k_conditions_query(2)
        session = RewriteSession(mixed_views(live=2, dead=5),
                                 memo_size=0)
        result = session.rewrite(query)
        assert result.stats.views_pruned_signature == 5
        assert fingerprint(result) == fingerprint(
            rewrite(query, mixed_views(live=2, dead=5)))


class TestExplainParity:
    def test_prefilter_does_not_change_the_rewriting_set_in_explain(self):
        from repro.rewriting import Explanation
        query = parse_query("<f(P) ans V> :- <P c1 V>@db")
        views = mixed_views(live=1, dead=4)
        on, off = Explanation(), Explanation()
        r_on = rewrite(query, views, explain=on)
        r_off = rewrite(query, mixed_views(live=1, dead=0), explain=off)
        assert fingerprint(r_on) == fingerprint(r_off)
        assert on.rewritings == off.rewritings
        pruned = [m for m in on.mappings
                  if m.verdict == "pruned-signature"]
        assert len(pruned) == 4
        assert all(m.verdict is None for m in off.mappings)
