"""Tests for the repository facade, materialized views, and store."""

import importlib

import pytest

from repro.errors import RepositoryError
from repro.obs import MetricsRegistry
from repro.oem import identical
from repro.repository import Repository, Store, ViewManager
from repro.tsl import evaluate, parse_query
from repro.workloads import (conference_query, conference_view,
                             generate_bibliography, sigmod_97_query)


@pytest.fixture
def repo(biblio_db):
    return Repository.from_database(biblio_db)


class TestStore:
    def test_version_bumps_on_update(self):
        store = Store("db")
        v0 = store.version
        store.add_atomic("x", "a", 1)
        assert store.version == v0 + 1
        store.add_root("x")
        assert store.version == v0 + 2

    def test_wrap_existing(self, biblio_db):
        store = Store.wrap(biblio_db)
        assert store.db is biblio_db
        assert store.version == 0


class TestViewManager:
    def test_define_materializes(self, repo):
        view = repo.define_view("sigmod",
                                conference_view("sigmod", "sigmod"))
        assert view.data.stats()["objects"] > 0
        assert repo.views.is_fresh("sigmod")

    def test_duplicate_name_rejected(self, repo):
        repo.define_view("v", conference_view("sigmod", "v"))
        with pytest.raises(RepositoryError, match="already"):
            repo.define_view("v", conference_view("vldb", "v"))

    def test_foreign_source_rejected(self, repo):
        with pytest.raises(RepositoryError, match="sources"):
            repo.define_view("v", "<v(P) x V> :- <P a V>@elsewhere")

    def test_refresh_after_update(self, repo):
        repo.define_view("sigmod", conference_view("sigmod", "sigmod"))
        before = repo.views.views["sigmod"].data.stats()["objects"]
        pub = repo.store.add_set("newpub", "pub")
        repo.store.add_child(pub, repo.store.add_atomic(
            "newbt", "booktitle", "sigmod"))
        repo.store.add_child(pub, repo.store.add_atomic(
            "newy", "year", 1998))
        repo.store.add_root(pub)
        assert not repo.views.is_fresh("sigmod")
        refreshed = repo.views.refresh("sigmod")
        assert refreshed.data.stats()["objects"] > before
        assert repo.views.is_fresh("sigmod")

    def test_drop(self, repo):
        repo.define_view("v", conference_view("sigmod", "v"))
        repo.views.drop("v")
        with pytest.raises(RepositoryError):
            repo.views.refresh("v")


class TestAnswering:
    def test_views_path(self, repo, biblio_db):
        repo.define_view("sigmod", conference_view("sigmod", "sigmod"))
        report = repo.query_with_report(sigmod_97_query())
        assert report.method == "views"
        assert identical(report.answer,
                         evaluate(sigmod_97_query(), biblio_db))
        assert report.rewriting is not None

    def test_registry_records_the_cache_rewrites(self, biblio_db):
        # The query cache's session holds the repository's registry, so
        # the rewrite runs it makes are counted and timed there.
        registry = MetricsRegistry()
        repo = Repository.from_database(biblio_db, metrics=registry)
        repo.query(conference_query("sigmod"), use_views=False)
        report = repo.query_with_report(sigmod_97_query(), use_views=False)
        assert report.method == "cache"
        snapshot = registry.snapshot()
        assert snapshot["counters"]["rewrite.runs"] >= 1
        assert "phase.seconds{phase=rewrite}" in snapshot["histograms"]

    def test_registry_records_the_views_rewrites(self, biblio_db):
        # The view manager's session holds the registry too.
        registry = MetricsRegistry()
        repo = Repository.from_database(biblio_db, metrics=registry)
        repo.define_view("sigmod", conference_view("sigmod", "sigmod"))
        report = repo.query_with_report(sigmod_97_query())
        assert report.method == "views"
        snapshot = registry.snapshot()
        assert snapshot["counters"]["rewrite.runs"] == 1
        assert "phase.seconds{phase=rewrite}" in snapshot["histograms"]

    def test_direct_then_cache(self, repo):
        query = conference_query("vldb", 1998)
        first = repo.query_with_report(query, use_views=False)
        assert first.method == "direct"
        second = repo.query_with_report(query, use_views=False)
        assert second.method == "cache"
        assert identical(first.answer, second.answer)

    def test_cache_rewriting_narrower_query(self, repo, biblio_db):
        """The Section 1 story: SIGMOD 97 answered from cached SIGMOD."""
        broad = conference_query("sigmod")
        repo.query(broad, use_views=False)          # populate cache
        narrow = sigmod_97_query()
        report = repo.query_with_report(narrow, use_views=False)
        assert report.method == "cache"
        assert identical(report.answer, evaluate(narrow, biblio_db))

    def test_cache_skipped_when_stale(self, repo):
        query = conference_query("icde")
        repo.query(query, use_views=False)
        repo.store.add_root(repo.store.add_atomic("zz", "noise", 1))
        report = repo.query_with_report(query, use_views=False)
        assert report.method == "direct"

    def test_use_cache_false(self, repo):
        query = conference_query("icde")
        repo.query(query, use_views=False)
        report = repo.query_with_report(query, use_views=False,
                                        use_cache=False)
        assert report.method == "direct"

    def test_string_queries_accepted(self, repo):
        report = repo.query_with_report(
            "<f(P) hit 1> :- <P pub {<B booktitle sigmod>}>@db")
        assert report.method in ("direct", "cache", "views")


class TestViewSession:
    """The view path rewrites on one session over the definitions."""

    def test_each_view_is_chased_once_across_queries(self, repo,
                                                     biblio_db,
                                                     monkeypatch):
        session_mod = importlib.import_module("repro.rewriting.session")
        view = conference_view("sigmod", "sigmod")
        repo.define_view("sigmod", view)
        chased = []
        real_chase = session_mod.chase

        def counting_chase(query, *args, **kwargs):
            if query is view:
                chased.append(query)
            return real_chase(query, *args, **kwargs)

        monkeypatch.setattr(session_mod, "chase", counting_chase)
        years = (1995, 1996, 1997, 1998)
        for year in years:
            query = conference_query("sigmod", year)
            report = repo.query_with_report(query, use_cache=False)
            assert report.method == "views"
            assert identical(report.answer, evaluate(query, biblio_db))
        assert len(chased) == 1

    def test_defined_view_is_used_on_the_next_query(self, repo,
                                                    biblio_db):
        repo.define_view("sigmod", conference_view("sigmod", "sigmod"))
        query = conference_query("vldb", 1997)
        before = repo.query_with_report(query, use_cache=False)
        assert before.method == "direct"
        repo.define_view("vldb", conference_view("vldb", "vldb"))
        after = repo.query_with_report(query, use_cache=False)
        assert after.method == "views"
        assert after.rewriting.sources() == {"vldb"}
        assert identical(after.answer, evaluate(query, biblio_db))

    def test_dropped_view_is_never_used(self, repo, biblio_db):
        repo.define_view("sigmod", conference_view("sigmod", "sigmod"))
        repo.define_view("vldb", conference_view("vldb", "vldb"))
        query = conference_query("vldb", 1997)
        assert repo.query_with_report(query,
                                      use_cache=False).method == "views"
        repo.views.drop("vldb")
        for _ in range(2):
            report = repo.query_with_report(query, use_cache=False)
            assert report.method == "direct"
            assert identical(report.answer, evaluate(query, biblio_db))
        assert "vldb" not in repo.views.session.views


class TestCache:
    def test_stats(self, repo):
        query = conference_query("pods")
        repo.query(query, use_views=False)
        repo.query(query, use_views=False)
        stats = repo.cache.stats
        assert stats.lookups == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_lru_eviction(self, biblio_db):
        repo = Repository.from_database(biblio_db, cache_capacity=2)
        for conf in ("sigmod", "vldb", "pods"):
            repo.query(conference_query(conf), use_views=False)
        assert len(repo.cache) == 2
        assert repo.cache.stats.evictions == 1

    def test_invalidate(self, repo):
        repo.query(conference_query("kdd"), use_views=False)
        repo.cache.invalidate()
        assert len(repo.cache) == 0
        assert repo.cache.stats.invalidations == 1

    def test_entry_hit_counter(self, repo):
        query = conference_query("edbt")
        repo.query(query, use_views=False)
        repo.query(query, use_views=False)
        [entry] = repo.cache.entries.values()
        assert entry.hits == 1
