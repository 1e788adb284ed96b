"""Session-memo persistence: warm restarts serve memo hits."""

import json

from repro.rewriting.canon import query_key
from repro.rewriting.constraints import paper_dtd
from repro.rewriting.equivalence import minimize, programs_equivalent
from repro.rewriting.rewriter import SearchFlags
from repro.rewriting.session import RewriteSession
from repro.storage import SessionRegistry, StorageLayout
from repro.tsl.parser import parse_query
from repro.tsl.serialize import query_from_json
from repro.workloads import (conference_query, conference_view, query_q3,
                             query_q5, query_q7, view_v1)
from repro.workloads.biblio import CONFERENCES


def fingerprint(result) -> set:
    return {(query_key(r.query), tuple(sorted(r.views_used)))
            for r in result.rewritings}


def warmed_session():
    session = RewriteSession({"V1": view_v1()}, None)
    outcome = session.rewrite(query_q3())
    assert outcome.rewritings
    return session, outcome


class TestRoundTrip:
    def test_reloaded_session_serves_a_memo_hit(self, tmp_path):
        session, outcome = warmed_session()
        registry = SessionRegistry(StorageLayout(tmp_path))
        saved = registry.save("cfg", session, store_version=4)
        assert saved["entries"] == 1
        fresh = RewriteSession({"V1": view_v1()}, None)
        loaded = registry.load_into("cfg", fresh, store_version=4)
        assert loaded == {"entries": 1, "dropped": 0}
        (_query, flags), _value = session.result_entries()[0]
        value = fresh.lookup_result(query_q3(), flags)
        assert value is not None
        warm, explanation = value
        assert fingerprint(warm) == fingerprint(outcome)
        # Compositions travel too -- they are what EXPLAIN/evaluation
        # downstream consume.
        assert all(r.composition for r in warm.rewritings)
        # The decision log does not persist; explain lookups recompute.
        assert explanation is None

    def test_plain_list_flags_hit_under_search_flags(self, tmp_path):
        # Documents store the flags as a positional JSON list; a session
        # keyed by SearchFlags serves them as memo hits.
        session, outcome = warmed_session()
        layout = StorageLayout(tmp_path)
        SessionRegistry(layout).save("cfg", session, store_version=0)
        path = layout.session_path("cfg")
        document = json.loads(path.read_text(encoding="utf-8"))
        [record] = document["entries"]
        assert record["flags"] == [True, False, True, False, None]
        fresh = RewriteSession({"V1": view_v1()}, None)
        SessionRegistry(layout).load_into("cfg", fresh, store_version=0)
        assert fresh.peek_result(query_q3(), SearchFlags()) is not None
        warm = fresh.rewrite(query_q3())
        assert fresh.stats()["rewrite"]["hits"] == 1
        assert fingerprint(warm) == fingerprint(outcome)

    def test_reload_preserves_the_exact_match_guard(self, tmp_path):
        # The memo keys by the query itself, and the document's key is
        # only its sort order.  A reloaded entry must behave like the
        # stored one: the exact spelling hits, an alpha-variant spelling
        # is a query of its own, a miss that recomputes.
        session, _outcome = warmed_session()
        registry = SessionRegistry(StorageLayout(tmp_path))
        registry.save("cfg", session, store_version=0)
        fresh = RewriteSession({"V1": view_v1()}, None)
        registry.load_into("cfg", fresh, store_version=0)
        (_query, flags), _value = session.result_entries()[0]
        renamed = parse_query(
            "<f(PP) stanford yes> :- <PP p {<XX YY leland>}>@db")
        assert query_key(renamed) == query_key(query_q3())
        assert fresh.lookup_result(query_q3(), flags) is not None
        assert fresh.lookup_result(renamed, flags) is None

    def test_each_spelling_round_trips(self, tmp_path):
        # Two spellings share a canonical key but not a memo entry; the
        # document orders them by the query's JSON and reloads both.
        session, _outcome = warmed_session()
        renamed = query_q3().rename_apart("z")
        session.rewrite(renamed)
        layout = StorageLayout(tmp_path)
        assert SessionRegistry(layout).save("cfg", session,
                                            store_version=0)["entries"] == 2
        document = json.loads(layout.session_path("cfg").read_text(
            encoding="utf-8"))
        records = document["entries"]
        assert records[0]["key"] == records[1]["key"]
        assert records == sorted(records,
                                 key=lambda r: json.dumps(r["query"]))
        fresh = RewriteSession({"V1": view_v1()}, None)
        SessionRegistry(layout).load_into("cfg", fresh, store_version=0)
        for spelling in (query_q3(), renamed):
            assert fresh.lookup_result(spelling, SearchFlags()) is not None


class TestDiscards:
    def test_different_store_version_discards_wholesale(self, tmp_path):
        session, _outcome = warmed_session()
        registry = SessionRegistry(StorageLayout(tmp_path))
        registry.save("cfg", session, store_version=4)
        fresh = RewriteSession({"V1": view_v1()}, None)
        loaded = registry.load_into("cfg", fresh, store_version=5)
        assert loaded == {"entries": 0, "dropped": 1}

    def test_none_store_version_skips_the_check(self, tmp_path):
        session, _outcome = warmed_session()
        registry = SessionRegistry(StorageLayout(tmp_path))
        registry.save("cfg", session, store_version=4)
        fresh = RewriteSession({"V1": view_v1()}, None)
        assert registry.load_into("cfg", fresh)["entries"] == 1

    def test_missing_or_corrupt_document_is_silent(self, tmp_path):
        layout = StorageLayout(tmp_path)
        registry = SessionRegistry(layout)
        fresh = RewriteSession({"V1": view_v1()}, None)
        assert registry.load_into("absent", fresh) \
            == {"entries": 0, "dropped": 0}
        layout.sessions_dir.mkdir(parents=True)
        layout.session_path("bad").write_text("{nope")
        assert registry.load_into("bad", fresh) \
            == {"entries": 0, "dropped": 0}

    def test_config_key_mismatch_is_discarded(self, tmp_path):
        session, _outcome = warmed_session()
        layout = StorageLayout(tmp_path)
        registry = SessionRegistry(layout)
        registry.save("cfg", session, store_version=0)
        # A document renamed onto another config key must not warm it.
        document = layout.session_path("cfg").read_text()
        layout.session_path("other").write_text(document)
        fresh = RewriteSession({"V1": view_v1()}, None)
        assert registry.load_into("other", fresh, store_version=0) \
            == {"entries": 0, "dropped": 0}


class TestStats:
    def test_stats_count_entries_per_config(self, tmp_path):
        session, _outcome = warmed_session()
        registry = SessionRegistry(StorageLayout(tmp_path))
        assert registry.stats() == {"sessions": 0, "entries": {}}
        registry.save("cfg-a", session, store_version=0)
        registry.save("cfg-b", session, store_version=0)
        stats = registry.stats()
        assert stats["sessions"] == 2
        assert stats["entries"] == {"cfg-a": 1, "cfg-b": 1}

    def test_document_shape_is_schema_versioned(self, tmp_path):
        session, _outcome = warmed_session()
        layout = StorageLayout(tmp_path)
        SessionRegistry(layout).save("cfg", session, store_version=7)
        document = json.loads(layout.session_path("cfg").read_text())
        assert document["kind"] == "repro-session-memo"
        assert document["schema_version"] == 1
        assert document["store_version"] == 7
        assert document["config_key"] == "cfg"


#: Bytes the registry wrote for the two sessions of
#: ``warm_serve_sessions`` when Step 2 itself stored minimized
#: compositions.  Unminimized, the same document is ~3x larger in its
#: composition rules.
MINIMIZED_DOCUMENT_BYTES = 149_137


def warm_serve_sessions():
    """The 10 warm serve families: the paper's Q3/Q5/Q7 over (V1) under
    its DTD, and one year filter per conference over the per-conference
    statements."""
    people = RewriteSession({"V1": view_v1()}, paper_dtd())
    for query in (query_q3(), query_q5(), query_q7()):
        assert people.rewrite(query).rewritings
    biblio = RewriteSession({f"V{c}": conference_view(c, f"V{c}")
                             for c in CONFERENCES})
    for conference in CONFERENCES:
        assert biblio.rewrite(conference_query(conference, 4321)) \
            .rewritings
    return {"people": people, "biblio": biblio}


class TestCompactCompositions:
    def test_saved_compositions_are_cores_and_no_larger(self, tmp_path):
        sessions = warm_serve_sessions()
        layout = StorageLayout(tmp_path)
        registry = SessionRegistry(layout)
        written = sum(registry.save(name, session, store_version=0)
                      ["bytes"] for name, session in sessions.items())
        assert written <= MINIMIZED_DOCUMENT_BYTES
        for name in sessions:
            document = json.loads(layout.session_path(name).read_text())
            for entry in document["entries"]:
                for rewriting in entry["rewritings"]:
                    for record in rewriting["composition"]:
                        rule = query_from_json(record)
                        assert len(minimize(rule).body) == len(rule.body)

    def test_reloaded_fingerprints_are_unchanged(self, tmp_path):
        sessions = warm_serve_sessions()
        registry = SessionRegistry(StorageLayout(tmp_path))
        for name, session in sessions.items():
            registry.save(name, session, store_version=0)
            fresh = RewriteSession(session.views, session.constraints)
            registry.load_into(name, fresh, store_version=0)
            for (query, flags), (outcome, _e) in \
                    session.result_entries():
                warm, _explanation = fresh.lookup_result(query, flags)
                assert fingerprint(warm) == fingerprint(outcome)
                for reloaded, original in zip(warm.rewritings,
                                              outcome.rewritings):
                    assert programs_equivalent(
                        reloaded.composition, original.composition,
                        session.constraints)
