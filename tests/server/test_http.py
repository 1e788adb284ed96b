"""Wire-surface tests: endpoints, error model, budgets, admission.

Each test drives a real :class:`repro.server.ReproServer` over loopback
HTTP through the :mod:`repro.server.testing` harness -- the same path
``python -m repro serve`` exposes -- so the contracts asserted here
(400 with the shared diagnostic renderer, the 408 partial-result
contract, 429 + ``server.shed``) are the deployed ones, not unit-level
approximations.
"""

import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.rewriting.constraints import PAPER_DTD
from repro.server import SERVE_SCHEMA_VERSION, ServerConfig, running_server
from repro.tsl import print_query
from repro.workloads import query_q3, star_query, star_view, view_v1


def rewrite_body(**extra) -> dict:
    body = {"query": print_query(query_q3()),
            "views": {"V1": print_query(view_v1())},
            "dtd": PAPER_DTD}
    body.update(extra)
    return body


@pytest.fixture(scope="module")
def srv():
    """One shared server for the read-mostly endpoint tests."""
    with running_server(ServerConfig(port=0, workers=2),
                        metrics=MetricsRegistry()) as thread:
        yield thread


class TestPlumbing:
    def test_healthz_reports_liveness_and_pool(self, srv):
        status, body = srv.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["sessions"] >= 0
        assert body["in_flight"] >= 0

    def test_unknown_endpoint_is_404(self, srv):
        status, body = srv.get("/nope")
        assert status == 404
        assert "no such endpoint" in body["error"]["message"]

    def test_wrong_method_is_405(self, srv):
        assert srv.get("/rewrite")[0] == 405
        assert srv.post("/healthz", {})[0] == 405
        assert srv.post("/metrics", {})[0] == 405

    def test_metrics_exposition_reflects_traffic(self, srv):
        assert srv.post("/rewrite", rewrite_body())[0] == 200
        status, text = srv.get("/metrics")
        assert status == 200
        assert isinstance(text, str)  # Prometheus text, not JSON
        assert 'server_requests_total{' in text
        assert 'endpoint="POST /rewrite"' in text

    def test_oversized_body_is_413(self):
        config = ServerConfig(port=0, workers=1, max_body_bytes=64)
        with running_server(config) as small:
            status, body = small.post("/rewrite",
                                      {"pad": "x" * 1024})
            assert status == 413
            assert "too large" in body["error"]["message"]


class TestPersistentHealthz:
    """``/healthz`` grows a ``store`` section when ``cache_dir`` is set."""

    def test_store_section_tracks_persisted_state(self, tmp_path):
        config = ServerConfig(port=0, workers=1,
                              cache_dir=str(tmp_path / "store"))
        with running_server(config,
                            metrics=MetricsRegistry()) as persistent:
            status, body = persistent.get("/healthz")
            assert status == 200
            pool = body["pool"]
            assert pool["persistent"] is True
            assert pool["memo_entries_loaded"] == 0
            store = body["store"]
            # No snapshot or WAL yet: the version is unknown, not 0.
            assert store["store_version"] is None
            assert store["cache_entries"] == 0
            assert store["persisted_sessions"] == 0
            _status, text = persistent.get("/metrics")
            assert "repro_store_cache_entries 0" in text
            # Warm one session; shutdown flushes its memo to disk.
            assert persistent.post("/rewrite", rewrite_body())[0] == 200

        with running_server(config,
                            metrics=MetricsRegistry()) as restarted:
            status, body = restarted.get("/healthz")
            store = body["store"]
            assert store["persisted_sessions"] == 1
            assert store["persisted_memo_entries"] >= 1
            assert store["last_flush"] is not None
            # The reloaded memo serves the very first request as a hit.
            status, answer = restarted.post("/rewrite", rewrite_body())
            assert status == 200
            assert answer["memo"] == "hit"
            status, body = restarted.get("/healthz")
            assert body["pool"]["memo_entries_loaded"] >= 1

    def test_in_memory_server_has_no_store_section(self, srv):
        status, body = srv.get("/healthz")
        assert status == 200
        assert body["pool"]["persistent"] is False
        assert "store" not in body


class TestRewriteEndpoint:
    def test_rewrite_found_with_stats_and_memo_marker(self, srv):
        status, first = srv.post("/rewrite", rewrite_body())
        assert status == 200
        assert first["schema_version"] == SERVE_SCHEMA_VERSION
        assert first["rewritings"], "Q3 must rewrite over V1"
        assert all(r["flavor"] == "equivalent"
                   for r in first["rewritings"])
        assert first["truncated"] is False
        assert first["stats"]["candidates_tested"] >= 0

        status, second = srv.post("/rewrite", rewrite_body())
        assert status == 200
        assert second["memo"] == "hit"
        assert second["rewritings"] == first["rewritings"]

    def test_explain_endpoint_returns_decision_log(self, srv):
        status, body = srv.post("/explain", rewrite_body())
        assert status == 200
        assert body["found"] is True
        assert body["explanation"]["schema_version"] >= 1
        assert body["explanation"]["candidates"]

    def test_rewrite_with_explain_flag_inlines_the_log(self, srv):
        status, body = srv.post("/rewrite",
                                rewrite_body(explain=True))
        assert status == 200
        assert body["rewritings"]
        assert body["explanation"]["candidates"]


    def test_unsatisfiable_view_does_not_fail_the_request(self, srv):
        # The view is empty on every database; the query is fine, so the
        # search skips the view rather than answering 422.
        from tests.rewriting.test_rewriter import (PERSON_QUERY,
                                                   UNSATISFIABLE_VIEWS)
        status, body = srv.post("/rewrite", {
            "query": PERSON_QUERY, "views": UNSATISFIABLE_VIEWS})
        assert status == 200, body
        assert [r["query"] for r in body["rewritings"]] == [
            "<f(P) person Y> :- <h(P) person Y>@Good"]


class TestErrorModel:
    def test_empty_body_is_400(self, srv):
        status, _body = srv.request("POST", "/rewrite")
        assert status == 400

    def test_malformed_json_is_400(self, srv):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                          timeout=10)
        try:
            conn.request("POST", "/rewrite", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_malformed_tsl_renders_shared_diagnostics(self, srv):
        status, body = srv.post(
            "/rewrite", rewrite_body(query="<ans(X) a {}> :- <X b"))
        assert status == 400
        error = body["error"]
        # Rendered through repro.analysis.render_text: caret excerpt
        # plus machine-readable diagnostics with the lint syntax code.
        assert "^" in error["message"]
        assert error["diagnostics"]
        assert error["diagnostics"][0]["code"] == "TSL000"
        assert error["diagnostics"][0]["severity"] == "error"

    def test_malformed_view_names_the_view_file(self, srv):
        status, body = srv.post(
            "/rewrite",
            rewrite_body(views={"V1": "<xrow(X) row ok> :- garbage("}))
        assert status == 400
        assert body["error"]["diagnostics"][0]["file"] == "view:V1"

    def test_cyclic_view_is_a_prompt_400_naming_the_view(self):
        # The chase cannot saturate a cyclic view: it is refused at
        # decode, and the worker that would have searched stays free.
        with running_server(ServerConfig(port=0, workers=1)) as solo:
            started = time.monotonic()
            status, body = solo.post("/rewrite", {
                "query": "<f(X) r Y> :- <X e Y>@db",
                "views": {"VC": "<g(X) r Y> :- <X e {<X e Y>}>@db"},
                "budget_ms": 500})
            assert time.monotonic() - started < 5
            assert status == 400
            [diagnostic] = body["error"]["diagnostics"]
            assert diagnostic["code"] == "TSL003"
            assert diagnostic["file"] == "view:VC"
            assert "view:VC" in body["error"]["message"]
            status, body = solo.post("/rewrite", rewrite_body())
            assert status == 200
            assert body["rewritings"]

    def test_missing_fields_are_400(self, srv):
        assert srv.post("/rewrite", {"views": {}})[0] == 400
        assert srv.post("/rewrite",
                        {"query": print_query(query_q3())})[0] == 400

    def test_bad_dtd_is_400(self, srv):
        status, body = srv.post(
            "/rewrite", rewrite_body(dtd="<!ELEMENT broken"))
        assert status == 400
        assert "dtd" in body["error"]["message"].lower()

    def test_bad_field_types_are_400(self, srv):
        assert srv.post("/rewrite", rewrite_body(budget_ms="fast"))[0] \
            == 400
        assert srv.post("/rewrite",
                        rewrite_body(max_candidates=1.5))[0] == 400
        assert srv.post("/rewrite",
                        rewrite_body(max_candidates=-3))[0] == 400


class TestBudgets:
    """The 408 partial-result contract (ISSUE: budget exhaustion)."""

    def star_body(self, **extra) -> dict:
        body = {"query": print_query(star_query(3)),
                "views": {"V": print_query(star_view(3))}}
        body.update(extra)
        return body

    def test_deadline_exhaustion_is_408_with_partial_result(self, srv):
        status, body = srv.post(
            "/rewrite", self.star_body(budget_ms=0.001))
        assert status == 408
        assert body["truncated"] is True
        assert body["stop_reason"] in ("deadline", "steps", "budget")
        # Partial-result contract: the (possibly empty) sound prefix
        # still travels in the body.
        assert isinstance(body["rewritings"], list)
        assert body["schema_version"] == SERVE_SCHEMA_VERSION

    def test_step_exhaustion_is_408(self, srv):
        status, body = srv.post("/rewrite",
                                self.star_body(max_steps=2))
        assert status == 408
        assert body["truncated"] is True
        assert body["stop_reason"] == "steps"

    def test_max_candidates_truncation_is_200_not_408(self, srv):
        # Client-requested truncation is not a timeout: stop_reason
        # "max_candidates" stays on the success path.
        status, body = srv.post("/rewrite",
                                rewrite_body(max_candidates=1))
        assert status == 200
        assert len(body["rewritings"]) <= 1


class TestLoadShedding:
    """Admission control: beyond max_pending -> 429 + server.shed."""

    def test_burst_beyond_capacity_sheds_with_counter(self):
        registry = MetricsRegistry()
        config = ServerConfig(port=0, workers=1, max_pending=2)
        burst = 8
        request = {"query": print_query(star_query(3)),
                   "views": {"V": print_query(star_view(3))},
                   "budget_ms": 5000}
        statuses: list[int] = []
        lock = threading.Lock()
        with running_server(config, metrics=registry) as srv:
            barrier = threading.Barrier(burst)

            def client() -> None:
                barrier.wait()
                status, body = srv.post("/rewrite", request)
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=client)
                       for _ in range(burst)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            shed = srv.registry.snapshot()["counters"].get(
                "server.shed", 0)

        rejected = [s for s in statuses if s == 429]
        assert rejected, "burst never exceeded capacity"
        assert shed == len(rejected)
        # Admitted requests succeed or time out -- never error.
        assert all(s in (200, 408, 429) for s in statuses), statuses


class TestEvaluateEndpoint:
    def test_evaluate_inline_database(self, srv):
        from repro.oem.serialize import database_to_json
        from repro.workloads import figure3_database
        db = figure3_database()
        status, body = srv.post("/evaluate", {
            "query": "<ans(C) res {}> :- <P person C>@db",
            "database": database_to_json(db)})
        assert status == 200
        assert body["roots"] >= 1
        assert body["objects"] >= body["roots"]
        assert body["answer"]["roots"]

    def test_evaluate_rejects_bad_database(self, srv):
        status, body = srv.post("/evaluate", {
            "query": "<ans(C) res {}> :- <P person C>@db",
            "database": {"bogus": True}})
        assert status == 400
        assert "database" in body["error"]["message"]

    def test_evaluate_missing_database_is_400(self, srv):
        status, _ = srv.post("/evaluate",
                             {"query": "<ans(C) res {}> :- <P person C>@db"})
        assert status == 400
