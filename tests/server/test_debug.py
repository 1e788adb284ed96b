"""Flight recorder over the wire: /debug endpoints, trace propagation,
the JSONL access log, and the label-cardinality guard.

Everything here drives a real server over loopback HTTP, so the
contracts asserted (request-id echo, byte-identical EXPLAIN between
``/debug/requests/<id>`` and ``/explain``, bounded endpoint labels) are
the deployed ones.
"""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.recorder import RECORDER_SCHEMA_VERSION
from repro.rewriting import Explanation, RewriteSession, parse_dtd
from repro.rewriting.constraints import PAPER_DTD
from repro.server import ServerConfig, normalize_endpoint, running_server
from repro.tsl import print_query
from repro.workloads import query_q3, query_q5, view_v1


def rewrite_body(**extra) -> dict:
    body = {"query": print_query(query_q3()),
            "views": {"V1": print_query(view_v1())},
            "dtd": PAPER_DTD}
    body.update(extra)
    return body


@pytest.fixture()
def srv(tmp_path):
    """A per-test server with tail capture forced on (slow_ms=0) and a
    JSONL access log, so every request retains full detail."""
    config = ServerConfig(port=0, workers=2, slow_ms=0.0,
                          access_log=str(tmp_path / "access.log"))
    with running_server(config, metrics=MetricsRegistry()) as thread:
        yield thread


class TestRequestIdPropagation:
    def test_client_supplied_id_is_echoed_everywhere(self, srv, tmp_path):
        status, headers, body = srv.request_full(
            "POST", "/rewrite", rewrite_body(),
            headers={"X-Repro-Request-Id": "client-id-42"})
        assert status == 200
        # 1. the response header
        assert headers["x-repro-request-id"] == "client-id-42"
        # 2. the flight-recorder record
        record = srv.server.recorder.get("client-id-42")
        assert record is not None
        assert record.endpoint == "POST /rewrite"
        # 3. the span attributes of the request root span
        roots = [span for span in record.trace if span["parent"] is None]
        assert roots and roots[0]["attrs"]["request_id"] == "client-id-42"
        # 4. the access log
        lines = [json.loads(line) for line in
                 (tmp_path / "access.log").read_text().splitlines()]
        assert any(entry["request_id"] == "client-id-42"
                   for entry in lines)

    def test_malformed_client_id_is_replaced(self, srv):
        _status, headers, _body = srv.request_full(
            "POST", "/rewrite", rewrite_body(),
            headers={"X-Repro-Request-Id": "bad id with spaces\x01"})
        assert headers["x-repro-request-id"] != "bad id with spaces\x01"
        assert len(headers["x-repro-request-id"]) == 16

    def test_generated_id_when_absent(self, srv):
        _status, headers, _body = srv.request_full("GET", "/healthz")
        assert len(headers["x-repro-request-id"]) == 16

    def test_traceparent_trace_id_is_adopted(self, srv):
        incoming = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        _status, headers, _body = srv.request_full(
            "GET", "/healthz", headers={"traceparent": incoming})
        parts = headers["traceparent"].split("-")
        assert parts[0] == "00" and parts[3] == "01"
        assert parts[1] == "ab" * 16          # caller's trace id kept
        assert parts[2] != "cd" * 8           # our own span id

    def test_invalid_traceparent_gets_fresh_trace_id(self, srv):
        _status, headers, _body = srv.request_full(
            "GET", "/healthz", headers={"traceparent": "garbage"})
        parts = headers["traceparent"].split("-")
        assert len(parts) == 4 and len(parts[1]) == 32

    def test_access_log_is_structured_jsonl(self, srv, tmp_path):
        srv.post("/rewrite", rewrite_body())
        entries = [json.loads(line) for line in
                   (tmp_path / "access.log").read_text().splitlines()]
        entry = [e for e in entries if e["path"] == "/rewrite"][-1]
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["duration_ms"] >= 0
        assert entry["memo"] in ("hit", "miss")
        assert len(entry["trace_id"]) == 32


class TestDebugRequests:
    def test_ring_lists_completed_requests(self, srv):
        srv.post("/rewrite", rewrite_body())
        status, body = srv.get("/debug/requests")
        assert status == 200
        assert body["schema_version"] == RECORDER_SCHEMA_VERSION
        assert body["recorder"]["enabled"] is True
        rewrites = [r for r in body["requests"]
                    if r["endpoint"] == "POST /rewrite"]
        assert rewrites
        record = rewrites[0]
        assert record["status"] == 200
        assert record["config_key"] and record["query_key"]
        assert record["memo"] in ("hit", "miss")
        assert "rewrite" in record["phases_ms"]
        assert "queued" in record["phases_ms"]
        assert record["counters"]["candidates_tested"] >= 0
        # Summaries never carry the heavy detail.
        assert "trace" not in record and "explain" not in record

    def test_recorded_phases_match_the_phase_histograms(self, srv):
        # One request on a fresh server: the recorder's per-span-name
        # totals and phase.seconds are read from the same spans.
        status, headers, _body = srv.request_full("POST", "/rewrite",
                                                  rewrite_body())
        assert status == 200
        record = srv.server.recorder.get(headers["x-repro-request-id"])
        histograms = srv.server.registry.snapshot()["histograms"]
        for phase in ("rewrite", "chase", "compose", "equivalence"):
            hist = histograms[f"phase.seconds{{phase={phase}}}"]
            assert hist["count"] > 0
            assert record.phases[phase] == pytest.approx(
                hist["sum"] * 1e3, rel=1e-9)

    def test_unknown_request_id_is_404(self, srv):
        status, body = srv.get("/debug/requests/nope")
        assert status == 404
        assert "no such request" in body["error"]["message"]

    def test_post_to_debug_is_405(self, srv):
        assert srv.post("/debug/requests", {})[0] == 405

    def test_unknown_debug_path_is_404(self, srv):
        assert srv.get("/debug/whatever")[0] == 404

    def test_explain_byte_identical_to_in_process(self, srv):
        """The acceptance contract: /debug/requests/<id> carries EXPLAIN
        JSON byte-identical to the in-process explain for the same
        request (and to the POST /explain response)."""
        status, _headers, wire = srv.request_full(
            "POST", "/explain", rewrite_body(),
            headers={"X-Repro-Request-Id": "explain-probe"})
        assert status == 200
        status, body = srv.get("/debug/requests/explain-probe")
        assert status == 200
        recorded = body["request"]["explain"]
        assert recorded is not None

        session = RewriteSession({"V1": view_v1()}, parse_dtd(PAPER_DTD))
        explanation = Explanation()
        session.rewrite(query_q3(), explain=explanation)
        local = json.dumps(explanation.to_json(), sort_keys=True)

        assert json.dumps(recorded, sort_keys=True) == local
        assert json.dumps(wire["explanation"], sort_keys=True) == local

    def test_equivalence_span_records_the_witness(self, srv):
        # A served Q3's Step 2 proves query ⊆ composition from its
        # Step 1A mapping; the outcome rides on the equivalence span.
        status, _headers, _body = srv.request_full(
            "POST", "/rewrite", rewrite_body(),
            headers={"X-Repro-Request-Id": "witness-probe"})
        assert status == 200
        status, body = srv.get("/debug/requests/witness-probe")
        assert status == 200
        outcomes = [span["attrs"].get("witness")
                    for span in body["request"]["trace"]
                    if span["name"] == "equivalence"]
        assert outcomes and set(outcomes) == {"hit"}

    def test_memo_hit_explain_still_byte_identical(self, srv):
        srv.post("/rewrite", rewrite_body())   # cold: stores explanation
        srv.request_full("POST", "/rewrite", rewrite_body(),
                         headers={"X-Repro-Request-Id": "warm-probe"})
        status, body = srv.get("/debug/requests/warm-probe")
        assert status == 200
        assert body["request"]["memo"] == "hit"
        session = RewriteSession({"V1": view_v1()}, parse_dtd(PAPER_DTD))
        explanation = Explanation()
        session.rewrite(query_q3(), explain=explanation)
        assert json.dumps(body["request"]["explain"], sort_keys=True) \
            == json.dumps(explanation.to_json(), sort_keys=True)

    def test_slow_endpoint_returns_tail_capture(self, srv):
        srv.post("/rewrite", rewrite_body())   # slow_ms=0 -> everything
        status, body = srv.get("/debug/slow")
        assert status == 200
        assert body["slow_ms"] == 0.0
        assert body["requests"]
        assert all(r["detailed"] for r in body["requests"])
        assert body["requests"][0]["trace"]

    def test_error_requests_are_tail_captured(self, srv):
        srv.post("/rewrite", {"query": "not tsl ((", "views": {}})
        status, body = srv.get("/debug/slow")
        errors = [r for r in body["requests"] if r["status"] == 400]
        assert errors and errors[0]["error"] is True


class TestDebugState:
    def test_cache_aggregates_hit_rates(self, srv):
        srv.post("/rewrite", rewrite_body())
        srv.post("/rewrite", rewrite_body())
        status, body = srv.get("/debug/cache")
        assert status == 200
        tables = body["tables"]
        assert tables["rewrite"]["hits"] >= 1
        assert 0.0 < tables["rewrite"]["hit_rate"] <= 1.0

    def test_sessions_lists_per_config_tables(self, srv):
        srv.post("/rewrite", rewrite_body())
        status, body = srv.get("/debug/sessions")
        assert status == 200
        assert body["pool"]["sessions"] == 1
        (session,) = body["sessions"]
        assert len(session["config_key"]) == 32
        assert session["tables"]["rewrite"]["size"] >= 1

    def test_one_request_counts_one_memo_lookup(self, srv):
        srv.post("/rewrite", rewrite_body())    # miss, then stored
        srv.post("/rewrite", rewrite_body())    # hit
        _, text = srv.get("/metrics")
        assert 'repro_phase_seconds_count{phase="memo_lookup"} 2' in text
        _, body = srv.get("/debug/sessions")
        (session,) = body["sessions"]
        table = session["tables"]["rewrite"]
        assert (table["hits"], table["misses"]) == (1, 1)

    def test_store_without_persistence(self, srv):
        status, body = srv.get("/debug/store")
        assert status == 200
        assert body["persistent"] is False
        assert body["store"] is None

    def test_store_with_persistence(self, tmp_path):
        config = ServerConfig(port=0, workers=1,
                              cache_dir=str(tmp_path / "cache"))
        with running_server(config) as thread:
            thread.post("/rewrite", rewrite_body())
            status, body = thread.get("/debug/store")
            assert status == 200
            assert body["persistent"] is True
            assert body["store"]["cache_entries"] == 0


class TestRecorderDisabled:
    def test_no_recorder_means_empty_ring(self):
        config = ServerConfig(port=0, workers=1, recorder=False)
        with running_server(config) as thread:
            thread.post("/rewrite", rewrite_body())
            status, body = thread.get("/debug/requests")
            assert status == 200
            assert body["recorder"]["enabled"] is False
            assert body["requests"] == []
            # Wire propagation is independent of the recorder.
            _s, headers, _b = thread.request_full(
                "POST", "/rewrite", rewrite_body(),
                headers={"X-Repro-Request-Id": "still-echoed"})
            assert headers["x-repro-request-id"] == "still-echoed"


class TestLabelCardinality:
    def test_normalize_endpoint_folds_unknown_paths(self):
        assert normalize_endpoint("/rewrite") == "/rewrite"
        assert normalize_endpoint("/debug/requests/abc123") == \
            "/debug/requests/:id"
        assert normalize_endpoint("/nope") == "<other>"
        assert normalize_endpoint("/admin/../../etc/passwd") == "<other>"

    def test_404_scan_does_not_mint_labels(self, srv):
        for index in range(20):
            srv.get(f"/scanned-path-{index}")
        _status, text = srv.get("/metrics")
        assert "scanned-path" not in text
        assert 'endpoint="GET <other>",status="404"} 20' in text

    def test_gauges_exposed_on_scrape(self, srv):
        srv.post("/rewrite", rewrite_body())
        _status, text = srv.get("/metrics")
        assert "# TYPE repro_server_in_flight gauge" in text
        assert "# TYPE repro_server_queue_depth gauge" in text
        assert "# TYPE repro_server_sessions_live gauge" in text
        assert "repro_server_sessions_live 1" in text
        assert 'repro_server_memo_entries{table="rewrite"}' in text
        assert "# TYPE repro_recorder_requests gauge" in text


class TestHitRateIsolation:
    def test_distinct_queries_share_session_counters(self, srv):
        srv.post("/rewrite", rewrite_body())
        srv.post("/rewrite",
                 rewrite_body(query=print_query(query_q5())))
        status, body = srv.get("/debug/cache")
        assert status == 200
        assert body["tables"]["rewrite"]["size"] >= 2
