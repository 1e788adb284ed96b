"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.oem import dumps
from repro.workloads import figure3_database


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "q.tsl"
    path.write_text(
        '<hit(P) title T> :- <P pub {<B booktitle "SIGMOD">}>@db AND '
        '<P pub {<X title T>}>@db')
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(dumps(figure3_database()))
    return str(path)


@pytest.fixture
def view_file(tmp_path):
    path = tmp_path / "v.tsl"
    path.write_text(
        '<v(P) pub {<c(P,L,W) L W>}> :- '
        '<P pub {<B booktitle "SIGMOD">}>@db AND <P pub {<X L W>}>@db')
    return str(path)


class TestValidate:
    def test_valid_query(self, query_file, capsys):
        assert main(["validate", query_file]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_query(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsl"
        bad.write_text("<f(P) x W> :- <P a V>@db")  # unsafe
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.tsl"]) == 2


class TestEvaluate:
    def test_json_output(self, query_file, db_file, capsys):
        assert main(["evaluate", query_file, "--db", db_file]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["name"] == "answer"
        assert "1 root object(s)" in captured.err

    def test_dot_output(self, query_file, db_file, capsys):
        assert main(["evaluate", query_file, "--db", db_file,
                     "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "answer"')
        assert "Constraint Views" in out


class TestRewrite:
    def test_rewriting_found(self, query_file, view_file, capsys):
        assert main(["rewrite", query_file,
                     "--view", f"V={view_file}"]) == 0
        out = capsys.readouterr().out
        assert "@V" in out
        assert "% equivalent" in out

    def test_no_rewriting(self, tmp_path, view_file, capsys):
        query = tmp_path / "q2.tsl"
        query.write_text("<f(P) x V> :- <P nothing V>@db")
        assert main(["rewrite", str(query),
                     "--view", f"V={view_file}"]) == 1
        assert "no rewriting" in capsys.readouterr().err

    def test_contained_mode(self, tmp_path, view_file, capsys):
        query = tmp_path / "q3.tsl"
        query.write_text("<f(P) title T> :- <P pub {<X title T>}>@db")
        assert main(["rewrite", str(query), "--view", f"V={view_file}",
                     "--contained"]) == 0
        assert "% contained" in capsys.readouterr().out

    def test_bad_view_spec(self, query_file, capsys):
        assert main(["rewrite", query_file, "--view", "noequals"]) == 2

    def test_with_dtd(self, tmp_path, capsys):
        from repro.rewriting.constraints import PAPER_DTD
        query = tmp_path / "q7.tsl"
        query.write_text(
            "<f(P) stanford yes> :- "
            "<P p {<X name {<Z last stanford>}>}>@db")
        view = tmp_path / "v1.tsl"
        view.write_text(
            "<g(P') p {<pp(P',Y') pr Y'> <h(X') v Z'>}> :- "
            "<P' p {<X' Y' Z'>}>@db")
        dtd = tmp_path / "people.dtd"
        dtd.write_text(PAPER_DTD)
        assert main(["rewrite", str(query), "--view", f"V1={view}"]) == 1
        assert main(["rewrite", str(query), "--view", f"V1={view}",
                     "--dtd", str(dtd)]) == 0



#: A view whose body pattern nests oid X under itself.
CYCLIC_VIEW = "<g(X) r Y> :- <X e {<X e Y>}>@db"


class TestCyclicViews:
    """A cyclic view gets the TSL003 diagnostic, with its file and a
    caret, rather than the chase's bare error."""

    @pytest.fixture
    def cyclic_view(self, tmp_path):
        path = tmp_path / "cyc.tsl"
        path.write_text(CYCLIC_VIEW)
        return path

    @staticmethod
    def assert_rendered(err, path):
        assert f"{path}:1:21: error:" in err
        assert "[TSL003]" in err
        assert "^^^^^^^" in err

    def test_rewrite_view(self, tmp_path, cyclic_view, capsys):
        query = tmp_path / "q.tsl"
        query.write_text("<f(X) r Y> :- <X e Y>@db")
        assert main(["rewrite", str(query), "--view",
                     f"V={cyclic_view}"]) == 2
        self.assert_rendered(capsys.readouterr().err, cyclic_view)

    def test_check_views(self, tmp_path, cyclic_view, capsys):
        config = tmp_path / "mediator.json"
        config.write_text(json.dumps({"views": {"cyc": "cyc.tsl"}}))
        assert main(["check-views", str(config)]) == 2
        self.assert_rendered(capsys.readouterr().out, "cyc.tsl")

class TestRewriteObservability:
    def test_json_format(self, query_file, view_file, capsys):
        assert main(["rewrite", query_file, "--view", f"V={view_file}",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rewritings"]
        assert data["rewritings"][0]["flavor"] == "equivalent"
        assert data["truncated"] is False
        assert data["stop_reason"] is None
        assert data["stats"]["candidates_tested"] >= 1

    def test_trace_written_and_parseable(self, query_file, view_file,
                                         tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        assert main(["rewrite", query_file, "--view", f"V={view_file}",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        names = {record["name"] for record in records}
        assert {"rewrite", "chase", "compose", "equivalence"} <= names
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["rewrite"]
        assert f"# trace: {len(records)} span(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("trace_format", ["chrome", "text"])
    def test_other_trace_formats(self, query_file, view_file, tmp_path,
                                 trace_format):
        trace = tmp_path / "out.trace"
        assert main(["rewrite", query_file, "--view", f"V={view_file}",
                     "--trace", str(trace),
                     "--trace-format", trace_format]) == 0
        content = trace.read_text()
        if trace_format == "chrome":
            assert json.loads(content)["traceEvents"]
        else:
            assert content.startswith("rewrite ")

    def test_budget_truncation_warns_and_exits_cleanly(
            self, tmp_path, capsys):
        from repro.obs import Budget
        from repro.rewriting import rewrite
        from repro.workloads.querygen import star_query, star_view
        # Half the steps of a full run stops the search midway however
        # cheap it becomes.
        probe = Budget()
        rewrite(star_query(2), {"V": star_view(2)}, budget=probe)
        query = tmp_path / "star.tsl"
        query.write_text(str(star_query(2)))
        view = tmp_path / "starv.tsl"
        view.write_text(str(star_view(2)))
        code = main(["rewrite", str(query), "--view", f"V={view}",
                     "--max-steps", str(probe.steps // 2),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "search truncated (steps)" in captured.err
        data = json.loads(captured.out)
        assert data["truncated"] is True
        assert data["stop_reason"] == "steps"
        assert code in (0, 1)  # clean exit either way

    def test_budget_ms_on_adversarial_workload(self, tmp_path, capsys):
        # The ISSUE acceptance scenario: a deadline stops a search that
        # would otherwise run for minutes, exiting cleanly.
        from repro.workloads.querygen import star_query, star_view
        query = tmp_path / "star3.tsl"
        query.write_text(str(star_query(3)))
        view = tmp_path / "star3v.tsl"
        view.write_text(str(star_view(3)))
        trace = tmp_path / "out.jsonl"
        code = main(["rewrite", str(query), "--view", f"V={view}",
                     "--budget-ms", "50", "--trace", str(trace),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        data = json.loads(captured.out)
        assert data["truncated"] is True
        assert data["stop_reason"] == "deadline"
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert {"rewrite", "enumerate_mappings"} <= {
            r["name"] for r in records}
        assert all(r["duration_ms"] >= 0 for r in records)

    def test_max_candidates_truncation_warning(self, tmp_path, capsys):
        query = tmp_path / "q.tsl"
        query.write_text('<f(P) result V> :- <P c V>@db')
        v1 = tmp_path / "v1.tsl"
        v1.write_text('<view1(P) row V> :- <P c V>@db')
        v2 = tmp_path / "v2.tsl"
        v2.write_text('<view2(P) row V> :- <P c V>@db')
        assert main(["rewrite", str(query), "--view", f"V1={v1}",
                     "--view", f"V2={v2}", "--max-candidates", "1"]) == 0
        err = capsys.readouterr().err
        assert "search truncated (max_candidates)" in err

    def test_contained_with_trace(self, tmp_path, view_file, capsys):
        query = tmp_path / "q3.tsl"
        query.write_text("<f(P) title T> :- <P pub {<X title T>}>@db")
        trace = tmp_path / "contained.jsonl"
        assert main(["rewrite", str(query), "--view", f"V={view_file}",
                     "--contained", "--trace", str(trace)]) == 0
        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()}
        assert "contained_rewrite" in names

    def test_contained_json_carries_stats(self, tmp_path, view_file,
                                          capsys):
        query = tmp_path / "q3.tsl"
        query.write_text("<f(P) title T> :- <P pub {<X title T>}>@db")
        assert main(["rewrite", str(query), "--view", f"V={view_file}",
                     "--contained", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["flavor"] for r in data["rewritings"]] == ["contained"]
        assert data["stats"]["candidates_tested"] >= 1
        assert data["truncated"] is False

    def test_contained_rejects_max_candidates(self, tmp_path, view_file,
                                              capsys):
        query = tmp_path / "q3.tsl"
        query.write_text("<f(P) title T> :- <P pub {<X title T>}>@db")
        assert main(["rewrite", str(query), "--view", f"V={view_file}",
                     "--contained", "--max-candidates", "3"]) == 2
        assert "--max-candidates" in capsys.readouterr().err


class TestImportXml:
    def test_stdout(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("<r><a>1</a></r>")
        assert main(["import-xml", str(doc)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "db"

    def test_output_file_and_dtd_notice(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("""<!DOCTYPE r [
            <!ELEMENT r (a)> <!ELEMENT a CDATA>
        ]><r><a>1</a></r>""")
        out = tmp_path / "db.json"
        assert main(["import-xml", str(doc), "-o", str(out),
                     "--name", "src1"]) == 0
        data = json.loads(out.read_text())
        assert data["name"] == "src1"
        assert "internal DTD found" in capsys.readouterr().err


class TestFuzz:
    def test_green_campaign_text(self, capsys):
        assert main(["fuzz", "--seed", "7", "--iterations", "8"]) == 0
        out = capsys.readouterr().out
        assert "OK: 8 iterations" in out

    def test_green_campaign_json(self, capsys):
        assert main(["fuzz", "--seed", "7", "--iterations", "4",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["iterations"] == 4
        assert set(data["checks"]) == {"containment", "index", "memo",
                                       "metamorphic", "persist",
                                       "semantic", "signature", "step2"}

    def test_oracle_and_profile_selection(self, capsys):
        assert main(["fuzz", "--seed", "1", "--iterations", "3",
                     "--oracle", "semantic",
                     "--profile", "conjunctive", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["checks"]) == {"semantic"}

    def test_unknown_profile_rejected(self, capsys):
        assert main(["fuzz", "--profile", "nonsense"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_replay_corpus_case(self, capsys):
        import glob
        import os
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        path = sorted(glob.glob(os.path.join(corpus, "*.json")))[0]
        assert main(["fuzz", "--replay", path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_failures_exit_one_and_save_corpus(self, tmp_path, capsys,
                                               monkeypatch):
        import importlib
        chase_mod = importlib.import_module("repro.rewriting.chase")
        monkeypatch.setattr(
            chase_mod, "_drop_subsumed_empty_paths",
            lambda paths: paths[:-1] if len(paths) > 1 else paths)
        assert main(["fuzz", "--seed", "0", "--iterations", "6",
                     "--corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILURE" in out
        assert "saved:" in out
        assert list(tmp_path.glob("*.json"))


@pytest.fixture
def paper_files(tmp_path):
    """Q7, V1, and the DTD of the paper's running example."""
    from repro.rewriting.constraints import PAPER_DTD
    query = tmp_path / "q7.tsl"
    query.write_text("<f(P) stanford yes> :- "
                     "<P p {<X name {<Z last stanford>}>}>@db")
    view = tmp_path / "v1.tsl"
    view.write_text("<g(P') p {<pp(P',Y') pr Y'> <h(X') v Z'>}> :- "
                    "<P' p {<X' Y' Z'>}>@db")
    dtd = tmp_path / "people.dtd"
    dtd.write_text(PAPER_DTD)
    return str(query), str(view), str(dtd)


class TestExplainCmd:
    def test_text_rendering_and_exit_codes(self, paper_files, capsys):
        query, view, dtd = paper_files
        assert main(["explain", query, "--view", f"V1={view}"]) == 1
        out = capsys.readouterr().out
        assert "failed-equivalence" in out
        assert "step 1A -- containment mappings:" in out
        assert main(["explain", query, "--view", f"V1={view}",
                     "--dtd", dtd]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_json_is_machine_readable(self, paper_files, capsys):
        query, view, dtd = paper_files
        assert main(["explain", query, "--view", f"V1={view}",
                     "--dtd", dtd, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert all(c["verdict"] for c in data["candidates"])
        assert data["rewritings"]

    def test_memoized_json_identical_to_cold(self, paper_files, capsys):
        # Same process, two invocations: the second run rebuilds the
        # session, so this checks determinism of the log itself; the
        # in-session memo replay is covered in test_explain.py.
        query, view, dtd = paper_files
        main(["explain", query, "--view", f"V1={view}", "--dtd", dtd,
              "--format", "json"])
        first = capsys.readouterr().out
        main(["explain", query, "--view", f"V1={view}", "--dtd", dtd,
              "--format", "json"])
        assert capsys.readouterr().out == first

    def test_trace_flag(self, paper_files, tmp_path, capsys):
        query, view, dtd = paper_files
        trace = tmp_path / "explain.jsonl"
        assert main(["explain", query, "--view", f"V1={view}",
                     "--dtd", dtd, "--trace", str(trace)]) == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert {"rewrite", "equivalence"} <= {r["name"] for r in records}


class TestMetricsCmd:
    def test_default_workload_prometheus(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_phase_seconds histogram" in out
        for phase in ("rewrite", "chase", "compose", "equivalence",
                      "memo_lookup"):
            assert f'phase="{phase}"' in out
        assert 'le="+Inf"' in out

    def test_json_snapshot(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        hist = data["histograms"]["phase.seconds{phase=rewrite}"]
        assert hist["count"] > 0
        assert hist["p50"] is not None

    def test_explicit_query_requires_view(self, paper_files, capsys):
        query, view, _ = paper_files
        assert main(["metrics", query]) == 2
        assert "--view" in capsys.readouterr().err
        assert main(["metrics", query, "--view", f"V1={view}"]) == 0


@pytest.fixture(scope="module")
def live_server():
    """One live server warmed with a couple of requests, for the remote
    client commands (`metrics --url`, `top`)."""
    from repro.rewriting.constraints import PAPER_DTD
    from repro.server import ServerConfig, running_server
    from repro.tsl import print_query
    from repro.workloads import query_q3, view_v1

    body = {"query": print_query(query_q3()),
            "views": {"V1": print_query(view_v1())},
            "dtd": PAPER_DTD}
    with running_server(ServerConfig(port=0, workers=2)) as thread:
        assert thread.post("/rewrite", body)[0] == 200
        assert thread.post("/rewrite", body)[0] == 200
        yield f"http://127.0.0.1:{thread.port}"


class TestMetricsUrl:
    def test_scrapes_live_exposition(self, live_server, capsys):
        assert main(["metrics", "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert "repro_server_requests_total" in out
        assert "# TYPE repro_server_seconds histogram" in out
        assert "gauge" in out

    def test_full_metrics_url_accepted(self, live_server, capsys):
        assert main(["metrics", "--url", f"{live_server}/metrics"]) == 0
        assert "repro_server_requests_total" in capsys.readouterr().out

    def test_json_parses_scrape(self, live_server, capsys):
        assert main(["metrics", "--url", live_server,
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert any(key.startswith("repro_server_requests_total")
                   for key in data["counters"])
        assert any(key.startswith("repro_server_seconds")
                   for key in data["histograms"])
        assert "repro_server_sessions_live" in data["gauges"]

    def test_url_rejects_workload_args(self, live_server, capsys):
        assert main(["metrics", "--url", live_server, "ignored.tsl"]) == 2
        assert "no query" in capsys.readouterr().err

    def test_unreachable_server_reports_error(self, capsys):
        assert main(["metrics", "--url", "http://127.0.0.1:9"]) == 2
        assert "error" in capsys.readouterr().err


class TestTopCmd:
    def test_once_renders_dashboard(self, live_server, capsys):
        assert main(["top", "--url", live_server, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "POST /rewrite" in out
        assert "p50" in out and "p99" in out
        assert "cache table" in out
        assert "slowest recent requests" in out

    def test_count_limits_frames(self, live_server, capsys):
        assert main(["top", "--url", live_server, "--count", "2",
                     "--interval", "0"]) == 0
        assert capsys.readouterr().out.count("repro top") == 2

    def test_unreachable_server_reports_error(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:9",
                     "--once"]) == 2
        assert "error" in capsys.readouterr().err


class TestEvaluateTrace:
    def test_evaluate_trace_written(self, query_file, db_file, tmp_path,
                                    capsys):
        trace = tmp_path / "eval.jsonl"
        assert main(["evaluate", query_file, "--db", db_file,
                     "--trace", str(trace)]) == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert "evaluate" in names and "evaluate.rule" in names
        rule = next(r for r in records if r["name"] == "evaluate.rule")
        assert rule["attrs"]["assignments"] >= 1


class TestFuzzTrace:
    def test_fuzz_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--iterations", "2", "--oracle", "semantic",
                     "--trace", str(trace)]) == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert {"fuzz.iteration", "oracle.semantic"} <= \
            {r["name"] for r in records}

    def test_trace_rejected_with_replay(self, tmp_path, capsys):
        import glob
        import os
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        path = sorted(glob.glob(os.path.join(corpus, "*.json")))[0]
        assert main(["fuzz", "--replay", path,
                     "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "--replay" in capsys.readouterr().err
