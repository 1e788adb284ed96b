"""End-to-end tests for ``python -m repro lint``."""

import json

import pytest

from repro.cli import main

DTD_TEXT = """\
<!ELEMENT p (name, phone)>
<!ELEMENT name (last, first)>
<!ELEMENT phone CDATA>
<!ELEMENT last CDATA>
<!ELEMENT first CDATA>
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


def lint(capsys, *argv):
    code = main(["lint", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_query_exits_zero(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :- <P a V>@db AND <P b V>@db")
        code, out, err = lint(capsys, path, "--strict")
        assert code == 0
        assert out == ""
        assert "clean" in err

    def test_warnings_exit_zero_by_default(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :- <P a V>@db AND <P b W>@db")
        code, out, _ = lint(capsys, path)
        assert code == 0
        assert "TSL101" in out

    def test_warnings_exit_one_under_strict(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :- <P a V>@db AND <P b W>@db")
        code, _, err = lint(capsys, path, "--strict")
        assert code == 1
        assert "1 warning(s)" in err

    def test_errors_exit_two(self, write, capsys):
        path = write("q.tsl", "<f(P) x W> :- <P a V>@db")
        code, out, err = lint(capsys, path, "--strict")
        assert code == 2
        assert "TSL001" in out
        assert "1 error(s)" in err


class TestTextOutput:
    def test_header_excerpt_and_caret(self, write, capsys):
        text = "<f(P) x W> :- <P a V>@db"
        path = write("q.tsl", text)
        _, out, _ = lint(capsys, path)
        lines = out.splitlines()
        assert lines[0] == f"{path}:1:9: error: " \
                           "head variable W is not bound in the query " \
                           "body [TSL001]"
        assert lines[1].endswith(text)
        caret_col = lines[2].index("^") - lines[1].index("<")
        assert caret_col == 8  # zero-based offset of column 9

    def test_multiline_query_points_at_right_line(self, write, capsys):
        path = write("q.tsl", "<f(P) x W> :-\n    <P a V>@db\n")
        _, out, _ = lint(capsys, path)
        assert f"{path}:1:9: error:" in out

    def test_view_findings_name_the_view_file(self, write, capsys):
        qpath = write("q.tsl", "<f(P) x V> :- <P a V>@db AND <P b V>@db")
        vpath = write("v.tsl", "<v all yes> :- <P a {<X name N>}>@db")
        code, out, _ = lint(capsys, qpath, "--view", f"V1={vpath}")
        assert f"{vpath}:1:1:" in out
        assert "TSL301" in out

    def test_syntax_error_reported_as_tsl000(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :- <P a V@db")
        code, out, _ = lint(capsys, path)
        assert code == 2
        assert "[TSL000]" in out
        assert f"{path}:1:" in out
        assert "^" in out


class TestJsonOutput:
    def test_shape_and_span(self, write, capsys):
        path = write("q.tsl", "<f(P) x W> :- <P a V>@db")
        code, out, _ = lint(capsys, path, "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["summary"]["error"] == 1
        (diag,) = [d for d in payload["diagnostics"]
                   if d["code"] == "TSL001"]
        assert diag["severity"] == "error"
        assert diag["file"] == path
        assert diag["span"] == {"line": 1, "column": 9,
                                "end_line": 1, "end_column": 10}

    def test_clean_json(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :- <P a V>@db AND <P b V>@db")
        code, out, _ = lint(capsys, path, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "diagnostics": [],
            "summary": {"error": 0, "warning": 0, "info": 0}}


class TestDtdLinting:
    def test_dtd_enables_tsl201(self, write, capsys):
        qpath = write("q.tsl", "<f(P) x yes> :- <P p {<X junk V>}>@db")
        dtd = write("people.dtd", DTD_TEXT)
        code, out, _ = lint(capsys, qpath, "--dtd", dtd)
        assert "TSL201" in out

    def test_without_dtd_tsl201_is_silent(self, write, capsys):
        qpath = write("q.tsl", "<f(P) x yes> :- <P p {<X junk V>}>@db")
        _, out, _ = lint(capsys, qpath)
        assert "TSL201" not in out

    def test_lint_never_runs_the_rewriter(self, write, capsys,
                                          monkeypatch):
        import importlib

        rew_mod = importlib.import_module("repro.rewriting.rewriter")

        def boom(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("lint must not invoke the rewriter")

        monkeypatch.setattr(rew_mod, "rewrite", boom)
        monkeypatch.setattr(rew_mod._Search, "run", boom)
        qpath = write("q.tsl", "<f(P) x yes> :- <P p {<X junk V>}>@db")
        vpath = write("v.tsl", "<v(P) q V> :- <P p V>@db")
        dtd = write("people.dtd", DTD_TEXT)
        code, out, _ = lint(capsys, qpath, "--view", f"V1={vpath}",
                            "--dtd", dtd)
        assert "TSL201" in out


class TestOtherCommandsUseTheRenderer:
    def test_validate_failure_has_location_and_caret(self, write, capsys):
        path = write("q.tsl", "<f(P) x W> :- <P a V>@db")
        code = main(["validate", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert f"{path}:1:9:" in err
        assert "^" in err

    def test_syntax_failure_has_location_and_caret(self, write, capsys):
        path = write("q.tsl", "<f(P) x V> :-\n  <P a V>@@db")
        code = main(["validate", path])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2:" in err
        assert "^" in err

    def test_bad_view_spec_message(self, write, capsys):
        qpath = write("q.tsl", "<f(P) x V> :- <P a V>@db")
        code = main(["rewrite", qpath, "--view", "nofile.tsl"])
        err = capsys.readouterr().err
        assert code == 2
        assert "NAME=FILE" in err
