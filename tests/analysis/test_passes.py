"""Golden tests: every diagnostic code, with severity and span positions."""

from repro.analysis import Severity, analyze
from repro.rewriting.constraints import paper_dtd
from repro.span import Span
from repro.tsl import parse_query


def findings(text, code, **kwargs):
    query = parse_query(text)
    return [d for d in analyze(query, source_text=text, **kwargs)
            if d.code == code]


def span_at(text, needle, width=None):
    """The span of the first occurrence of *needle* in one-line *text*."""
    column = text.index(needle) + 1
    return Span(1, column, 1, column + (width or len(needle)))


class TestWellformedCodes:
    def test_tsl001_unsafe_head_variable(self):
        text = "<f(P) x W> :- <P a V>@db"
        (diag,) = findings(text, "TSL001")
        assert diag.severity is Severity.ERROR
        assert diag.span == Span(1, 9, 1, 10)
        assert "W" in diag.message

    def test_tsl002_oid_data_overlap(self):
        text = "<f(X) x W> :- <X Y {<Y Z W>}>@db"
        (diag,) = findings(text, "TSL002")
        assert diag.severity is Severity.ERROR
        # Points at the first label/value use of Y, not the oid use.
        assert diag.span == Span(1, 18, 1, 19)

    def test_tsl003_cyclic_pattern(self):
        text = "<f(X) r 1> :- <X a {<X b V>}>@db"
        (diag,) = findings(text, "TSL003")
        assert diag.severity is Severity.ERROR
        assert diag.span == Span(1, 21, 1, 28)  # the nested <X b V>

    def test_tsl004_bare_variable_head_oid(self):
        text = "<P x V> :- <P a V>@db"
        (diag,) = findings(text, "TSL004")
        assert diag.severity is Severity.ERROR
        assert diag.span == Span(1, 2, 1, 3)

    def test_tsl004_duplicate_head_oid(self):
        text = "<f(P) x {<f(P) y V>}> :- <P a V>@db"
        (diag,) = findings(text, "TSL004")
        assert "unique" in diag.message
        assert diag.span == span_at(text, "f(P) y", width=4)

    def test_tsl005_function_term_value(self):
        text = "<f(P) x g(P)> :- <P a V>@db"
        (diag,) = findings(text, "TSL005")
        assert diag.severity is Severity.ERROR
        assert diag.span == Span(1, 9, 1, 13)

    def test_tsl005_function_term_label(self):
        text = "<f(P) g(X) V> :- <P a {<X b V>}>@db"
        assert [d.code for d in findings(text, "TSL005")] == ["TSL005"]


class TestStyleCodes:
    def test_tsl101_singleton_data_variable(self):
        text = "<f(P) x V> :- <P a V>@db AND <P b W>@db"
        (diag,) = findings(text, "TSL101")
        assert diag.severity is Severity.WARNING
        assert diag.span == span_at(text, "W")
        assert "W" in diag.message

    def test_tsl101_oid_singletons_are_idiomatic(self):
        # B and X occur once each but stand in oid fields: no warning.
        text = ('<hit(P) title T> :- <P pub {<B booktitle "SIGMOD">}>@db '
                'AND <P pub {<X title T>}>@db')
        assert findings(text, "TSL101") == []

    def test_tsl101_dollar_parameters_exempt(self):
        text = "<f(P) year $Y> :- <P pub {<X year $Y>}>@db AND <P t V>@db"
        assert [d.message for d in findings(text, "TSL101")] == [
            "variable V occurs only once in the query"]

    def test_tsl102_duplicate_condition(self):
        text = "<f(P) x V> :- <P a V>@db AND <P a V>@db"
        diags = findings(text, "TSL102")
        assert len(diags) == 2  # each duplicate is implied by the other
        assert diags[0].severity is Severity.WARNING
        assert diags[0].span == Span(1, 15, 1, 25)
        assert diags[1].span == Span(1, 30, 1, 40)

    def test_tsl102_subsumed_condition(self):
        # <P a W> (W used nowhere else) is implied by <P a V>.
        text = "<f(P) x V> :- <P a V>@db AND <P a W>@db"
        diags = findings(text, "TSL102")
        assert [d.span for d in diags] == [Span(1, 30, 1, 40)]

    def test_tsl102_not_fired_when_binding_matters(self):
        text = "<f(P) x V> :- <P a V>@db AND <P b V>@db"
        assert findings(text, "TSL102") == []

    def test_tsl103_disconnected_body(self):
        text = "<f(P) x V> :- <P a V>@db AND <Q b W>@db"
        (diag,) = findings(text, "TSL103")
        assert diag.severity is Severity.WARNING
        assert diag.span == Span(1, 30, 1, 40)
        assert "cartesian" in diag.message

    def test_tsl103_connected_body_clean(self):
        text = "<f(P) x V> :- <P a V>@db AND <P b W>@db"
        assert findings(text, "TSL103") == []


class TestDtdCodes:
    def test_tsl201_forbidden_child(self):
        text = "<f(P) x yes> :- <P p {<X junk V>}>@db"
        (diag,) = findings(text, "TSL201", dtd=paper_dtd())
        assert diag.severity is Severity.WARNING
        assert diag.span == span_at(text, "junk")
        assert "unsatisfiable" in diag.message

    def test_tsl201_set_pattern_under_atomic_element(self):
        text = "<f(P) x yes> :- <P p {<X phone {<Z a V>}>}>@db"
        diags = findings(text, "TSL201", dtd=paper_dtd())
        assert any("atomic content" in d.message for d in diags)

    def test_tsl201_atomic_value_on_set_element(self):
        text = "<f(P) x yes> :- <P p {<X name joe>}>@db"
        (diag,) = findings(text, "TSL201", dtd=paper_dtd())
        assert "element content" in diag.message
        assert diag.span == span_at(text, "joe")

    def test_tsl201_no_admissible_middle_label(self):
        # Nothing between p and phone: phone is atomic everywhere.
        text = "<f(P) x yes> :- <P p {<X L {<Z phone V>}>}>@db"
        (diag,) = findings(text, "TSL201", dtd=paper_dtd())
        assert diag.span == span_at(text, "phone")

    def test_tsl201_requires_no_rewriter(self, monkeypatch):
        import importlib

        chase_mod = importlib.import_module("repro.rewriting.chase")
        comp_mod = importlib.import_module("repro.rewriting.composition")
        rew_mod = importlib.import_module("repro.rewriting.rewriter")

        def boom(*args, **kwargs):
            raise AssertionError("the rewriting pipeline must not run")

        monkeypatch.setattr(rew_mod, "rewrite", boom)
        monkeypatch.setattr(rew_mod._Search, "run", boom)
        monkeypatch.setattr(comp_mod, "compose", boom)
        monkeypatch.setattr(chase_mod, "chase", boom)
        text = "<f(P) x yes> :- <P p {<X junk V>}>@db"
        assert findings(text, "TSL201", dtd=paper_dtd())

    def test_tsl202_unique_middle_label_inferred(self):
        text = "<f(P) yes V> :- <P p {<X L {<Z last V>}>}>@db"
        (diag,) = findings(text, "TSL202", dtd=paper_dtd())
        assert diag.severity is Severity.INFO
        assert diag.span == span_at(text, "L", width=1)
        assert "name" in diag.message
        assert diag.suggestion == "replace L with name"

    def test_satisfiable_query_clean(self, q7):
        from repro.tsl import print_query
        text = print_query(q7)
        diags = [d for d in analyze(parse_query(text), source_text=text,
                                    dtd=paper_dtd())
                 if d.code.startswith("TSL2")]
        assert diags == []

    def test_other_sources_ignored(self):
        text = "<f(P) x yes> :- <P p {<X junk V>}>@other"
        assert findings(text, "TSL201", dtd=paper_dtd()) == []


class TestViewCodes:
    def test_tsl301_view_without_exported_variables(self):
        query_text = "<f(P) x V> :- <P a V>@db"
        view_text = "<v all yes> :- <P p {<X name N>}>@db"
        view = parse_query(view_text, name="V1")
        diags = [d for d in analyze(parse_query(query_text),
                                    source_text=query_text,
                                    views={"V1": view},
                                    view_files={"V1": "v.tsl"})
                 if d.code == "TSL301"]
        (diag,) = diags
        assert diag.severity is Severity.WARNING
        assert diag.span == Span(1, 1, 1, 12)
        assert diag.file == "v.tsl"
        assert "V1" in diag.message

    def test_tsl301_exporting_view_clean(self):
        view = parse_query("<v(P) x V> :- <P a V>@db", name="V1")
        diags = analyze(parse_query("<f(P) x V> :- <P a V>@db"),
                        views={"V1": view})
        assert [d for d in diags if d.code == "TSL301"] == []


class TestAnalyzerPlumbing:
    def test_findings_sorted_by_position(self):
        text = "<f(P) x W> :- <Q a V>@db AND <R b 1>@db"
        diags = analyze(parse_query(text), source_text=text,
                        source_name="q.tsl")
        positions = [(d.span.line, d.span.column) for d in diags if d.span]
        assert positions == sorted(positions)
        assert all(d.file == "q.tsl" for d in diags)

    def test_pass_selection(self):
        text = "<f(P) x W> :- <P a V>@db AND <Q b 1>@db"
        only_wf = analyze(parse_query(text), passes=["wellformed"])
        assert {d.code for d in only_wf} == {"TSL001"}

    def test_clean_query_has_no_findings(self):
        text = ("<f(P) female {<f(X) Y Z>}> :- "
                "<P person {<G gender female>}>@db AND "
                "<P person {<X Y Z>}>@db")
        assert analyze(parse_query(text), source_text=text) == []

    def test_hand_built_query_without_spans(self):
        # Programmatic ASTs have no spans; diagnostics must still work.
        from repro.logic.terms import Constant, Variable
        from repro.tsl.ast import Condition, ObjectPattern, Query
        query = Query(
            ObjectPattern(Constant("h"), Constant("x"), Variable("W")),
            (Condition(ObjectPattern(Variable("P"), Constant("a"),
                                     Variable("V"))),))
        (diag,) = [d for d in analyze(query) if d.code == "TSL001"]
        assert diag.span is None
