"""Tests for the evaluation explainer."""

import importlib

from repro.oem import build_database, obj
from repro.oem.serialize import database_to_json
from repro.tsl import body_assignments, evaluate, explain, parse_query

evaluator_mod = importlib.import_module("repro.tsl.evaluator")


def _db():
    return build_database("db", [
        obj("person", [obj("name", "ann"), obj("age", 31)], oid="p1"),
        obj("person", [obj("name", "bob")], oid="p2"),
    ])


class TestExplain:
    def test_rows_and_answer(self):
        q = parse_query("<f(P) x N> :- <P person {<X name N>}>@db")
        result = explain(q, _db())
        assert len(result.assignments) == 2
        names = {row["N"] for row in result.rows()}
        assert names == {"ann", "bob"}
        assert len(result.answer.roots) == 2

    def test_render_table(self):
        q = parse_query("<f(P) x N> :- <P person {<X name N>}>@db")
        text = explain(q, _db()).render()
        assert "N" in text and "ann" in text
        assert "2 assignment(s), 2 answer root(s)" in text

    def test_set_value_rendering(self):
        q = parse_query("<f(P) copy V> :- <P person V>@db")
        result = explain(q, _db())
        rendered = {row["V"] for row in result.rows()}
        assert any(value.startswith("{") for value in rendered)

    def test_empty_result(self):
        q = parse_query("<f(P) x 1> :- <P robot V>@db")
        text = explain(q, _db()).render()
        assert "no satisfying assignments" in text

    def test_matches_each_condition_once(self, monkeypatch):
        # The answer is built from the assignments explain already holds,
        # so the body is matched once, and the answer is evaluate()'s,
        # byte for byte.
        q = parse_query("<f(P) x N> :- <P person {<X name N>}>@db "
                        "AND <P person {<A age 31>}>@db")
        calls = []
        match_condition = evaluator_mod._match_condition

        def counting(condition, sources, subst):
            calls.append(condition)
            return match_condition(condition, sources, subst)

        monkeypatch.setattr(evaluator_mod, "_match_condition", counting)
        result = explain(q, _db())
        explained = list(calls)
        calls.clear()
        body_assignments(q, _db())
        assert explained == calls and len(calls) == 2
        monkeypatch.undo()
        assert database_to_json(result.answer) \
            == database_to_json(evaluate(q, _db()))
