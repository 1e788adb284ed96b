"""Tests for the TSL equivalence test (Section 4, Theorems 4.2-4.3)."""

from repro.rewriting import equivalent, minimize, programs_equivalent
from repro.rewriting.equivalence import prepare_program
from repro.tsl import parse_query


class TestEquivalent:
    def test_reflexive(self):
        q = parse_query("<f(P) x V> :- <P a {<X b V>}>@db")
        assert equivalent(q, q)

    def test_alpha_renaming(self):
        a = parse_query("<f(P) x V> :- <P a {<X b V>}>@db")
        b = parse_query("<f(Q) x W> :- <Q a {<Y b W>}>@db")
        assert equivalent(a, b)

    def test_redundant_condition_is_equivalent(self):
        a = parse_query("<f(P) x V> :- <P a {<X b V>}>@db")
        b = parse_query(
            "<f(P) x V> :- <P a {<X b V>}>@db AND <P a {<Y b W>}>@db")
        assert equivalent(a, b)

    def test_constant_filter_not_equivalent(self):
        a = parse_query("<f(P) x V> :- <P a {<X b V>}>@db")
        b = parse_query("<f(P) x 1> :- <P a {<X b 1>}>@db")
        assert not equivalent(a, b)

    def test_head_label_matters(self):
        a = parse_query("<f(P) x V> :- <P a V>@db")
        b = parse_query("<f(P) y V> :- <P a V>@db")
        assert not equivalent(a, b)

    def test_head_oid_functor_matters(self):
        a = parse_query("<f(P) x V> :- <P a V>@db")
        b = parse_query("<g(P) x V> :- <P a V>@db")
        assert not equivalent(a, b)

    def test_head_structure_matters(self):
        a = parse_query("<f(P) x V> :- <P a V>@db")
        b = parse_query("<f(P) x {<g(P) y V>}> :- <P a V>@db")
        assert not equivalent(a, b)

    def test_depth_difference(self):
        a = parse_query("<f(P) x 1> :- <P a {<X b V>}>@db")
        b = parse_query("<f(P) x 1> :- <P a {<X b {<Y c V>}>}>@db")
        assert not equivalent(a, b)

    def test_source_matters(self):
        a = parse_query("<f(P) x V> :- <P a V>@db1")
        b = parse_query("<f(P) x V> :- <P a V>@db2")
        assert not equivalent(a, b)

    def test_normal_form_does_not_matter(self):
        branching = parse_query(
            "<f(P) x 1> :- <P a {<X b V> <Y c W>}>@db")
        split = parse_query(
            "<f(P) x 1> :- <P a {<X b V>}>@db AND <P a {<Y c W>}>@db")
        assert equivalent(branching, split)

    def test_chase_applied_before_comparison(self):
        # Q10/Q11 equivalence needs the set-variable chase first.
        q10 = parse_query(
            "<f(P) s {<X Y Z>}> :- <P p {<U u 1>}>@db AND <P p {<X Y Z>}>@db")
        q11 = parse_query(
            "<f(P) s V> :- <P p {<U u 1>}>@db AND <P p V>@db")
        assert equivalent(q10, q11)


class TestUnions:
    def test_union_covering_single(self):
        single = [parse_query("<f(P) x V> :- <P a {<X b V>}>@db")]
        union = [
            parse_query("<f(P) x V> :- <P a {<X b V>}>@db"),
            parse_query("<f(P) x V> :- <P a {<X b V> <Y c W>}>@db"),
        ]
        # The second rule is contained in the first: union == single.
        assert programs_equivalent(union, single)

    def test_genuinely_larger_union(self):
        single = [parse_query("<f(P) x V> :- <P a {<X b V>}>@db")]
        union = [
            parse_query("<f(P) x V> :- <P a {<X b V>}>@db"),
            parse_query("<f(P) x V> :- <P c {<X b V>}>@db"),
        ]
        assert not programs_equivalent(union, single)

    def test_contradictory_rule_drops_out(self):
        single = [parse_query("<f(P) x V> :- <P a {<X b V>}>@db")]
        union = [
            parse_query("<f(P) x V> :- <P a {<X b V>}>@db"),
            # This rule chases to a contradiction (label conflict on P):
            parse_query("<f(P) x V> :- <P a {<X b V>}>@db AND <P c W>@db"),
        ]
        assert programs_equivalent(union, single)

    def test_empty_programs(self):
        assert programs_equivalent([], [])
        assert not programs_equivalent(
            [], [parse_query("<f(P) x V> :- <P a V>@db")])

    def test_rules_split_across_heads(self):
        # Two rules contributing parts of one graph vs one rule building
        # it whole (the fusion phenomenon of Section 4).
        whole = [parse_query(
            "<f(P) rec {<g1(P) u U> <g2(P) w W>}> :- "
            "<P a {<X u U>}>@db AND <P a {<Y w W>}>@db")]
        split = [
            parse_query("<f(P) rec {<g1(P) u U>}> :- "
                        "<P a {<X u U>}>@db AND <P a {<Y w W>}>@db"),
            parse_query("<f(P) rec {<g2(P) w W>}> :- "
                        "<P a {<X u U>}>@db AND <P a {<Y w W>}>@db"),
        ]
        assert programs_equivalent(whole, split)

    def test_split_without_join_not_equivalent(self):
        whole = [parse_query(
            "<f(P) rec {<g1(P) u U> <g2(P) w W>}> :- "
            "<P a {<X u U>}>@db AND <P a {<Y w W>}>@db")]
        split = [
            parse_query("<f(P) rec {<g1(P) u U>}> :- <P a {<X u U>}>@db"),
            parse_query("<f(P) rec {<g2(P) w W>}> :- <P a {<Y w W>}>@db"),
        ]
        # The split version also fires when only one of u/w exists.
        assert not programs_equivalent(whole, split)


class TestMinimize:
    def test_redundant_path_removed(self):
        q = parse_query(
            "<f(P) x V> :- <P a {<X b V>}>@db AND <P a {<Y b W>}>@db")
        minimized = minimize(q)
        assert len(minimized.body) == 1
        assert equivalent(q, minimized)

    def test_head_variables_protected(self):
        q = parse_query(
            "<f(P,X) x V> :- <P a {<X b V>}>@db AND <P a {<Y b W>}>@db")
        minimized = minimize(q)
        # X is in the head: the X-path must survive.
        assert any("X" in str(c) for c in minimized.body)

    def test_core_of_triangle(self):
        q = parse_query(
            "<f(P) x 1> :- <P a {<X b 1>}>@db AND <P a {<Y b V>}>@db "
            "AND <P a {<Z b W>}>@db")
        assert len(minimize(q).body) == 1

    def test_nothing_to_remove(self):
        q = parse_query(
            "<f(P) x 1> :- <P a {<X b V>}>@db AND <P a {<Y c W>}>@db")
        assert len(minimize(q).body) == 2


class TestPrepareProgram:
    def test_contradiction_dropped(self):
        rules = [parse_query("<f(P) x 1> :- <P a 1>@db AND <P a 2>@db")]
        assert prepare_program(rules) == []

    def test_normalizes(self):
        rules = [parse_query("<f(P) x 1> :- <P a {<X b 1> <Y c 2>}>@db")]
        [prepared] = prepare_program(rules)
        assert len(prepared.body) == 2
