"""Tests for the chase with the set-variable extension (Section 3.2)."""

import pytest

from repro.errors import ChaseContradictionError, CyclicPatternError
from repro.rewriting import chase, equivalent
from repro.tsl import parse_query, print_query, query_paths
from repro.tsl.ast import SetPattern


class TestExample34:
    """(Q11) chases to (Q10): the set variable becomes a set pattern."""

    def test_set_variable_becomes_pattern(self):
        q11 = parse_query(
            "<f(P) stan-student V> :- "
            "<P p {<U university stanford>}>@db AND <P p V>@db")
        chased = chase(q11)
        # V is gone; a fresh <X Y Z> pattern appears in body and head.
        assert "V" not in {v.name for v in chased.all_variables()}
        assert isinstance(chased.head.value, SetPattern)

    def test_chased_q11_equivalent_to_q10(self):
        q10 = parse_query(
            "<f(P) stan-student {<X Y Z>}> :- "
            "<P p {<U university stanford>}>@db AND <P p {<X Y Z>}>@db")
        q11 = parse_query(
            "<f(P) stan-student V> :- "
            "<P p {<U university stanford>}>@db AND <P p V>@db")
        assert equivalent(q10, q11)

    def test_head_is_rewritten_too(self):
        q11 = parse_query(
            "<f(P) x V> :- <P p {<U u 1>}>@db AND <P p V>@db")
        chased = chase(q11)
        assert isinstance(chased.head.value, SetPattern)


class TestKeyDependency:
    def test_labels_unify(self):
        q = parse_query("<f(P) x 1> :- <P a V>@db AND <P L W>@db")
        chased = chase(q)
        # L must be a: the oid key dependency determines the label.
        labels = {str(label) for path in query_paths(chased)
                  for _, label in path.steps}
        assert labels == {"a"}

    def test_conflicting_labels_raise(self):
        q = parse_query("<f(P) x 1> :- <P a V>@db AND <P b W>@db")
        with pytest.raises(ChaseContradictionError):
            chase(q)

    def test_values_unify(self):
        q = parse_query("<f(P) x V> :- <P a V>@db AND <P a 7>@db")
        chased = chase(q)
        assert str(chased.head.value) == "7"

    def test_conflicting_values_raise(self):
        q = parse_query("<f(P) x 1> :- <P a 7>@db AND <P a 8>@db")
        with pytest.raises(ChaseContradictionError):
            chase(q)

    def test_atomic_vs_set_raises(self):
        q = parse_query(
            "<f(P) x 1> :- <P a 7>@db AND <P a {<X b V>}>@db")
        with pytest.raises(ChaseContradictionError):
            chase(q)

    def test_duplicate_conditions_dropped(self):
        q = parse_query("<f(P) x V> :- <P a V>@db AND <P a V>@db")
        assert len(chase(q).body) == 1

    def test_variable_values_unify_across_occurrences(self):
        q = parse_query("<f(P) x V> :- <P a V>@db AND <P a W>@db")
        chased = chase(q)
        assert len(chased.body) == 1


class TestSaturation:
    """Rule 3 under normal form: shared oids graft their subtrees."""

    def test_subtree_grafts_across_prefixes(self):
        q = parse_query(
            "<f(P) x 1> :- <P p {<X a {<Y b 1>}>}>@db AND "
            "<Q p {<X a {<Z c 2>}>}>@db")
        chased = chase(q)
        rendered = print_query(chased)
        # X's children are asserted below both P and Q after the chase.
        assert rendered.count("<Y b 1>") >= 2
        assert rendered.count("<Z c 2>") >= 2

    def test_saturated_is_equivalent(self):
        q = parse_query(
            "<f(P) x 1> :- <P p {<X a {<Y b 1>}>}>@db AND "
            "<Q p {<X a {<Z c 2>}>}>@db")
        assert equivalent(q, chase(q))

    def test_no_grafting_without_shared_oids(self):
        q = parse_query(
            "<f(P) x 1> :- <P p {<X a 1>}>@db AND <Q p {<Y b 2>}>@db")
        assert len(chase(q).body) == 2


class TestEmptySetSubsumption:
    def test_empty_leaf_absorbed_by_longer_path(self):
        q = parse_query(
            "<f(P) x 1> :- <P p {}>@db AND <P p {<X a V>}>@db")
        chased = chase(q)
        assert len(chased.body) == 1
        assert "{<X a V>}" in print_query(chased)

    def test_standalone_empty_leaf_kept(self):
        q = parse_query("<f(P) x 1> :- <P p {}>@db")
        assert len(chase(q).body) == 1

    def test_empty_set_variable_not_expanded(self):
        # {}-evidence alone must NOT expand a value variable: the object
        # may be an empty set and {<X Y Z>} would wrongly demand a child.
        q = parse_query("<f(P) x V> :- <P p {}>@db AND <P p V>@db")
        chased = chase(q)
        assert "V" in {v.name for v in chased.all_variables()}


class TestFixpoint:
    def test_chase_idempotent(self):
        q = parse_query(
            "<f(P) stan-student V> :- "
            "<P p {<U university stanford>}>@db AND <P p V>@db")
        once = chase(q)
        assert chase(once) == once

    def test_cascading_merges(self):
        q = parse_query(
            "<f(P) x 1> :- <P a {<X b V>}>@db AND "
            "<Q a {<X b 7>}>@db AND <P a {<Y c W>}>@db")
        chased = chase(q)
        # V unified with 7 through the shared X.
        assert "V" not in {v.name for v in chased.all_variables()}


class TestCyclicPatterns:
    """Union saturation grafts forever on a cycle: the chase refuses it."""

    def test_self_nested_oid_raises_tsl003(self):
        cyclic = parse_query("<g(X) r Y> :- <X e {<X e Y>}>@db")
        with pytest.raises(CyclicPatternError) as info:
            chase(cyclic)
        assert info.value.code == "TSL003"
        assert "oid term X" in str(info.value)

    def test_cycle_through_two_paths_raises(self):
        cyclic = parse_query(
            "<g(X) r Y> :- <X a {<Z a Y>}>@db AND <Z a {<X a W>}>@db")
        with pytest.raises(CyclicPatternError):
            chase(cyclic)

    def test_same_oids_in_other_sources_are_not_a_cycle(self):
        # Saturation grafts per source, so a parent->child pair that
        # only closes a loop across sources terminates.
        query = parse_query(
            "<g(X) r Y> :- <X a {<Z a Y>}>@db AND <Z a {<X a W>}>@V")
        assert chase(query).body
