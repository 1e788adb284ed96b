"""Tests for canonical query forms and stable hashes (identity keys)."""

import pytest

from repro.errors import ChaseContradictionError
from repro.logic.subst import Substitution
from repro.logic.terms import Variable
from repro.oracle.gen import PROFILES, generate_case
from repro.rewriting import (RewriteSession, canon, canonicalize, chase,
                             equivalent, program_key, query_key)
from repro.rewriting.canon import (CANON_STEM, Canonical, _collect_variables,
                                   _condition_skeleton)
from repro.rewriting.constraints import paper_dtd
from repro.tsl import parse_query
from repro.tsl.ast import Query
from repro.tsl.normalize import normalize
from repro.workloads import (condition_view, conference_query,
                             conference_view, k_conditions_query,
                             query_q3, query_q5, query_q7,
                             sigmod_97_query, view_v1)
from repro.workloads.biblio import CONFERENCES


def reversed_body(query: Query) -> Query:
    return Query(query.head, tuple(reversed(query.body)), name=query.name)


class TestQueryKey:
    def test_stable_across_calls(self):
        q = sigmod_97_query()
        assert query_key(q) == query_key(q)

    def test_invariant_under_renaming(self):
        q = k_conditions_query(3)
        assert query_key(q) == query_key(q.rename_apart("renamed"))

    def test_invariant_under_body_reorder(self):
        q = k_conditions_query(3)
        assert query_key(q) == query_key(reversed_body(q))

    def test_invariant_under_both_at_once(self):
        q = sigmod_97_query()
        variant = reversed_body(q.rename_apart("x"))
        assert query_key(q) == query_key(variant)

    def test_distinct_queries_get_distinct_keys(self):
        keys = {query_key(condition_view(i)) for i in range(1, 6)}
        assert len(keys) == 5

    def test_constants_distinguish(self):
        assert query_key(conference_query("sigmod")) \
            != query_key(conference_query("vldb"))

    def test_structural_difference_distinguishes(self):
        left = parse_query("<f(X) r X> :- <X a Y>@db")
        right = parse_query("<f(X) r X> :- <X a Y>@db AND <Y b Z>@db")
        assert query_key(left) != query_key(right)


class TestCanonicalize:
    def test_canonical_query_is_equivalent(self):
        for q in (k_conditions_query(2), sigmod_97_query(),
                  conference_query("sigmod", 1997)):
            assert equivalent(q, canonicalize(q).query)

    def test_idempotent(self):
        canon = canonicalize(sigmod_97_query()).query
        again = canonicalize(canon)
        assert again.query == canon
        assert again.key == canonicalize(sigmod_97_query()).key

    def test_variables_use_canon_stem(self):
        canon = canonicalize(k_conditions_query(2)).query
        assert all(v.name.startswith("$")
                   for v in canon.all_variables())

    def test_forward_maps_original_variables(self):
        q = k_conditions_query(2)
        canon = canonicalize(q)
        assert set(canon.forward) == set(q.all_variables())


class TestAliasChase:
    """Alpha-variants share a canonical key, but the session's chase
    memo serves each query its own chase, never one renamed from
    another's."""

    def test_alias_chase_keeps_probe_variables(self):
        q = k_conditions_query(2)
        renamed = q.rename_apart("z")
        assert canonicalize(q).key == canonicalize(renamed).key
        session = RewriteSession([])
        session.chase(q)
        assert session.chase(renamed) == chase(renamed)
        assert str(session.chase(renamed)) == str(chase(renamed))

    def test_alias_chase_keeps_fresh_chase_variables_distinct(self):
        # sigmod_97's chase introduces fresh W_n variables; the alias's
        # chase must not capture them either.
        q = sigmod_97_query()
        renamed = q.rename_apart("w")
        session = RewriteSession([])
        session.chase(q)
        served = session.chase(renamed)
        assert served == chase(renamed)
        assert query_key(served) == query_key(chase(renamed))


class TestOtherKeys:
    def test_program_key_order_and_rename_invariant(self):
        a, b = condition_view(1), condition_view(2)
        assert program_key([a, b]) == program_key([b.rename_apart("p"), a])
        assert program_key([a]) != program_key([a, b])


@pytest.mark.parametrize("seed", range(0, 18, 3))
@pytest.mark.parametrize("profile", ["conjunctive", "copy"])
def test_key_invariance_on_generated_cases(seed, profile):
    """Property: keys are rename/reorder invariant on fuzzer queries."""
    case = generate_case(seed, PROFILES[profile])
    for q in (case.query, *case.views.values()):
        variant = reversed_body(q.rename_apart("v"))
        assert query_key(q) == query_key(variant)
        assert canonicalize(q).query == canonicalize(variant).query


# --------------------------------------------------------------------------
# Refinement that settles (numerically ordered indices)
# --------------------------------------------------------------------------

def _reference_numbering(head, body) -> Substitution:
    occurrences: list[Variable] = []
    _collect_variables(head, occurrences)
    for condition in body:
        _collect_variables(condition.pattern, occurrences)
    forward: dict[Variable, Variable] = {}
    for variable in occurrences:
        if variable not in forward:
            forward[variable] = Variable(f"{CANON_STEM}{len(forward)}")
    return Substitution(forward)


def _reference_canonicalize(query: Query) -> Canonical:
    """The string-ordered refinement loop :func:`canonicalize` replaced.

    It sorts conjuncts by their rendered text, where ``$10`` sorts
    before ``$2``, so on queries with more than ten variables a pass can
    undo the previous one and the result depends on ``_MAX_PASSES``.
    Kept as the reference for queries with at most ten variables, where
    both loops must agree byte for byte.
    """
    current = normalize(query)
    body = sorted(current.body, key=_condition_skeleton)
    forward = _reference_numbering(current.head, body)
    for _ in range(canon._MAX_PASSES):
        rendered = sorted(((str(c.substitute(forward)), c) for c in body),
                          key=lambda item: item[0])
        reordered = [c for _, c in rendered]
        renumbered = _reference_numbering(current.head, reordered)
        if reordered == body and renumbered == forward:
            break
        body, forward = reordered, renumbered
    return Canonical(
        Query(current.head.substitute(forward),
              tuple(c.substitute(forward) for c in body)),
        forward)


def wide_conference_query(n: int) -> Query:
    """The conference query with its two conjuncts repeated *n* times
    under fresh names: ``4 n + 1`` variables, the shape of the wide
    biblio compositions."""
    body = " AND ".join(
        f"<P pub {{<B{i} booktitle sigmod>}}>@db AND "
        f"<P pub {{<X{i} L{i} W{i}>}}>@db" for i in range(1, n + 1))
    return parse_query(f"<hit(P) pub {{<c(P,L1,W1) L1 W1>}}> :- {body}")


WIDE = [pytest.param(n, id=f"n{n}") for n in range(3, 9)]


def _canonicalize_with_bound(query: Query, passes: int, monkeypatch):
    canonicalize.cache_clear()
    monkeypatch.setattr(canon, "_MAX_PASSES", passes)
    try:
        return canonicalize(query)
    finally:
        monkeypatch.undo()
        canonicalize.cache_clear()


@pytest.mark.parametrize("n", WIDE)
@pytest.mark.parametrize("passes", [9, 64])
def test_wide_key_independent_of_pass_bound(n, passes, monkeypatch):
    query = wide_conference_query(n)
    key = canonicalize(query).key
    assert len(canonicalize(query).forward) > 10
    assert _canonicalize_with_bound(query, passes, monkeypatch).key == key


@pytest.mark.parametrize("n", WIDE)
def test_wide_canonical_form_is_idempotent(n):
    c = canonicalize(wide_conference_query(n))
    again = canonicalize(c.query)
    assert again.query == c.query
    assert again.key == c.key


@pytest.mark.parametrize("n", WIDE)
def test_wide_refinement_settles_before_the_bound(n, monkeypatch):
    """Some bound below ``_MAX_PASSES`` already yields the settled form,
    so the loop stops on its fixpoint, not on the safety net."""
    query = wide_conference_query(n)
    settled = _canonicalize_with_bound(query, 64, monkeypatch).query
    assert any(_canonicalize_with_bound(query, passes, monkeypatch).query
               == settled for passes in range(1, canon._MAX_PASSES))


def _parity_corpus(monkeypatch) -> list[Query]:
    """Generated, paper and conference queries and views, plus every
    query :func:`canonicalize` or the session's chase memo is asked for
    while they are rewritten."""
    corpus: list[Query] = []
    for profile in sorted(PROFILES):
        for seed in range(60):
            case = generate_case(seed, PROFILES[profile])
            corpus += [case.query, *case.views.values()]
            try:
                corpus.append(chase(case.query, case.constraints))
            except ChaseContradictionError:
                pass
    paper = [query_q3(), query_q5(), query_q7()]
    biblio = [conference_query(c, 1997) for c in CONFERENCES[:3]]
    views = {f"V{c}": conference_view(c, f"V{c}") for c in CONFERENCES[:3]}
    corpus += [*paper, view_v1(), *biblio, *views.values(),
               conference_query("sigmod")]
    original = canon.canonicalize

    def recording(query):
        corpus.append(query)
        return original(query)

    session_chase = RewriteSession.chase

    def recording_chase(self, query, **kwargs):
        corpus.append(query)
        return session_chase(self, query, **kwargs)

    monkeypatch.setattr(canon, "canonicalize", recording)
    monkeypatch.setattr(RewriteSession, "chase", recording_chase)
    session = RewriteSession({"V1": view_v1()}, paper_dtd())
    for q in paper:
        session.rewrite(q)
    session = RewriteSession(views)
    for q in biblio:
        session.rewrite(q)
    monkeypatch.undo()
    return corpus


def test_reference_parity_on_narrow_queries(monkeypatch):
    """Byte-identical forms and keys wherever the old loop was sound;
    an equivalent, bijectively renamed form everywhere else."""
    corpus = _parity_corpus(monkeypatch)
    narrow = wide = 0
    for query in corpus:
        c = canonicalize(query)
        if len(c.forward) <= 10:
            narrow += 1
            ref = _reference_canonicalize(query)
            assert c.query == ref.query, str(query)
            assert str(c.query) == str(ref.query)
            assert c.forward == ref.forward
            assert c.key == ref.key
        else:
            wide += 1
            assert equivalent(query, c.query), str(query)
            names = sorted(v.name for _, v in c.forward.items())
            assert names == sorted(f"{CANON_STEM}{i}"
                                   for i in range(len(c.forward)))
            assert canonicalize(c.query).query == c.query
    assert narrow > 500 and wide > 0


def test_served_and_generated_queries_settle(monkeypatch):
    """One pass fewer than ``_MAX_PASSES`` already gives every form, so
    no query of the parity corpus needs the safety net."""
    corpus = list(dict.fromkeys(_parity_corpus(monkeypatch)))
    settled = [canonicalize(q).query for q in corpus]
    canonicalize.cache_clear()
    monkeypatch.setattr(canon, "_MAX_PASSES", canon._MAX_PASSES - 1)
    try:
        assert [canonicalize(q).query for q in corpus] == settled
    finally:
        canonicalize.cache_clear()

