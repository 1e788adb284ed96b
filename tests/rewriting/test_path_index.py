"""The target-path index and the hot-path kernels built around it.

Covers the PR's tentpole invariant -- the indexed mapping search is
*observationally identical* to the exhaustive scan (same mapping lists,
same order) -- plus the satellite fixes: the most-constrained-first sort
key counts constants and bound variables, ``component_mapping`` returns
substitutions over fully un-renamed domains, the fast chase kernels
agree with the reference kernels kept here, prepared views are cached per
session, and the ``rewrite.index.*`` metrics plumbing.
"""

import importlib

import pytest

from repro.analysis.viewset.signature import view_signature
from repro.logic.subst import Substitution
from repro.obs import MetricsRegistry
from repro.rewriting import (DEFAULT_MEMO_SIZE, PathIndex, RewriteSession,
                             most_constrained_order, paper_dtd,
                             programs_equivalent, rewrite,
                             statically_compatible)
from repro.rewriting.canon import query_key
from repro.rewriting.chase import chase
from repro.rewriting.constraints import ChildSpec, Dtd
from repro.rewriting.equivalence import prepare_program
from repro.rewriting.mappings import (_unrename, body_mappings,
                                      component_mapping, coverage,
                                      find_mappings, map_path_into,
                                      rename_paths_apart)
from repro.rewriting.rewriter import _Search
from repro.tsl import parse_query, query_paths
from repro.tsl.ast import SetPattern
from repro.tsl.decompose import decompose_program
from repro.tsl.normalize import Path, normalize
from repro.logic.terms import Constant, Variable
from repro.workloads import (condition_view, k_conditions_query, query_q3,
                             query_q7, star_query, star_view, view_v1)
from tests.rewriting.step1a import view_atoms


def _paths(text):
    return query_paths(parse_query(text))


def fingerprint(result):
    return {(query_key(r.query), tuple(sorted(r.views_used)))
            for r in result.rewritings}


# --------------------------------------------------------------------------
# PathIndex: pruning is sound, candidates preserve scan order
# --------------------------------------------------------------------------

class TestPathIndex:
    def test_source_mismatch_is_statically_incompatible(self):
        [a] = _paths("<f(X) r 1> :- <P p V>@db1")
        [b] = _paths("<f(X) r 1> :- <P p V>@db2")
        assert not statically_compatible(a, b)

    def test_deeper_source_is_statically_incompatible(self):
        [a] = _paths("<f(X) r 1> :- <P p {<X name V>}>@db")
        [b] = _paths("<f(X) r 1> :- <Q p W>@db")
        assert not statically_compatible(a, b)

    def test_label_constant_clash_is_statically_incompatible(self):
        [a] = _paths("<f(X) r 1> :- <P alpha V>@db")
        [b] = _paths("<f(X) r 1> :- <Q beta W>@db")
        assert not statically_compatible(a, b)

    def test_variable_label_is_compatible_with_anything(self):
        [a] = _paths("<f(X) r 1> :- <P L V>@db")
        [b] = _paths("<f(X) r 1> :- <Q beta W>@db")
        assert statically_compatible(a, b)

    def test_candidates_are_ascending_and_sound(self):
        targets = _paths(
            "<f(X) r 1> :- <P alpha V>@db AND <Q beta W>@db AND "
            "<R alpha {<S gamma U>}>@db")
        index = PathIndex(targets)
        for text in ("<f(X) r 1> :- <A alpha B>@db",
                     "<f(X) r 1> :- <A L B>@db",
                     "<f(X) r 1> :- <A beta 7>@db"):
            [source] = _paths(text)
            candidates = index.candidates(source)
            assert candidates == sorted(candidates)
            # Soundness: every skipped target provably rejects the path.
            [renamed], start = rename_paths_apart([source], None)
            for position in set(range(len(targets))) - set(candidates):
                assert map_path_into(renamed, targets[position],
                                     start) is None


# --------------------------------------------------------------------------
# Satellite: most-constrained-first counts constants and bound variables
# --------------------------------------------------------------------------

class TestMostConstrainedOrder:
    def test_constant_rich_short_path_precedes_long_variable_path(self):
        # One step but two constants + a constant leaf beats two steps
        # of pure variables -- the old length-only key got this wrong.
        paths = _paths(
            "<f(X) r 1> :- <A L1 {<B L2 V>}>@db AND <P alpha leland>@db")
        long_variable, constant_rich = paths
        order = most_constrained_order(paths, frozenset())
        assert order == [1, 0]
        assert paths[order[0]] is constant_rich
        assert paths[order[1]] is long_variable

    def test_bound_variables_count_toward_the_score(self):
        paths = _paths("<f(X) r 1> :- <P L V>@db AND <Q M W>@db")
        assert most_constrained_order(paths, frozenset()) == [0, 1]
        bound = frozenset({Variable("Q"), Variable("M")})
        assert most_constrained_order(paths, bound) == [1, 0]

    def test_search_results_are_order_insensitive(self):
        # The ordering is a performance heuristic: the mapping *set*
        # matches the brute result regardless (parity is the oracle's
        # job; here we just pin the list against the unindexed scan).
        source = _paths(
            "<f(X) r 1> :- <A L1 {<B L2 V>}>@db AND <P alpha leland>@db")
        target = _paths(
            "<f(X) r 1> :- <P alpha leland>@db AND "
            "<C gamma {<D delta U>}>@db")
        assert body_mappings(source, target) == \
            body_mappings(source, target, use_index=False)


# --------------------------------------------------------------------------
# Satellite: component_mapping domains carry no rename markers
# --------------------------------------------------------------------------

class TestComponentMappingDomains:
    def test_unrename_strips_stacked_markers(self):
        doubled = Substitution({Variable("X††"): Variable("Y")})
        assert _unrename(doubled) == \
            Substitution({Variable("X"): Variable("Y")})

    def test_self_mapping_domain_is_marker_free(self):
        # component_mapping renames its paths apart *before* handing
        # them to body_mappings (which renames again); the result must
        # come back over the original variables, not half-stripped ones.
        for rule in (view_v1(), query_q3(), star_view(2)):
            prepared = prepare_program([rule], None)
            for component in decompose_program(prepared):
                subst = component_mapping(component, component)
                assert subst is not None
                for variable, image in subst.items():
                    assert "†" not in variable.name, subst
                    for v in image.variables():
                        assert "†" not in v.name, subst


# --------------------------------------------------------------------------
# Tentpole: indexed search == exhaustive scan, list-for-list
# --------------------------------------------------------------------------

class TestIndexedScanParity:
    WORKLOADS = [
        (view_v1, query_q3),
        (view_v1, query_q7),
        (lambda: star_view(3), lambda: star_query(3)),
        (lambda: star_view(3, distinct_labels=True),
         lambda: star_query(3, distinct_labels=True)),
        (lambda: condition_view(1), lambda: k_conditions_query(4)),
        (lambda: star_view(2), lambda: k_conditions_query(3)),
    ]

    @pytest.mark.parametrize("make_view,make_query", WORKLOADS)
    def test_find_mappings_lists_are_identical(self, make_view,
                                               make_query):
        view = chase(make_view(), None)
        query = chase(make_query(), None)
        assert find_mappings(view, query) == \
            find_mappings(view, query, use_index=False)

    @pytest.mark.parametrize("make_view,make_query", WORKLOADS)
    def test_body_mappings_lists_are_identical(self, make_view,
                                               make_query):
        source = query_paths(chase(make_view(), None))
        target = query_paths(chase(make_query(), None))
        assert body_mappings(source, target) == \
            body_mappings(source, target, use_index=False)

    def test_coverage_parity_under_every_found_mapping(self):
        view = chase(star_view(3), None)
        query = chase(star_query(3), None)
        source = query_paths(view)
        target = query_paths(query)
        mappings = body_mappings(source, target)
        assert mappings
        for subst in mappings:
            assert coverage(source, target, subst) == \
                coverage(source, target, subst, use_index=False)

    def test_shared_prebuilt_index_matches_fresh_one(self):
        query = chase(star_query(3), None)
        index = PathIndex(query_paths(query))
        for view in (star_view(3), condition_view(1)):
            chased = chase(view, None)
            assert find_mappings(chased, query, index=index) == \
                find_mappings(chased, query)


# --------------------------------------------------------------------------
# Fast chase kernels vs their legacy counterparts
# --------------------------------------------------------------------------
#
# The quadratic kernels the worklist / batched ones in
# ``repro.rewriting.chase`` replaced: same fixpoint, more rebuild work.
# They live here as the reference the fast kernels are checked against.

def saturate_unions_legacy(paths):
    """Sweep-until-stable union saturation (same closure)."""
    seen = set(paths)
    ordered = list(paths)
    changed = True
    while changed:
        changed = False
        by_oid = {}
        for path in ordered:
            for depth in range(len(path.steps)):
                key = (path.source, path.steps[depth][0])
                by_oid.setdefault(key, []).append((path, depth))
        for group in by_oid.values():
            if len(group) < 2:
                continue
            # Graft every continuation below the shared oid onto every
            # prefix reaching it.
            prefixes = {path.steps[:depth + 1] for path, depth in group}
            for path, depth in group:
                if depth == len(path.steps) - 1:
                    continue  # leaf occurrence: nothing to graft
                suffix = path.steps[depth + 1:]
                for prefix in prefixes:
                    grafted = Path(prefix + suffix, path.leaf, path.source)
                    if grafted not in seen:
                        seen.add(grafted)
                        ordered.append(grafted)
                        changed = True
    return ordered


def drop_subsumed_empty_paths_legacy(paths):
    """All-pairs scan for ``{}``-leaf paths under a longer path."""
    kept = []
    for path in paths:
        if isinstance(path.leaf, SetPattern):
            subsumed = any(
                other is not path
                and other.source == path.source
                and len(other.steps) > len(path.steps)
                and other.steps[:len(path.steps)] == path.steps
                for other in paths)
            if subsumed:
                continue
        kept.append(path)
    return kept


def label_inference_step_legacy(query, paths, constraints):
    """Bind one inferable variable label (Section 3.3); None at fixpoint."""
    for path in paths:
        if path.source != constraints.source:
            continue
        for depth, (_oid, label) in enumerate(path.steps):
            if not isinstance(label, Variable):
                continue
            inferred = None
            if depth > 0:
                parent_label = path.steps[depth - 1][1]
                if isinstance(parent_label, Constant):
                    if depth + 1 < len(path.steps):
                        child_label = path.steps[depth + 1][1]
                        if isinstance(child_label, Constant):
                            inferred = constraints.infer_middle_label(
                                parent_label.value, child_label.value)
                    if inferred is None:
                        inferred = constraints.only_child_label(
                            parent_label.value)
            if inferred is not None:
                subst = Substitution({label: Constant(inferred)})
                return normalize(query.substitute(subst))
    return None


LEGACY_KERNELS = {
    "_saturate_unions": saturate_unions_legacy,
    "_drop_subsumed_empty_paths": drop_subsumed_empty_paths_legacy,
    "_label_inference_step": label_inference_step_legacy,
}


def chain_dtd():
    """l1 -> l2 -> l3 -> l4, one child each: every label is inferable."""
    dtd = Dtd(source="db")
    for level in range(1, 4):
        dtd.declare(f"l{level}", [ChildSpec(f"l{level + 1}", "1")])
    return dtd.declare_atomic("l4")


def variable_label_chain():
    """Label inference must bind L2 and L3 (under :func:`chain_dtd`)."""
    return parse_query("<f(X1) result V> :- "
                       "<X1 l1 {<X2 L2 {<X3 L3 {<X4 l4 V>}>}>}>@db")


def shared_oid_query():
    """P is reached through R and S: union saturation grafts both ways."""
    return parse_query("<f(P) r V> :- <R r {<P a {<X b V>}>}>@db AND "
                       "<S s {<P a {<Y c W>}>}>@db")


def shared_empty_set_query():
    """After grafting, the ``{}`` path under R is subsumed and dropped."""
    return parse_query("<f(P) r W> :- <R r {<P a {}>}>@db AND "
                       "<S s {<P a {<Y c W>}>}>@db")


class TestChaseLegacyParity:
    CASES = [
        (query_q3, None),
        (query_q7, None),
        (query_q3, "dtd"),
        (query_q7, "dtd"),
        (view_v1, "dtd"),
        (lambda: star_query(4), None),
        (lambda: k_conditions_query(5), None),
        # The cases above reach none of the three kernels' rewrites;
        # each of these does (checked by breaking each kernel in turn).
        (variable_label_chain, "chain"),
        (shared_oid_query, None),
        (shared_empty_set_query, None),
    ]

    @pytest.mark.parametrize("make_query,constraints", CASES)
    def test_fast_and_legacy_chase_agree(self, make_query, constraints,
                                         monkeypatch):
        dtd = {"dtd": paper_dtd, "chain": chain_dtd,
               None: lambda: None}[constraints]()
        query = make_query()
        fast = query_key(chase(query, dtd))
        # ``repro.rewriting.chase`` is shadowed by the function of the
        # same name on the package, so fetch the module itself.
        module = importlib.import_module("repro.rewriting.chase")
        for name, reference in LEGACY_KERNELS.items():
            monkeypatch.setattr(module, name, reference)
        assert query_key(chase(query, dtd)) == fast

    def test_fast_chase_is_deterministic(self):
        dtd = paper_dtd()
        keys = {query_key(chase(query_q3(), dtd)) for _ in range(5)}
        assert len(keys) == 1


# --------------------------------------------------------------------------
# Prepared views: built once with their signature, invalidated on swap
# --------------------------------------------------------------------------

class TestViewPlans:
    def test_plan_is_cached_and_complete(self):
        # Kept even by a zero-capacity session, with their signatures:
        # they depend only on the (views, constraints) pair.
        for memo_size in (DEFAULT_MEMO_SIZE, 0):
            session = RewriteSession({"V1": view_v1()}, memo_size=memo_size)
            v1 = session.prepared_view("V1")
            assert session.prepared_view("V1") is v1
            assert query_key(v1) == query_key(chase(view_v1(), None))
            assert session.signature_index().signature("V1") == \
                view_signature(v1)

    def test_update_views_invalidates_plans(self):
        session = RewriteSession({"V1": view_v1()})
        v1 = session.prepared_view("V1")
        index = session.signature_index()
        session.update_views({"V1": view_v1()})
        assert session.prepared_view("V1") is not v1
        assert session.signature_index() is not index


# --------------------------------------------------------------------------
# Batched equivalence: precomputed right components change nothing
# --------------------------------------------------------------------------

class TestRightComponents:
    @pytest.mark.parametrize("left,right,expected", [
        (query_q3, query_q3, True),
        (query_q3, query_q7, False),
        (lambda: star_query(2), lambda: star_query(2), True),
    ])
    def test_precomputed_components_give_the_same_verdict(self, left,
                                                          right,
                                                          expected):
        # The search prepares the target's components once; its Step 2
        # over them agrees with the plain Theorem 4.3 test.
        search = _Search(RewriteSession((), memo_size=0))
        assert search.prepare(right())
        left_components = decompose_program(prepare_program([left()],
                                                            None))
        assert programs_equivalent([left()], [right()]) is expected
        assert search._equivalent(left_components, None) is expected


# --------------------------------------------------------------------------
# Rewriting parity and metrics plumbing (mirrors the signature pre-filter)
# --------------------------------------------------------------------------

class TestFlagAndMetrics:
    def views(self):
        return {"V1": condition_view(1), "V2": condition_view(2)}

    def test_no_path_index_gives_identical_rewritings(self, monkeypatch):
        # Step 1A's mapping searches forced onto the exhaustive scan
        # find the same rewritings and tally no index work.
        rewriter = importlib.import_module("repro.rewriting.rewriter")
        query = k_conditions_query(2)
        on = rewrite(query, self.views())
        monkeypatch.setattr(
            rewriter, "find_mappings",
            lambda view, target, **kwargs: find_mappings(
                view, target, budget=kwargs.get("budget"),
                use_index=False))
        off = rewrite(query, self.views())
        assert fingerprint(on) == fingerprint(off)
        assert on.rewritings
        assert off.stats.index_hits == 0
        assert off.stats.index_skips == 0

    def test_index_counters_are_emitted(self):
        registry = MetricsRegistry()
        session = RewriteSession(self.views(), metrics=registry)
        result = session.rewrite(k_conditions_query(2))
        counters = registry.snapshot()["counters"]
        assert counters["rewrite.index.hits"] == result.stats.index_hits
        assert counters["rewrite.index.skips"] == result.stats.index_skips
        assert result.stats.index_hits > 0
        # The search's counts are its Step 1A's over the session.
        _atoms, step1a = view_atoms(k_conditions_query(2), session=session)
        assert (step1a.index_hits, step1a.index_skips) == \
            (result.stats.index_hits, result.stats.index_skips)

    def test_index_skips_on_views_the_signature_admits(self):
        # Every label of V9 occurs in q, so the signature pre-filter
        # admits it; its nested path matches none of q's flat ones, so
        # only the path index stands between it and a doomed mapping
        # search.
        nested = parse_query("<g(P) row V> :- <P c1 {<X c2 V>}>@db",
                             name="V9")
        views = {"V1": condition_view(1), "V9": nested}
        atoms, stats = view_atoms(k_conditions_query(2), views)
        assert stats.views_pruned_signature == 0
        assert stats.index_skips > 0
        assert {a.view for a in atoms} == {"V1"}

