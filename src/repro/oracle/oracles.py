"""The executable oracles, one per invariant family (see below).

Each oracle takes a generated :class:`~repro.oracle.gen.Case` and returns
the invariant violations it found.  The oracles are *executable
specifications* of the paper's claims:

semantic
    Soundness of the rewriter (Lemma 5.3 direction of Theorem 5.5): every
    emitted rewriting -- and its composition with the view definitions --
    evaluates to a result identical to the original query's on the
    concrete database.  Plus completeness on cases constructed to admit a
    rewriting (the exposing view).  The truth itself is checked first:
    the query's and each view's direct evaluation, which the database's
    label and value indexes drive, must be identical to evaluation
    through the Datalog translation (E13), which uses none of them.
    The maximally contained search (Section 7) is held to the same
    standard, under a budget: each returned composition's answer is
    contained in the query's, an ``is_equivalent`` one's is identical,
    and the exposing view yields an equivalent rewriting.  It runs
    again without the exposing view, whose equivalent rewriting would
    otherwise be the only one returned, so contained ones are checked.
    The rewriter also reruns under a seeded random step budget: a
    truncated result must be a subset of the unbudgeted one (what a
    server's 408 promises) and an untruncated one equal to it.

containment
    Differential check of the containment-mapping engine against the
    brute-force enumerator of :mod:`repro.oracle.brute`, and of the
    Section 4 equivalence verdicts against actual evaluation (an
    ``equivalent`` verdict that evaluation refutes is a soundness bug).

metamorphic
    Relations that must hold between pipeline stages without knowing the
    expected output: the chase and normal form preserve evaluation, the
    chase is idempotent, printing then parsing is the identity,
    canonicalizing a canonical form returns it with its key unchanged
    (also on a self-join copy of the body, so cases reach more than ten
    variables), and composing a probe query with a view is semantically
    the same as evaluating the probe over the materialized view --
    including through a stack of two views, where one-shot and stepwise
    composition must agree (associativity of view inlining).

memo
    Memoization transparency: rewriting through a
    :class:`~repro.rewriting.session.RewriteSession` -- cold and warm
    (the second call over the same session exercises every memo hit
    path) -- returns exactly the rewriting set of the unmemoized
    pipeline (a zero-capacity session, which must serve no memo hit),
    compared by canonical hash, and the session's memoized chase agrees
    with the plain chase.

signature
    Exactness and soundness of the label-signature pre-filter
    (:mod:`repro.analysis.viewset.signature`): the views ``rewrite``'s
    EXPLAIN log marks ``pruned-signature`` are exactly the views whose
    signature is inadmissible for the query profile, and every such
    view truly has no containment mapping into the prepared target,
    confirmed by the brute-force enumerator.

index
    Transparency of the target-path index
    (:mod:`repro.rewriting.index`): for every chased view,
    :func:`~repro.rewriting.mappings.find_mappings` with the index on
    must return the *identical list* of mappings (same order, same
    coverage sets) as the unindexed scan -- the index only skips
    target paths that provably cannot match, so the surviving search
    tree is the same.  Checked at the ``body_mappings`` level too, so
    a divergence is pinned to the narrowest kernel.

persist
    Transparency of the disk layer (:mod:`repro.storage`) and
    soundness of label-based incremental maintenance: the durable
    store reloads the case database byte-identically through both the
    WAL-replay and the snapshot path with a stable version; the query
    cache and a rewrite-session memo round-trip through
    save/close/reload and serve the cached query (resp. rewrite
    result) as a hit with byte-identical answers and canonical
    fingerprints; re-saving a reloaded cache reproduces the cache
    document byte for byte; and an update touching labels a cached
    statement can match invalidates its entry while a provably
    disjoint update patches it in place with the answer intact.

step2
    Soundness of Step 2's witness (:mod:`repro.rewriting.witness`): on
    every candidate the search can generate, with the covering heuristic
    on and off, a witness that proves query ⊆ composition must agree
    with the full component search -- also after dropping a query path
    or redirecting a Step 1A binding, where the half can be false.
    Witness hits and fallbacks are counted.
"""

from __future__ import annotations

import json
import random
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, Protocol

from ..analysis.viewset.signature import query_profile, view_signature
from ..errors import (ChaseContradictionError, CompositionError,
                      CyclicPatternError, ReproError)
from ..logic.subst import Substitution
from ..logic.terms import FunctionTerm, Variable
from ..logic.translate import evaluate_via_datalog
from ..oem.equivalence import explain_difference, identical
from ..oem.model import OemDatabase
from ..oem.serialize import database_to_json
from ..obs import Budget
from ..repository.cache import QueryCache
from ..rewriting import canon
from ..rewriting.canon import query_key
from ..rewriting.chase import chase
from ..rewriting.composition import compose
from ..rewriting.contained import maximally_contained_rewritings
from ..rewriting.equivalence import (components_subsumed, equivalent,
                                     minimize, prepare_program)
from ..rewriting.explain import Explanation
from ..rewriting.mappings import body_mappings, find_mappings
from ..rewriting.rewriter import _Search, rewrite
from ..rewriting.session import RewriteSession
from ..rewriting.witness import Step2Target, Step2Witness
from ..storage import CacheStore, DurableStore, SessionRegistry, StorageLayout
from ..storage.maintenance import statement_labels
from ..tsl.ast import Query, SetPatternTerm
from ..tsl.decompose import decompose_program
from ..tsl.evaluator import evaluate, evaluate_program
from ..tsl.normalize import normalize, path_to_condition, query_paths
from ..tsl.parser import parse_query
from ..tsl.printer import print_query
from ..tsl.validate import is_safe
from ..workloads.random_oem import RandomQueryConfig, sample_query
from .brute import brute_coverage, brute_mappings
from .gen import Case, sample_view


@dataclass(frozen=True)
class Failure:
    """One violated invariant."""

    oracle: str
    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}/{self.invariant}] {self.message}"


@dataclass
class OracleResult:
    """What one oracle did on one case."""

    checks: int = 0
    failures: list[Failure] = None  # type: ignore[assignment]
    #: Named tallies an oracle reports beside its checks.
    counters: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = []


class Oracle(Protocol):
    name: str

    def check(self, case: Case) -> OracleResult: ...


def _diff_summary(left: OemDatabase, right: OemDatabase) -> str:
    diffs = explain_difference(left, right, limit=3)
    return "; ".join(diffs) if diffs else "results differ"


def _term_has_set_pattern(term: object) -> bool:
    if isinstance(term, SetPatternTerm):
        return True
    if isinstance(term, FunctionTerm):
        return any(_term_has_set_pattern(arg) for arg in term.args)
    return False


def _uses_set_mappings(query: Query) -> bool:
    """True when a body pattern embeds a set-pattern term.

    View instantiations built from *set mappings* (Example 3.2) carry
    ``{<...>}`` terms inside their head oids; such a rewriting denotes
    copies of source subgraphs and is only checkable through its
    composition, not by direct evaluation over materialized views.
    """
    for condition in query.body:
        for pattern in condition.pattern.nested_patterns():
            if (_term_has_set_pattern(pattern.oid)
                    or _term_has_set_pattern(pattern.label)
                    or _term_has_set_pattern(pattern.value)):
                return True
    return False


def _pad_with_path_copies(query: Query) -> Query:
    """*query* with a weakened copy of each body path put first.

    A copy keeps the head variables and renames the rest fresh; a path
    below the top level also loses its last step (its leaf becomes a
    fresh variable), so its original cannot map into it.  Every copy
    maps into its original: the padded query is equivalent to *query*
    and its cores have the same size.
    """
    head_vars = query.head_variables()
    copies = []
    for number, path in enumerate(query_paths(query)):
        if path.depth > 1:
            path = replace(path, steps=path.steps[:-1],
                           leaf=Variable(f"Leaf_pad{number}"))
        condition = path_to_condition(path)
        fresh = Substitution({
            v: Variable(f"{v.name}_pad{number}")
            for v in set(condition.variables()) - head_vars})
        copies.append(condition.substitute(fresh))
    return Query(query.head, (*copies, *query.body), name=query.name)


def _removable_path(query: Query):
    """A body path of *query* whose removal keeps it equivalent (the body
    maps into the rest, head variables fixed), or None for a core."""
    frozen = Substitution({v: v for v in query.head_variables()})
    paths = query_paths(query)
    for index, path in enumerate(paths):
        remaining = paths[:index] + paths[index + 1:]
        if remaining and body_mappings(paths, remaining, initial=frozen,
                                       limit=1):
            return path
    return None


#: Limits of one contained search in the semantic oracle.  The step
#: cap binds first on the generator's cases, so check counts do not
#: depend on machine speed; the deadline only bounds the worst case.
CONTAINED_MAX_STEPS = 5_000
CONTAINED_DEADLINE_MS = 2_000


def _containment_gap(left: OemDatabase, right: OemDatabase) -> str | None:
    """Why answer *left* is not contained in answer *right*, or None.

    Contained means every root of *left* is a root of *right*, and every
    object reachable in *left* is in *right* with the same label and
    kind, the same value when atomic, and a subset of its subobjects.
    """
    for root in left.roots:
        if not right.is_root(root):
            return f"root {root} only in {left.name}"
    for oid in sorted(left.reachable_oids(), key=str):
        if oid not in right or left.label(oid) != right.label(oid) \
                or left.is_atomic(oid) != right.is_atomic(oid):
            return f"object {oid} of {left.name} is not in {right.name}"
        if left.is_atomic(oid):
            if left.atomic_value(oid) != right.atomic_value(oid):
                return f"object {oid}: value {left.atomic_value(oid)!r}"
        else:
            extra = set(left.children(oid)) - set(right.children(oid))
            if extra:
                return (f"object {oid}: subobjects "
                        f"{sorted(extra, key=str)} only in {left.name}")
    return None


class SemanticOracle:
    """Evaluate Q and every rewriting; the answers must be identical."""

    name = "semantic"

    def __init__(self, max_candidates: int = 128) -> None:
        self.max_candidates = max_candidates

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        expected = evaluate(case.query, case.db)
        materialized = {
            name: evaluate(view, case.db, answer_name=name)
            for name, view in case.views.items()}
        self._check_datalog(case, expected, materialized, result)
        sources = {case.db.name: case.db, **materialized}
        spent = Budget()
        outcome = rewrite(case.query, case.views, constraints,
                          max_candidates=self.max_candidates, budget=spent)
        for rewriting in outcome:
            if case.conjunctive and not _uses_set_mappings(rewriting.query):
                # Only meaningful without copy semantics: materialized
                # views with hanging subgraphs are not faithful sources.
                result.checks += 1
                actual = evaluate(rewriting.query, sources)
                if not identical(expected, actual):
                    result.failures.append(Failure(
                        self.name, "rewriting-sound",
                        f"rewriting via {sorted(rewriting.views_used)} "
                        f"disagrees with Q on the database: "
                        f"{_diff_summary(expected, actual)}"))
            result.checks += 1
            inlined = evaluate_program(rewriting.composition, case.db)
            if not identical(expected, inlined):
                result.failures.append(Failure(
                    self.name, "composition-sound",
                    f"composition of rewriting via "
                    f"{sorted(rewriting.views_used)} disagrees with Q: "
                    f"{_diff_summary(expected, inlined)}"))
        result.checks += 1
        if case.expect_rewriting and not outcome.rewritings:
            result.failures.append(Failure(
                self.name, "rewriting-complete",
                "case admits a rewriting by construction (exposing view) "
                "but the rewriter found none"))
        self._check_budgeted(case, outcome, spent.steps, result)
        self._check_contained(case, expected, result)
        return result

    def _check_budgeted(self, case: Case, outcome, spent: int,
                        result: OracleResult) -> None:
        """Rerun the rewriter under a ``max_steps`` drawn (seeded by the
        case) from 1 to the *spent* steps of the unbudgeted run: a
        truncated result must be a subset of *outcome*, an untruncated
        one equal to it.  Tallied on the ``budgeted`` counter, and on
        ``budgeted_truncated`` when the rerun stopped early."""
        rng = random.Random(f"budgeted:{case.profile}:{case.seed}")
        budget = Budget(max_steps=rng.randint(1, max(1, spent)))
        budgeted = rewrite(case.query, case.views, case.constraints,
                           max_candidates=self.max_candidates,
                           budget=budget)
        full = [str(r.query) for r in outcome]
        found = [str(r.query) for r in budgeted]
        result.checks += 1
        result.counters["budgeted"] += 1
        if budgeted.truncated:
            result.counters["budgeted_truncated"] += 1
            extra = sorted(set(found) - set(full))
            if extra:
                result.failures.append(Failure(
                    self.name, "budgeted-subset",
                    f"a run truncated at {budget.max_steps} steps "
                    f"returned rewritings the full run does not: {extra}"))
        elif found != full:
            result.failures.append(Failure(
                self.name, "budgeted-complete",
                f"a run under {budget.max_steps} steps finished but "
                f"returned {found}, the full run {full}"))

    def _check_contained(self, case: Case, expected: OemDatabase,
                         result: OracleResult) -> None:
        """The maximally contained search: sound, exact when it says
        equivalent, and complete on the exposing view.  It runs again
        without the exposing view ``V`` (when other views remain): with
        it, the search stops at V's equivalent rewriting and returns
        only that.  Its checks are tallied on the ``contained`` counter
        too."""
        checks_before = result.checks
        view_sets = [case.views]
        if "V" in case.views and len(case.views) > 1:
            view_sets.append({name: view for name, view
                              in case.views.items() if name != "V"})
        for views in view_sets:
            budget = Budget(deadline_ms=CONTAINED_DEADLINE_MS,
                            max_steps=CONTAINED_MAX_STEPS)
            outcome = maximally_contained_rewritings(
                case.query, views, case.constraints, budget=budget)
            for rewriting in outcome:
                result.checks += 1
                inlined = evaluate_program(rewriting.composition, case.db)
                gap = _containment_gap(inlined, expected)
                if gap is not None:
                    result.failures.append(Failure(
                        self.name, "contained-sound",
                        f"contained rewriting {rewriting.query} answers "
                        f"more than Q: {gap}"))
                elif rewriting.is_equivalent:
                    result.checks += 1
                    if not identical(expected, inlined):
                        result.failures.append(Failure(
                            self.name, "contained-equivalent",
                            f"rewriting {rewriting.query} is flagged "
                            f"equivalent but answers less than Q: "
                            f"{_diff_summary(expected, inlined)}"))
            if (views is case.views and case.expect_rewriting
                    and not outcome.truncated):
                result.checks += 1
                if not any(r.is_equivalent for r in outcome):
                    result.failures.append(Failure(
                        self.name, "contained-complete",
                        "case admits an equivalent rewriting by "
                        "construction (exposing view) but the contained "
                        "search flagged none equivalent"))
        result.counters["contained"] += result.checks - checks_before

    def _check_datalog(self, case: Case, expected: OemDatabase,
                       materialized: dict[str, OemDatabase],
                       result: OracleResult) -> None:
        """Direct evaluation against the Datalog translation (E13)."""
        direct = [("the query", case.query, expected)]
        direct += [(f"view {name}", case.views[name], answer)
                   for name, answer in sorted(materialized.items())]
        for what, rule, answer in direct:
            if _set_value_join(rule, case.db):
                continue
            via = evaluate_via_datalog(rule, case.db,
                                       answer_name=answer.name)
            if any(_names_set_value(oid) for oid in via.oids()):
                continue
            result.checks += 1
            if not identical(answer, via):
                result.failures.append(Failure(
                    self.name, "evaluate-datalog",
                    f"direct evaluation of {what} disagrees with the "
                    f"Datalog translation: {_diff_summary(answer, via)}"))


# The Datalog translation names a set value by its set object's oid,
# ``setval(O)``, where the direct evaluator uses the member set.  The
# answers then differ in two known ways, which the evaluate-datalog
# check skips: a value variable joined across two distinct set objects
# with equal member sets, and a set value inside an answer object id.

def _set_value_join(rule: Query, db: OemDatabase) -> bool:
    """True when a variable occurs in two body value positions of *rule*
    and *db* has two distinct set objects with equal member sets."""
    values = [pattern.value for condition in rule.body
              for pattern in condition.pattern.nested_patterns()
              if isinstance(pattern.value, Variable)]
    if len(values) == len(set(values)):
        return False
    member_sets: set[frozenset] = set()
    for oid in db.oids():
        if not db.is_atomic(oid):
            members = frozenset(db.children(oid))
            if members in member_sets:
                return True
            member_sets.add(members)
    return False


def _names_set_value(term) -> bool:
    return isinstance(term, FunctionTerm) and (
        term.functor == "setval"
        or any(_names_set_value(arg) for arg in term.args))


class ContainmentOracle:
    """Differential-test mappings and equivalence verdicts."""

    name = "containment"

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        prepared = prepare_program([case.query], constraints)
        if not prepared:
            return result  # contradictory body: nothing to cross-check
        target = prepared[0]
        for name, view in sorted(case.views.items()):
            chased_view = chase(view, constraints)
            mappings = find_mappings(chased_view, target)
            engine = {m.subst for m in mappings}
            brute = brute_mappings(chased_view, target)
            result.checks += 1
            if engine != brute:
                only_engine = {str(s) for s in engine - brute}
                only_brute = {str(s) for s in brute - engine}
                result.failures.append(Failure(
                    self.name, "mappings-differ",
                    f"view {name}: engine-only={sorted(only_engine)} "
                    f"brute-only={sorted(only_brute)}"))
                continue
            for mapping in mappings:
                result.checks += 1
                brute_covers = brute_coverage(chased_view, target,
                                              mapping.subst)
                if mapping.covers != brute_covers:
                    result.failures.append(Failure(
                        self.name, "coverage-differs",
                        f"view {name}, mapping {mapping.subst}: engine "
                        f"covers {sorted(mapping.covers)}, brute covers "
                        f"{sorted(brute_covers)}"))
        result.checks += 1
        if not equivalent(case.query, chase(case.query, constraints),
                          constraints):
            result.failures.append(Failure(
                self.name, "chase-equivalent",
                "query not judged equivalent to its own chase"))
        result.checks += 1
        if not equivalent(case.query, normalize(case.query), constraints):
            result.failures.append(Failure(
                self.name, "normalize-equivalent",
                "query not judged equivalent to its own normal form"))
        self._check_condition_drops(case, target, result)
        self._check_minimize(case, target, result)
        return result

    def _check_condition_drops(self, case: Case, target: Query,
                               result: OracleResult) -> None:
        """An `equivalent` verdict refuted by evaluation is a bug."""
        constraints = case.constraints
        paths = query_paths(target)
        if len(paths) < 2:
            return
        expected = evaluate(target, case.db)
        for index in range(len(paths)):
            body = tuple(path_to_condition(p)
                         for i, p in enumerate(paths) if i != index)
            smaller = Query(target.head, body, name=target.name)
            if not is_safe(smaller):
                continue
            result.checks += 1
            if equivalent(target, smaller, constraints):
                actual = evaluate(smaller, case.db)
                if not identical(expected, actual):
                    result.failures.append(Failure(
                        self.name, "equivalence-unsound",
                        f"dropping condition {index} judged equivalent "
                        f"but evaluation differs: "
                        f"{_diff_summary(expected, actual)}"))

    def _check_minimize(self, case: Case, target: Query,
                        result: OracleResult) -> None:
        constraints = case.constraints
        minimized = minimize(target)
        result.checks += 1
        if not equivalent(target, minimized, constraints):
            result.failures.append(Failure(
                self.name, "minimize-equivalent",
                "minimize() produced a non-equivalent query"))
            return
        result.checks += 1
        expected = evaluate(target, case.db)
        actual = evaluate(minimized, case.db)
        if not identical(expected, actual):
            result.failures.append(Failure(
                self.name, "minimize-sound",
                f"minimized query evaluates differently: "
                f"{_diff_summary(expected, actual)}"))
        # Soundness alone passes a minimize that stops early, and a
        # generated query is rarely redundant.  The padded query is: its
        # weakened copies come first, a witness removing one may map the
        # others onto themselves, and so its core can take several
        # retractions.  Both results must be cores, of the same size
        # (cores are unique up to isomorphism).
        padded = minimize(_pad_with_path_copies(target))
        for query in (minimized, padded):
            result.checks += 1
            removable = _removable_path(query)
            if removable is not None:
                result.failures.append(Failure(
                    self.name, "minimize-core",
                    f"minimize() left the removable path {removable} in "
                    f"{query}"))
        result.checks += 1
        sizes = [len(query_paths(q)) for q in (minimized, padded)]
        if sizes[0] != sizes[1]:
            result.failures.append(Failure(
                self.name, "minimize-core",
                f"cores of one query differ in size: {sizes[0]} paths "
                f"minimized, {sizes[1]} from the padded query"))


class MetamorphicOracle:
    """Stage-relation invariants: chase, normal form, printer, composition."""

    name = "metamorphic"

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        expected = evaluate(case.query, case.db)
        chased = chase(case.query, constraints)

        result.checks += 1
        rechased = chase(chased, constraints)
        if set(query_paths(chased)) != set(query_paths(rechased)):
            result.failures.append(Failure(
                self.name, "chase-idempotent",
                "chasing a chased query changed its path set"))

        result.checks += 1
        actual = evaluate(chased, case.db)
        if not identical(expected, actual):
            result.failures.append(Failure(
                self.name, "chase-preserves-evaluation",
                f"chase changed the query's result: "
                f"{_diff_summary(expected, actual)}"))

        result.checks += 1
        actual = evaluate(normalize(case.query), case.db)
        if not identical(expected, actual):
            result.failures.append(Failure(
                self.name, "normalize-preserves-evaluation",
                f"normal form changed the query's result: "
                f"{_diff_summary(expected, actual)}"))

        for label, candidate in [("query", case.query), ("chased", chased),
                                 *((f"view:{n}", v)
                                   for n, v in sorted(case.views.items()))]:
            result.checks += 1
            text = print_query(candidate)
            reparsed = parse_query(text)
            if reparsed != candidate:
                result.failures.append(Failure(
                    self.name, "print-parse-roundtrip",
                    f"{label} did not survive print->parse: {text}"))

        self._check_canon_fixpoint(case, chased, result)
        self._check_composition(case, result)
        self._check_stacked_composition(case, result)
        return result

    def _check_canon_fixpoint(self, case: Case, chased: Query,
                              result: OracleResult) -> None:
        """A canonical form canonicalizes to itself, key and all."""
        query = case.query
        self_join = Query(query.head,
                          query.body + query.rename_apart("_sj").body)
        for label, candidate in [("query", query), ("chased", chased),
                                 ("self-join", self_join),
                                 *((f"view:{n}", v)
                                   for n, v in sorted(case.views.items()))]:
            result.checks += 1
            first = canon.canonicalize(candidate)
            again = canon.canonicalize(first.query)
            if again.query != first.query or again.key != first.key:
                result.failures.append(Failure(
                    self.name, "canon-fixpoint",
                    f"{label}: canonicalizing the canonical form "
                    f"{first.query} gave {again.query}"))

    def _probe(self, mv: OemDatabase, seed: int) -> Query | None:
        if not mv.roots:
            return None
        config = RandomQueryConfig(conditions=1, max_depth=2,
                                   label_variable_probability=0.0,
                                   conjunctive=True)
        return sample_query(mv, config, seed=seed)

    def _check_composition(self, case: Case, result: OracleResult) -> None:
        """evaluate(probe, materialized V) == evaluate(compose(probe, V), db)."""
        for name, view in sorted(case.views.items()):
            mv = evaluate(view, case.db, answer_name=name)
            probe = self._probe(mv, case.seed + 17)
            if probe is None:
                continue
            try:
                composed = compose(probe, {name: view})
            except CompositionError:
                continue  # probe not expressible over base data: fine
            result.checks += 1
            direct = evaluate(probe, {name: mv})
            inlined = evaluate_program(composed, case.db)
            if not identical(direct, inlined):
                result.failures.append(Failure(
                    self.name, "composition-semantics",
                    f"probe over materialized {name} disagrees with its "
                    f"composition over the base database: "
                    f"{_diff_summary(direct, inlined)}"))

    def _check_stacked_composition(self, case: Case,
                                   result: OracleResult) -> None:
        """One-shot vs stepwise inlining through a two-view stack."""
        inner = sample_view(case.db, seed=case.seed + 23, name="S1")
        if inner is None:
            return
        m_inner = evaluate(inner, case.db, answer_name="S1")
        if not m_inner.roots:
            return
        outer = sample_view(m_inner, seed=case.seed + 29, name="S2")
        if outer is None:
            return
        m_outer = evaluate(outer, m_inner, answer_name="S2")
        probe = self._probe(m_outer, case.seed + 31)
        if probe is None:
            return
        try:
            one_shot = compose(probe, {"S1": inner, "S2": outer})
            stepwise = [rule
                        for partial in compose(probe, {"S2": outer})
                        for rule in compose(partial, {"S1": inner})]
        except CompositionError:
            return
        result.checks += 1
        direct = evaluate(probe, {"S2": m_outer})
        via_one_shot = evaluate_program(one_shot, case.db)
        via_stepwise = evaluate_program(stepwise, case.db)
        if not identical(via_one_shot, via_stepwise):
            result.failures.append(Failure(
                self.name, "composition-associative",
                f"one-shot and stepwise inlining of a two-view stack "
                f"disagree: {_diff_summary(via_one_shot, via_stepwise)}"))
        elif not identical(direct, via_one_shot):
            result.failures.append(Failure(
                self.name, "composition-associative",
                f"two-view stack inlining disagrees with direct "
                f"evaluation: {_diff_summary(direct, via_one_shot)}"))


class MemoOracle:
    """Memoization must not change any rewriting result.

    Runs ``rewrite`` three ways -- unmemoized, through a cold
    :class:`~repro.rewriting.session.RewriteSession`, and again through
    the now-warm session (serving from the result memo) -- and demands
    the identical rewriting set, compared by the canonical hash of each
    rewriting query plus the views it uses.  The unmemoized reference
    runs on the ``memo_size=0`` session a sessionless ``rewrite`` uses,
    and must serve zero memo hits, or the comparison would be vacuous.
    """

    name = "memo"

    def __init__(self, max_candidates: int = 128) -> None:
        self.max_candidates = max_candidates

    @staticmethod
    def _fingerprint(outcome) -> set:
        return {(query_key(r.query), tuple(sorted(r.views_used)))
                for r in outcome.rewritings}

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        reference = RewriteSession(case.views, constraints, memo_size=0)
        plain = rewrite(case.query, case.views, constraints,
                        max_candidates=self.max_candidates,
                        session=reference)
        result.checks += 1
        served = sum(table["hits"] for table in reference.stats().values())
        if served:
            result.failures.append(Failure(
                self.name, "reference-memoized",
                f"the unmemoized reference run served {served} memo "
                f"hit(s)"))
        if plain.truncated:
            return result  # partial sets may legitimately differ
        expected = self._fingerprint(plain)
        session = RewriteSession(case.views, constraints)
        for phase in ("cold", "warm"):
            result.checks += 1
            memoized = session.rewrite(
                case.query, max_candidates=self.max_candidates)
            actual = self._fingerprint(memoized)
            if actual != expected:
                result.failures.append(Failure(
                    self.name, f"rewrite-{phase}-differs",
                    f"memoized ({phase} session) rewriting set differs "
                    f"from unmemoized: only_memo="
                    f"{sorted(actual - expected)} only_plain="
                    f"{sorted(expected - actual)}"))
        result.checks += 1
        try:
            plain_chase = chase(case.query, constraints)
        except ChaseContradictionError:
            try:
                session.chase(case.query)
            except ChaseContradictionError:
                pass
            else:
                result.failures.append(Failure(
                    self.name, "chase-memo-differs",
                    "chase() contradicts but session.chase() does not"))
        else:
            if query_key(session.chase(case.query)) \
                    != query_key(plain_chase):
                result.failures.append(Failure(
                    self.name, "chase-memo-differs",
                    "session.chase() disagrees with chase() up to "
                    "renaming"))
        return result


class SignatureOracle:
    """The label-signature pre-filter must prune exactly the provably
    irrelevant views, and only those.

    Two invariants over every case:

    * **parity** -- the views that ``rewrite``'s
      :class:`~repro.rewriting.explain.Explanation` marks
      ``pruned-signature`` are exactly the chased views whose
      :class:`~repro.analysis.viewset.signature.ViewSignature` the
      oracle finds inadmissible for the prepared target's profile.  A
      rewriter that prunes an admissible view could discard real
      rewritings; one that keeps an inadmissible view wastes Step 1A.
    * **soundness** -- every inadmissible view must have *zero*
      containment mappings into that target, confirmed against the
      brute-force enumerator.  A single mapping from a pruned view
      would mean the pre-filter discards real rewritings.
    """

    name = "signature"

    def __init__(self, max_candidates: int = 128) -> None:
        self.max_candidates = max_candidates

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        explanation = Explanation()
        rewrite(case.query, case.views, constraints,
                max_candidates=self.max_candidates, explain=explanation)
        pruned = {event.view for event in explanation.mappings
                  if event.verdict == "pruned-signature"}
        prepared = prepare_program([case.query], constraints)
        if not prepared:
            return result  # contradictory body: every pruning is sound
        target = prepared[0]
        profile = query_profile(target)
        inadmissible = set()
        for name, view in sorted(case.views.items()):
            try:
                chased_view = chase(view, constraints)
            except ChaseContradictionError:
                continue  # unsatisfiable view: rewriter skips it anyway
            signature = view_signature(chased_view)
            if signature.admissible_for(profile):
                continue
            inadmissible.add(name)
            result.checks += 1
            mappings = brute_mappings(chased_view, target)
            if mappings:
                result.failures.append(Failure(
                    self.name, "prefilter-unsound",
                    f"view {name} judged inadmissible "
                    f"({signature.missing_from(profile)}) but has "
                    f"{len(mappings)} brute-force containment "
                    f"mapping(s) into the target"))
        result.checks += 1
        if pruned != inadmissible:
            result.failures.append(Failure(
                self.name, "prefilter-parity",
                f"the rewriter pruned views the signatures do not "
                f"refute, or kept ones they do: "
                f"only_pruned={sorted(pruned - inadmissible)} "
                f"only_inadmissible={sorted(inadmissible - pruned)}"))
        return result


class IndexOracle:
    """The target-path index must be invisible to the mapping search.

    :class:`~repro.rewriting.index.PathIndex` statically prunes target
    paths that :func:`~repro.rewriting.mappings.map_path_into` would
    reject unconditionally, and candidates come back in ascending scan
    order -- so the indexed search explores the *same tree* as the full
    scan and must produce the identical mapping **list**, not merely the
    same set.  For every chased view against the prepared target:

    * **find-parity** -- ``find_mappings`` with ``use_index=True`` (the
      default) and ``False`` return equal lists of
      :class:`~repro.rewriting.mappings.Mapping` (substitution *and*
      coverage, in order);
    * **body-parity** -- ``body_mappings`` over the raw path lists
      agrees the same way, pinning any divergence below the coverage
      layer.
    """

    name = "index"

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        constraints = case.constraints
        prepared = prepare_program([case.query], constraints)
        if not prepared:
            return result  # contradictory body: nothing to map into
        target = prepared[0]
        target_paths = query_paths(target)
        for name, view in sorted(case.views.items()):
            try:
                chased_view = chase(view, constraints)
            except ChaseContradictionError:
                continue  # unsatisfiable view: rewriter skips it anyway
            result.checks += 1
            indexed = find_mappings(chased_view, target)
            scanned = find_mappings(chased_view, target, use_index=False)
            if indexed != scanned:
                only_on = [str(m.subst) for m in indexed
                           if m not in scanned]
                only_off = [str(m.subst) for m in scanned
                            if m not in indexed]
                result.failures.append(Failure(
                    self.name, "indexed-mappings-differ",
                    f"view {name}: indexed and scan find_mappings "
                    f"disagree: only_indexed={only_on} "
                    f"only_scan={only_off}"))
                continue
            view_paths = query_paths(chased_view)
            result.checks += 1
            body_on = body_mappings(view_paths, target_paths)
            body_off = body_mappings(view_paths, target_paths,
                                     use_index=False)
            if body_on != body_off:
                result.failures.append(Failure(
                    self.name, "indexed-body-mappings-differ",
                    f"view {name}: body_mappings diverges under the "
                    f"index: indexed={len(body_on)} "
                    f"scan={len(body_off)}"))
        return result


class PersistOracle:
    """Disk round trips must be invisible; maintenance must be sound.

    Runs the case through the whole :mod:`repro.storage` stack inside a
    temporary directory:

    * **store** -- ingest the case database into a
      :class:`~repro.storage.durable.DurableStore`, close, reopen (WAL
      replay), compact, reopen (snapshot): both reloads must be
      byte-identical under the sorted OEM serialization with a stable
      store version;
    * **cache** -- evaluate the query and every view, insert into a
      :class:`~repro.repository.cache.QueryCache`, save, reload into a
      fresh cache: the canonical-key/answer map must round-trip
      byte-identically, the query must hit exactly, and re-saving the
      reloaded cache must reproduce the cache document byte for byte;
    * **memo** -- rewrite through a session, persist the result memo
      via :class:`~repro.storage.registry.SessionRegistry`, reload into
      a fresh session: the lookup must hit with the same canonical
      rewriting fingerprints;
    * **maintenance** -- an update touching only a label the statement
      provably cannot match patches the entry in place (still a hit,
      answer intact), while an update touching a label it can match --
      or any update, when the statement has a label variable --
      invalidates the entry outright.
    """

    name = "persist"

    def __init__(self, max_candidates: int = 128) -> None:
        self.max_candidates = max_candidates

    @staticmethod
    def _canonical(db: OemDatabase) -> str:
        return json.dumps(database_to_json(db, sort_oids=True),
                          sort_keys=True)

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        with tempfile.TemporaryDirectory(prefix="repro-persist-") as tmp:
            root = Path(tmp)
            version = self._check_store(case, root / "store", result)
            self._check_cache(case, root, version, result)
            self._check_session(case, root / "store", version, result)
        return result

    def _check_store(self, case: Case, root: Path,
                     result: OracleResult) -> int:
        store = DurableStore.create(root, case.db.name)
        store.ingest(case.db)
        store.close()
        expected = self._canonical(case.db)
        reopened = DurableStore.open(root)          # the WAL-replay path
        version = reopened.version
        result.checks += 1
        if self._canonical(reopened.db) != expected:
            result.failures.append(Failure(
                self.name, "store-roundtrip",
                "database differs after close/reopen (WAL replay)"))
        reopened.compact()
        reopened.close()
        again = DurableStore.open(root)             # the snapshot path
        result.checks += 1
        if again.version != version \
                or self._canonical(again.db) != expected:
            result.failures.append(Failure(
                self.name, "store-compact-stable",
                f"database or version changed across compact/reopen "
                f"(version {version} -> {again.version})"))
        again.close()
        return version

    def _check_cache(self, case: Case, root: Path, version: int,
                     result: OracleResult) -> None:
        constraints = case.constraints
        layout = StorageLayout(root / "store")
        cache = QueryCache(capacity=64, constraints=constraints)
        expected: dict[str, str] = {}
        for statement in (case.query, *case.views.values()):
            answer = evaluate(statement, case.db)
            entry = cache.insert(statement, answer, version)
            expected[entry.key] = self._canonical(answer)
        disk = CacheStore(layout.cache_file)
        disk.save(cache, version)
        reloaded = QueryCache(capacity=64, constraints=constraints)
        disk.load(reloaded, version)
        loaded = {entry.key: self._canonical(entry.answer)
                  for entry in reloaded.snapshot_entries()}
        result.checks += 1
        if loaded != expected:
            missing = sorted(set(expected) - set(loaded))
            extra = sorted(set(loaded) - set(expected))
            changed = sorted(key for key in set(loaded) & set(expected)
                             if loaded[key] != expected[key])
            result.failures.append(Failure(
                self.name, "cache-roundtrip",
                f"reloaded cache differs: missing={missing[:3]} "
                f"changed={changed[:3]} extra={extra[:3]}"))
        resave = CacheStore(StorageLayout(root / "resave").cache_file)
        resave.save(reloaded, version)
        result.checks += 1
        if disk.path.read_bytes() != resave.path.read_bytes():
            result.failures.append(Failure(
                self.name, "cache-resave-stable",
                "re-saving the reloaded cache changed the cache "
                "document"))
        key = query_key(case.query)
        result.checks += 1
        answer = reloaded.lookup(case.query, version)
        if answer is None or self._canonical(answer) != expected[key]:
            result.failures.append(Failure(
                self.name, "cache-hit-after-reload",
                "cached query is not served byte-identically from the "
                "reloaded cache"))
        self._check_maintenance(case, reloaded, key, expected.get(key),
                                version, result)

    def _check_maintenance(self, case: Case, cache: QueryCache,
                           key: str, canonical_answer: str | None,
                           version: int, result: OracleResult) -> None:
        labels = statement_labels(case.query, case.constraints)
        if labels is not None and not labels:
            return  # contradictory body: no update can ever affect it
        current = version
        if labels is not None:
            cache.apply_update(frozenset({"__persist_disjoint__"}),
                               current + 1, from_version=current)
            current += 1
            result.checks += 1
            answer = cache.lookup(case.query, current)
            if answer is None:
                result.failures.append(Failure(
                    self.name, "maintenance-patches",
                    f"update touching no label of {sorted(labels)} "
                    f"dropped a patchable entry"))
            elif self._canonical(answer) != canonical_answer:
                result.failures.append(Failure(
                    self.name, "maintenance-patch-sound",
                    "patched entry serves a different answer"))
        touched = (frozenset({sorted(labels, key=repr)[0]})
                   if labels else frozenset({"__persist_probe__"}))
        cache.apply_update(touched, current + 1, from_version=current)
        result.checks += 1
        if cache.has_key(key):
            result.failures.append(Failure(
                self.name, "maintenance-invalidates",
                f"update touching {sorted(touched)} left the entry for "
                f"a statement with labels "
                f"{'unknown' if labels is None else sorted(labels)} "
                f"live in the cache"))

    def _check_session(self, case: Case, store_root: Path, version: int,
                       result: OracleResult) -> None:
        constraints = case.constraints
        session = RewriteSession(case.views, constraints)
        outcome = session.rewrite(case.query,
                                  max_candidates=self.max_candidates)
        entries = session.result_entries()
        if not entries:
            return  # truncated search: nothing memoized to persist
        registry = SessionRegistry(StorageLayout(store_root))
        registry.save("persist-oracle", session, version)
        fresh = RewriteSession(case.views, constraints)
        loaded = registry.load_into("persist-oracle", fresh, version)
        result.checks += 1
        if loaded["entries"] != len(entries):
            result.failures.append(Failure(
                self.name, "memo-roundtrip",
                f"saved {len(entries)} memo entries, reloaded "
                f"{loaded['entries']} (dropped {loaded['dropped']})"))
        (_query, flags) = entries[0][0]
        value = fresh.lookup_result(case.query, flags)
        result.checks += 1
        if value is None:
            result.failures.append(Failure(
                self.name, "memo-hit-after-reload",
                "reloaded session misses on the persisted rewrite"))
            return
        warm, _explanation = value
        expect = {(query_key(r.query), tuple(sorted(r.views_used)))
                  for r in outcome.rewritings}
        actual = {(query_key(r.query), tuple(sorted(r.views_used)))
                  for r in warm.rewritings}
        if actual != expect:
            result.failures.append(Failure(
                self.name, "memo-fingerprint",
                f"reloaded rewrite result differs: only_reloaded="
                f"{sorted(actual - expect)} only_original="
                f"{sorted(expect - actual)}"))


class Step2Oracle:
    """Step 2's witness must never prove what the search refutes.

    For every candidate the search can generate -- with the covering
    heuristic on and off, up to ``max_candidates`` each -- the
    :class:`~repro.rewriting.witness.Step2Witness` verdict for the
    query ⊆ composition half is compared with the full
    ``components_subsumed(query, composition)`` search.  A witness hit
    the search refutes is a failure; a fallback is allowed and counted
    (``hits`` / ``fallbacks`` counters).  Search candidates pass the
    half by construction, so the comparison is repeated on two
    perturbations that can make it false: the query with one body path
    dropped, and one Step 1A binding redirected to another term.
    """

    name = "step2"

    def __init__(self, max_candidates: int = 128) -> None:
        self.max_candidates = max_candidates

    def check(self, case: Case) -> OracleResult:
        result = OracleResult()
        search = _Search(RewriteSession(case.views, case.constraints,
                                        memo_size=0))
        if not search.prepare(case.query):
            return result  # contradictory body: no Step 2 to check
        target, paths = search.target, search.paths
        atoms = search.atoms()
        every = frozenset(range(len(paths)))
        for heuristic in (True, False):
            tested = 0
            for size in range(1, len(paths) + 1):
                for chosen in combinations(atoms, size):
                    if tested >= self.max_candidates:
                        break
                    if not any(atom.is_view for atom in chosen) or (
                            heuristic and frozenset().union(
                                *(a.covers for a in chosen)) != every):
                        continue
                    candidate = Query(target.head,
                                      tuple(a.condition for a in chosen),
                                      name=case.query.name)
                    if not is_safe(candidate):
                        continue
                    tested += 1
                    self._compare(search, candidate, chosen, tested,
                                  result)
        return result

    def _compare(self, search: _Search, candidate: Query, chosen,
                 index: int, result: OracleResult) -> None:
        step2 = search.step2
        try:
            candidate = search.session.chase(candidate)
            rules, witness = search.composition(candidate, chosen)
        except (ChaseContradictionError, CompositionError,
                CyclicPatternError):
            return
        composition = decompose_program(rules)
        full = components_subsumed(search.components, composition)
        hit = witness.holds()
        result.counters["hits" if hit else "fallbacks"] += 1
        self._agree(result, "candidate", hit, full, candidate)
        # Perturbation 1: drop one query path (chosen by position).
        paths = step2.paths
        if len(paths) > 1:
            dropped = index % len(paths)
            weaker = Query(step2.rule.head, tuple(
                path_to_condition(p) for i, p in enumerate(paths)
                if i != dropped), name=step2.rule.name)
            weaker_target = Step2Target(weaker)
            self._agree(
                result, "dropped-path",
                Step2Witness(weaker_target, rules, witness.origins,
                             candidate, chosen).holds(),
                components_subsumed(decompose_program([weaker]),
                                    composition), candidate)
        # Perturbation 2: redirect one binding of a view atom's θ.
        redirected = _redirect_theta(chosen, step2)
        if redirected is not None:
            self._agree(
                result, "redirected-theta",
                Step2Witness(step2, rules, witness.origins, candidate,
                             redirected).holds(), full, candidate)

    def _agree(self, result: OracleResult, what: str, hit: bool,
               full: bool, candidate: Query) -> None:
        result.checks += 1
        if hit and not full:
            result.failures.append(Failure(
                self.name, f"witness-unsound-{what}",
                f"the Step 2 witness proves query ⊆ composition for "
                f"candidate {candidate} ({what}), but the full "
                f"component search refutes it"))


def _redirect_theta(chosen, step2: Step2Target):
    """*chosen* with the first view atom's first θ binding (by variable
    name) sent to another query variable, or None when there is none."""
    others = sorted(step2.variables, key=lambda v: v.name)
    for position, atom in enumerate(chosen):
        if not atom.theta:
            continue
        variable = min(atom.theta, key=lambda v: v.name)
        image = atom.theta[variable]
        moved = next((v for v in others if v != image), None)
        if moved is None:
            return None
        theta = Substitution({**atom.theta.as_dict(), variable: moved})
        return (chosen[:position] + (replace(atom, theta=theta),)
                + chosen[position + 1:])
    return None


ORACLES: dict[str, Callable[[], Oracle]] = {
    "semantic": SemanticOracle,
    "containment": ContainmentOracle,
    "index": IndexOracle,
    "memo": MemoOracle,
    "metamorphic": MetamorphicOracle,
    "persist": PersistOracle,
    "signature": SignatureOracle,
    "step2": Step2Oracle,
}


def run_oracle(oracle: Oracle, case: Case) -> OracleResult:
    """Run one oracle, converting crashes into failures.

    An unexpected exception inside the pipeline under test is itself an
    invariant violation (the oracles only feed it well-formed input).
    """
    try:
        return oracle.check(case)
    except ReproError as exc:
        result = OracleResult(checks=1)
        result.failures.append(Failure(
            oracle.name, "unexpected-error",
            f"{type(exc).__name__}: {exc}"))
        return result
    except Exception as exc:  # noqa: BLE001 -- fuzzing must survive crashes
        result = OracleResult(checks=1)
        summary = traceback.format_exception_only(type(exc), exc)[-1].strip()
        result.failures.append(Failure(
            oracle.name, "unexpected-error", summary))
        return result
