"""Maximally contained rewritings (Section 7 future work; cf. [10, 9]).

When no *equivalent* rewriting exists -- e.g. the views simply do not
retain enough information -- the next best thing is a rewriting whose
result is **contained** in the query's on every database, and maximal
among such rewritings.  This is the information-integration notion of
[10]: the best obtainable answer given the sources.

The machinery is the same as the equivalence-based algorithm's, with
Step 2 relaxed to a one-directional test: the composition must be
contained in the query (soundness of every returned object), and among
the accepted candidates only the containment-maximal ones are kept.

Containment of unions is decided component-wise, exactly like Theorem
4.2's halves: ``left ⊆ right`` iff every component of ``left`` has a
mapping from some component of ``right``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence, Union

from ..errors import (BudgetExceededError, ChaseContradictionError,
                      CompositionError, CyclicPatternError)
from ..logic.subst import Substitution
from ..tsl.ast import Condition, Query, fresh_variable_factory
from ..tsl.decompose import decompose_program
from ..tsl.normalize import path_to_condition, query_paths
from ..tsl.validate import is_safe
from .chase import StructuralConstraints
from .equivalence import components_subsumed, prepare_program
from .mappings import body_mappings
from .rewriter import CandidateAtom, _Search
from .session import RewriteSession


def programs_contained(left: Iterable[Query], right: Iterable[Query],
                       constraints: StructuralConstraints | None = None
                       ) -> bool:
    """Decide ``left ⊆ right`` (results contained on every database)."""
    session = RewriteSession((), constraints, memo_size=0)
    return components_subsumed(*(
        decompose_program(prepare_program(rules, session=session))
        for rules in (left, right)))


def contained_in(candidate: Query, query: Query,
                 constraints: StructuralConstraints | None = None) -> bool:
    """Containment of single rules."""
    return programs_contained([candidate], [query], constraints)


def partial_view_instantiations(target: Query, session: RewriteSession, *,
                                budget=None) -> list[CandidateAtom]:
    """Candidate view accesses for *contained* rewritings.

    Unlike the equivalence case (Lemma 5.1), a view is relevant whenever
    any non-empty *subset* of its body maps into the query body -- the
    unmapped conditions only narrow the composition, which containment
    tolerates.  Unmapped view variables are renamed fresh, in order of
    first occurrence, so they cannot accidentally join with the query's
    variables.  Views come prepared from *session*; a view whose body
    contradicts the oid key dependency is empty, so it is skipped.
    """
    atoms: list[CandidateAtom] = []
    seen: set[Condition] = set()
    taken = set(target.all_variables())
    fresh = fresh_variable_factory(taken, stem="U")
    for name in sorted(session.views):
        try:
            view = session.prepared_view(name, budget=budget)
        except ChaseContradictionError:
            continue  # empty on every legal database: no sound use
        # First-occurrence order (head, then body), not set order: the
        # fresh names must not depend on the interpreter's hash seed.
        variables = dict.fromkeys(chain(
            view.head.variables(),
            *(condition.variables() for condition in view.body)))
        view_paths = query_paths(view)
        indices = range(len(view_paths))
        for size in range(1, len(view_paths) + 1):
            for subset in combinations(indices, size):
                chosen = [view_paths[i] for i in subset]
                for subst in body_mappings(chosen, query_paths(target),
                                           budget=budget):
                    unmapped = {
                        v: fresh() for v in variables if v not in subst}
                    full = subst.compose(Substitution(unmapped))
                    condition = Condition(view.head.substitute(full), name)
                    if condition not in seen:
                        seen.add(condition)
                        atoms.append(CandidateAtom(
                            condition, frozenset(), name))
    return atoms


@dataclass
class ContainedRewriting:
    """A rewriting whose composition is contained in the query."""

    query: Query
    composition: list[Query]
    views_used: frozenset[str]
    is_equivalent: bool

    def __str__(self) -> str:
        flavor = "equivalent" if self.is_equivalent else "contained"
        return f"[{flavor}] {self.query}"


@dataclass
class ContainedResult:
    """Outcome of :func:`maximally_contained_rewritings`."""

    rewritings: list[ContainedRewriting] = field(default_factory=list)
    candidates_tested: int = 0
    truncated: bool = False
    stop_reason: str | None = None

    def __len__(self) -> int:
        return len(self.rewritings)

    def __iter__(self):
        return iter(self.rewritings)


def maximally_contained_rewritings(
        query: Query,
        views: Union[Mapping[str, Query], Sequence[Query]],
        constraints: StructuralConstraints | None = None,
        total_only: bool = True, *,
        tracer=None, budget=None) -> ContainedResult:
    """Find the maximally contained rewritings of *query* using *views*.

    Every returned rewriting is sound (its composition is contained in
    the query); none is strictly contained in another returned one.  When
    an equivalent rewriting exists it is returned (it dominates), flagged
    ``is_equivalent``.  A *budget* expiry stops the search; the
    rewritings accepted so far go through the maximality filter and are
    returned with ``truncated=True``.  The search runs on a one-shot
    :class:`~repro.rewriting.session.RewriteSession`; compositions are
    chased once and kept unminimized, as ``rewrite()`` keeps them.
    """
    search = _Search(RewriteSession(views, constraints, memo_size=0),
                     tracer=tracer, budget=budget)
    tracer = search.tracer
    result = ContainedResult()
    accepted: list[tuple[ContainedRewriting, list]] = []
    with tracer.span("contained_rewrite",
                     query=query.name or str(query.head)) as span:
        try:
            _contained_search(query, search, total_only, result, accepted)
        except BudgetExceededError as exc:
            result.truncated = True
            result.stop_reason = exc.reason or "budget"
            span.set("truncated", result.stop_reason)
        with tracer.span("keep_maximal"):
            result.rewritings = _keep_maximal(accepted)
        span.add("candidates_tested", result.candidates_tested)
        span.add("rewritings", len(result.rewritings))
    return result


def _contained_search(query: Query, search: _Search, total_only: bool,
                      result: ContainedResult, accepted: list) -> None:
    """The relaxed Step-2 search loop on *search*'s state, accumulating
    into *accepted* each rewriting beside its composition's components.
    A candidate whose chase or composition fails (cyclic patterns
    included) is rejected as a whole."""
    if not search.prepare(query):
        return  # contradictory query: the empty answer is maximal
    session, tracer, budget = search.session, search.tracer, search.budget
    target, target_paths = search.target, search.paths
    k = len(target_paths)

    with tracer.span("enumerate_mappings"):
        atoms = partial_view_instantiations(target, session, budget=budget)
    if not total_only:
        atoms.extend(
            CandidateAtom(path_to_condition(path), frozenset([i]), None)
            for i, path in enumerate(target_paths))

    for size in range(1, k + 1):
        for combo in combinations(range(len(atoms)), size):
            if budget is not None:
                budget.tick()
            chosen = [atoms[i] for i in combo]
            if not any(atom.is_view for atom in chosen):
                continue
            body = tuple(atom.condition for atom in chosen)
            candidate = Query(target.head, body, name=query.name)
            if not is_safe(candidate):
                continue
            result.candidates_tested += 1
            with tracer.span("candidate",
                             index=result.candidates_tested - 1):
                try:
                    candidate = session.chase(candidate, tracer=tracer,
                                              budget=budget)
                    composed, _witness = search.composition(candidate)
                except (ChaseContradictionError, CompositionError,
                        CyclicPatternError):
                    continue
                if not composed:
                    continue  # empty composition: contributes nothing
                components = decompose_program(composed)
                if not components_subsumed(components, search.components,
                                           budget=budget):
                    continue
                equivalent = components_subsumed(
                    search.components, components, budget=budget)
            accepted.append((ContainedRewriting(
                candidate, composed, frozenset(
                    c.source for c in candidate.body
                    if c.source in session.views),
                equivalent), components))


def _keep_maximal(accepted) -> list[ContainedRewriting]:
    """Drop rewritings strictly contained in another accepted one.

    Of mutually contained rewritings the first is kept.  Every accepted
    composition is contained in the query, so an equivalent rewriting
    contains all of them and only the first equivalent one survives.
    Otherwise each ordered pair's containment is decided at most once.
    """
    first = next((r for r, _ in accepted if r.is_equivalent), None)
    if first is not None:
        return [first]

    @cache
    def contained(index: int, other: int) -> bool:
        return components_subsumed(accepted[index][1], accepted[other][1])

    return [rewriting for index, (rewriting, _) in enumerate(accepted)
            if not any(
                contained(index, other) and (
                    other < index or not contained(other, index))
                for other in range(len(accepted)) if other != index)]
