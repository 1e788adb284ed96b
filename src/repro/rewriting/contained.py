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

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence, Union

from ..errors import ChaseContradictionError
from ..logic.subst import Substitution
from ..tsl.ast import Condition, Query, fresh_variable_factory
from ..tsl.decompose import decompose_program
from ..tsl.normalize import query_paths
from .chase import StructuralConstraints
from .equivalence import components_subsumed, minimize, prepare_program
from .mappings import body_mappings
from .rewriter import (CandidateAtom, RewriteResult, Rewriting, SearchFlags,
                       _Search)
from .session import RewriteSession


def programs_contained(left: Iterable[Query], right: Iterable[Query],
                       constraints: StructuralConstraints | None = None
                       ) -> bool:
    """Decide ``left ⊆ right`` (results contained on every database)."""
    return components_subsumed(*(
        decompose_program(prepare_program(rules, constraints))
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
class ContainedRewriting(Rewriting):
    """A rewriting whose composition is contained in the query."""

    is_equivalent: bool

    def __str__(self) -> str:
        flavor = "equivalent" if self.is_equivalent else "contained"
        return f"[{flavor}] {self.query}"


def maximally_contained_rewritings(
        query: Query,
        views: Union[Mapping[str, Query], Sequence[Query]],
        constraints: StructuralConstraints | None = None,
        total_only: bool = True, *,
        tracer=None, budget=None) -> RewriteResult:
    """Find the maximally contained rewritings of *query* using *views*.

    Returns a :class:`~repro.rewriting.rewriter.RewriteResult` of
    :class:`ContainedRewriting`.  Every returned rewriting is sound (its
    composition is contained in the query); none is strictly contained
    in another returned one.  An equivalent rewriting dominates: it is
    returned alone, flagged ``is_equivalent``.  A *budget* expiry stops
    the search or the maximality filter; the rewritings not yet dropped
    are returned, ``truncated``.  Compositions are chased once and kept
    unminimized, as ``rewrite()`` keeps them.  A contradictory query
    has no rewriting: the empty answer is maximal.
    """
    session = RewriteSession(views, constraints, memo_size=0)
    flags = SearchFlags(heuristic=False, total_only=total_only)
    search = _ContainedSearch(session, flags, tracer=tracer, budget=budget)
    stats = search.stats
    with search.tracer.span("contained_rewrite",
                            query=query.name or str(query.head)) as span:
        search.run(query)
        if stats.truncated:
            span.set("truncated", stats.stop_reason)
        span.add("candidates_tested", stats.candidates_tested)
        span.add("rewritings", stats.rewritings)
    return search.result


class _ContainedSearch(_Search):
    """The Section 3.4 search with Step 2 relaxed to composition ⊆ query.

    Step 1A offers :func:`partial_view_instantiations`, which cover no
    query condition, so the covering heuristic is off.  Subsumed-body
    pruning stays on: a body extending an accepted one has a contained
    composition, which the maximality filter would drop.  The search
    stops at its first equivalent rewriting.  ``accepted_components``
    holds each accepted composition's graph components, in order.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted_components: list = []

    def view_atoms(self) -> list[CandidateAtom]:
        with self.tracer.span("enumerate_mappings"):
            return partial_view_instantiations(self.target, self.session,
                                               budget=self.budget)

    def accept(self, candidate, rules, witness):
        """composition ⊆ query accepts; query ⊆ composition flags it
        ``is_equivalent``.  An empty composition contributes nothing."""
        if not rules:
            return None, "empty-composition", None, None
        components = decompose_program(rules)
        if not components_subsumed(components, self.components,
                                   budget=self.budget):
            return None, "not-contained", None, None
        self.accepted_components.append(components)
        equivalent = components_subsumed(self.components, components,
                                         budget=self.budget)
        return (ContainedRewriting(candidate, rules,
                                   self.views_used(candidate), equivalent),
                "accepted", None, None)

    def done(self, rewriting) -> bool:
        return rewriting.is_equivalent

    def finish(self) -> None:
        """Drop rewritings strictly contained in another accepted one.

        Of mutually contained rewritings the first is kept; an
        equivalent one, accepted last, contains every other.  Otherwise
        each ordered pair's containment is decided at most once, from
        the containing side's minimized core (equivalent, without the
        redundant view-body copies) into the other's chased components.
        Drops apply at once: a budget expiry keeps the rest.
        """
        rewritings, budget = self.result.rewritings, self.budget
        accepted = list(zip(rewritings, self.accepted_components))

        @cache
        def core(index: int) -> list:
            return decompose_program([
                minimize(rule, budget=budget)
                for rule in accepted[index][0].composition])

        @cache
        def contained(index: int, other: int) -> bool:
            return components_subsumed(accepted[index][1], core(other),
                                       budget=budget)

        with self.tracer.span("keep_maximal"):
            if rewritings and rewritings[-1].is_equivalent:
                del rewritings[:-1]
                self.stats.rewritings = 1
                return
            for index, (rewriting, _) in enumerate(accepted):
                if any(contained(index, other) and (
                        other < index or not contained(other, index))
                       for other in range(len(accepted)) if other != index):
                    rewritings[:] = [r for r in rewritings
                                     if r is not rewriting]
                    self.stats.rewritings -= 1
