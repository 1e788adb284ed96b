"""Query-view composition via resolution and unification (Step 2A, §3.1).

Given a candidate rewriting query ``Q'`` whose body references views, the
composition ``Q'(V1..Vn)`` is the query over the base sources that
computes the same result.  It is the correctness oracle of the rewriting
algorithm: ``Q'`` is a rewriting of ``Q`` iff the composition is
equivalent to ``Q``.

Composition is subtle because of TSL's *fusion* semantics: two different
assignments of a view body can contribute different parts of the same
answer object (they "fuse" when their head oid terms coincide).  A single
condition chain over the view may therefore be witnessed by *several*
assignments, one per answer-graph component it touches.  We exploit the
graph-component decomposition of Section 4: a condition path is the
conjunction of one *top* goal, one *member* goal per step, and one
*object* goal per step; each goal resolves against the matching component
rule of the view with a **fresh copy of the view body**, and the copies
are joined by unifying the head oid terms (``f(X..) = f(Y..)`` forces
pointwise equality -- the object-id key dependency).

Two extra resolution rules handle TSL's copy semantics:

* a member goal may be absorbed by a head pattern whose value is a
  variable ``w`` (a *hanging source subgraph*): the rest of the condition
  chain binds into ``w`` as a set pattern;
* a ``{}`` condition leaf against a term-valued head position binds the
  view's value variable to ``{}`` (asserting "is a set object" on the
  source).

The result is a **union of rules** (one per combination of resolution
choices), worst-case exponential in the query size (Section 5.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import CompositionError
from ..logic.subst import Substitution
from ..obs import NULL_TRACER
from ..logic.terms import Term, Variable
from ..logic.unify import unify
from ..tsl.ast import Condition, Query, SetPattern, SetPatternTerm
from ..tsl.normalize import (Path, normalize, path_pattern, query_paths)

Views = Mapping[str, Query]

#: Levels of unfolding :func:`compose` tries before it calls the view
#: definitions cyclic.
MAX_UNFOLD_DEPTH = 8


@dataclass(frozen=True, slots=True)
class _ViewParts:
    """Pre-split pieces of a (renamed) view head used during resolution."""

    top_oid: Term
    member_edges: tuple[tuple[Term, Term], ...]        # (parent, child) oids
    object_rules: tuple[tuple[Term, Term, object], ...]  # (oid, label, value)
    hanging: tuple[tuple[Term, Variable], ...]         # (oid, value var)
    body: tuple[Condition, ...]


@dataclass(frozen=True, slots=True)
class Provenance:
    """How one composition rule was resolved (the Step 2 witness's input).

    ``unifier`` is the resolution's final substitution; the rule is its
    image.  ``copies`` maps each fresh view copy ``k`` (whose variables
    carry the suffix ``~k``) to the candidate path it resolved; one dict
    is shared by every rule of a :func:`compose` call.
    """

    unifier: Substitution
    copies: Mapping[int, Path]


def _view_parts(view: Query) -> _ViewParts:
    member_edges = []
    object_rules = []
    hanging = []
    for pattern in view.head.nested_patterns():
        object_rules.append((pattern.oid, pattern.label, pattern.value))
        if isinstance(pattern.value, SetPattern):
            for child in pattern.value.patterns:
                member_edges.append((pattern.oid, child.oid))
        elif isinstance(pattern.value, Variable):
            hanging.append((pattern.oid, pattern.value))
    return _ViewParts(view.head.oid, tuple(member_edges),
                      tuple(object_rules), tuple(hanging), view.body)


_COPY_SUFFIX = re.compile(r"~(\d+)$")


def _copy_counter_start(candidate: Query, views: Views) -> int:
    """Lowest safe start for the rename-apart counter.

    A candidate that is itself the output of an earlier composition
    carries ``~N``-suffixed variables; fresh view copies must begin
    numbering above every suffix already in play, or a copy collides
    with a candidate variable and resolution dies on the occurs check.
    """
    names = {v.name for v in candidate.head_variables()
             | candidate.body_variables()}
    for view in views.values():
        names |= {v.name for v in view.head_variables()
                  | view.body_variables()}
    start = 0
    for name in names:
        suffix = _COPY_SUFFIX.search(name)
        if suffix:
            start = max(start, int(suffix.group(1)))
    return start


class _Resolver:
    """Backtracking resolution of view-condition paths against view parts."""

    def __init__(self, views: Views, start: int = 0,
                 budget=None) -> None:
        self._views = {name: normalize(view) for name, view in views.items()}
        self._copies = start
        self._budget = budget
        #: copy number -> the path that copy resolved
        self.copy_paths: dict[int, Path] = {}

    def _fresh_parts(self, path: Path) -> _ViewParts:
        if self._budget is not None:
            self._budget.tick()
        self._copies += 1
        self.copy_paths[self._copies] = path
        view = self._views[path.source].rename_apart(f"~{self._copies}")
        return _view_parts(view)

    def resolve_paths(self, paths: list[Path], subst: Substitution,
                      body: tuple[Condition, ...]
                      ) -> Iterator[tuple[Substitution,
                                          tuple[Condition, ...]]]:
        if not paths:
            yield subst, body
            return
        first, rest = paths[0], paths[1:]
        for new_subst, new_body in self._resolve_step(first, 0, subst, body,
                                                      is_top=True):
            yield from self.resolve_paths(rest, new_subst, new_body)

    # -- per-path resolution -------------------------------------------------

    def _resolve_step(self, path: Path, depth: int, subst: Substitution,
                      body: tuple[Condition, ...], is_top: bool
                      ) -> Iterator[tuple[Substitution,
                                          tuple[Condition, ...]]]:
        """Resolve the goals of *path* from step *depth* downward."""
        oid, label = path.steps[depth]
        last = depth == len(path.steps) - 1
        leaf = path.leaf if last else None
        for after_object, object_body in self._object_goal(
                path, oid, label, leaf, last, subst):
            body_1 = body + object_body
            if is_top:
                pair = self._top_goal(path, oid, after_object)
                if pair is None:
                    continue
                after_top, top_body = pair
                body_2 = body_1 + top_body
            else:
                after_top, body_2 = after_object, body_1
            if last:
                yield after_top, body_2
                continue
            yield from self._member_goal(path, depth, after_top, body_2)

    def _top_goal(self, path: Path, oid: Term, subst: Substitution
                  ) -> tuple[Substitution, tuple[Condition, ...]] | None:
        parts = self._fresh_parts(path)
        unified = unify(oid, parts.top_oid, subst)
        if unified is None:
            return None
        return unified, parts.body

    def _object_goal(self, path: Path, oid: Term, label: Term,
                     leaf: object, last: bool, subst: Substitution
                     ) -> Iterator[tuple[Substitution,
                                         tuple[Condition, ...]]]:
        parts = self._fresh_parts(path)
        for rule_oid, rule_label, rule_value in parts.object_rules:
            unified = unify(oid, rule_oid, subst)
            if unified is None:
                continue
            unified = unify(label, rule_label, unified)
            if unified is None:
                continue
            if last:
                unified = self._unify_leaf(leaf, rule_value, unified)
                if unified is None:
                    continue
            yield unified, parts.body

    def _unify_leaf(self, leaf: object, rule_value: object,
                    subst: Substitution) -> Substitution | None:
        if isinstance(leaf, SetPattern):
            if isinstance(rule_value, SetPattern):
                return subst
            if isinstance(rule_value, Variable):
                # "{}" asserts the source value is a set object.
                return unify(rule_value, SetPatternTerm(SetPattern(())),
                             subst)
            return None  # constant: atomic object, never a set
        if isinstance(rule_value, SetPattern):
            bound = subst.apply(leaf)
            if isinstance(bound, Variable):
                raise CompositionError(
                    "a condition binds a variable to the value of a "
                    "set-constructed view object; this is not expressible "
                    "as a source query (rejecting candidate)")
            return None
        return unify(leaf, rule_value, subst)

    def _member_goal(self, path: Path, depth: int, subst: Substitution,
                     body: tuple[Condition, ...]
                     ) -> Iterator[tuple[Substitution,
                                         tuple[Condition, ...]]]:
        parent_oid = path.steps[depth][0]
        child_oid = path.steps[depth + 1][0]
        # Option A: a member rule of the view head.
        parts = self._fresh_parts(path)
        for rule_parent, rule_child in parts.member_edges:
            unified = unify(parent_oid, rule_parent, subst)
            if unified is None:
                continue
            unified = unify(child_oid, rule_child, unified)
            if unified is None:
                continue
            yield from self._resolve_step(path, depth + 1, unified,
                                          body + parts.body, is_top=False)
        # Option B: a hanging source subgraph -- the head pattern's value
        # variable absorbs the rest of the condition chain.
        parts_b = self._fresh_parts(path)
        for rule_oid, value_var in parts_b.hanging:
            unified = unify(parent_oid, rule_oid, subst)
            if unified is None:
                continue
            suffix = path_pattern(path.steps[depth + 1:], path.leaf)
            absorbed = unify(value_var,
                             SetPatternTerm(SetPattern((suffix,))), unified)
            if absorbed is None:
                continue
            yield absorbed, body + parts_b.body


def compose(candidate: Query, views: Views, *,
            tracer=None, budget=None,
            provenance: list | None = None) -> list[Query]:
    """Compute the composition of *candidate* with *views*.

    Conditions over sources not in *views* pass through unchanged.
    Views may be defined over other views; unfolding repeats (up to
    :data:`MAX_UNFOLD_DEPTH` levels) until only base sources remain.
    Returns a union of rules over the base sources; an empty list means
    the candidate is unsatisfiable against the view definitions.

    *provenance*, when given, receives one entry per returned rule: its
    :class:`Provenance` when one level of unfolding produced it, else
    None (a view over a view resolves paths no candidate path names).

    *tracer* records a ``compose`` span counting produced rules and view
    copies; *budget* is ticked once per fresh view copy and may raise
    :class:`~repro.errors.BudgetExceededError`.

    Raises :class:`CompositionError` in the one corner TSL cannot
    express (binding a variable to a set-*constructed* view value), or
    when view definitions are cyclic beyond :data:`MAX_UNFOLD_DEPTH`.
    """
    tracer = tracer or NULL_TRACER
    with tracer.span("compose") as span:
        pending = [normalize(candidate)]
        rules: list[Query] = []
        emitted: set[Query] = set()
        # One resolver (one rename-apart counter) across all levels: a fresh
        # counter per level would reuse ~N suffixes already present in the
        # partially-unfolded rules, and the colliding copies fail the occurs
        # check, silently dropping every deeper resolution.
        counter_start = _copy_counter_start(pending[0], views)
        resolver = _Resolver(views, start=counter_start, budget=budget)
        for level in range(MAX_UNFOLD_DEPTH):
            if not pending:
                break
            next_pending: list[Query] = []
            for rule in pending:
                for unfolded, unifier in _compose_once(rule, views,
                                                       resolver):
                    if unfolded.sources() & set(views):
                        next_pending.append(unfolded)
                    elif unfolded not in emitted:
                        emitted.add(unfolded)
                        rules.append(unfolded)
                        if provenance is not None:
                            provenance.append(
                                Provenance(unifier, resolver.copy_paths)
                                if level == 0 else None)
            pending = next_pending
        if pending:
            raise CompositionError(
                f"view definitions did not unfold within "
                f"{MAX_UNFOLD_DEPTH} levels (cyclic views?)")
        span.add("rules", len(rules))
        span.add("view_copies", resolver._copies - counter_start)
        return rules


def _compose_once(candidate: Query, views: Views, resolver: _Resolver
                  ) -> list[tuple[Query, Substitution]]:
    """One level of unfolding of every view condition of *candidate*.

    Returns each distinct unfolded rule with the unifier that produced
    it (the empty substitution for a candidate with no view condition).
    """
    candidate = normalize(candidate)
    base_conditions = tuple(c for c in candidate.body
                            if c.source not in views)
    view_paths = [p for p in query_paths(candidate) if p.source in views]
    if not view_paths:
        return [(candidate, Substitution())]
    rules: list[tuple[Query, Substitution]] = []
    seen: set[Query] = set()
    for subst, body in resolver.resolve_paths(view_paths, Substitution(),
                                              ()):
        # Apply the final substitution once, to everything: bindings made
        # by later goals must reach view-body copies added earlier.
        full_body = tuple(c.substitute(subst)
                          for c in base_conditions + body)
        rule = normalize(Query(candidate.head.substitute(subst),
                               full_body, name=candidate.name))
        if rule not in seen:
            seen.add(rule)
            rules.append((rule, subst))
    return rules
