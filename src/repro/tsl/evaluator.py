"""TSL evaluation with minimal-model semantics (Section 2).

The meaning of a query body is the set of assignments from variables to
object ids, labels, atomic values, and set values (subgraphs) that satisfy
every condition; a condition's top-level pattern matches the *root* objects
of its source.  The head then constructs the answer graph: one object per
(head object pattern, assignment) pair, keyed by the ground head oid term.
Assignments producing the same oid term "fuse" their set values; when a
head value variable is bound to a set value, the source subgraph hangs off
the constructed node (copy semantics -- the answer can be a graph).

Programs (unions of rules) evaluate into a single fused answer, which is
what Section 4's equivalence notion compares.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from ..errors import FusionConflictError, OemError, TslError
from ..logic.subst import Substitution
from ..logic.unify import unify
from ..logic.terms import Atom, Constant, SetValue, Term, Variable
from ..obs import NULL_TRACER
from ..oem.model import OemDatabase, Oid
from .ast import Condition, ObjectPattern, Query, SetPattern

Sources = Mapping[str, OemDatabase]

ANSWER_NAME = "answer"


def _as_sources(sources: Union[OemDatabase, Sources]) -> Sources:
    if isinstance(sources, OemDatabase):
        return {sources.name: sources}
    return sources


# --------------------------------------------------------------------------
# Body matching
# --------------------------------------------------------------------------

def _unify_field(pattern_term: Term, ground: Term,
                 subst: Substitution) -> Substitution | None:
    """Match one pattern field against a ground term under *subst*.

    Evaluation binds variables to ground database terms only, so a bare
    variable or constant needs no unifier: compare, or extend.
    """
    kind = type(pattern_term)
    if kind is Variable:
        bound = subst.get(pattern_term)
        if bound is None:
            return subst.extend(pattern_term, ground)
        return subst if bound == ground else None
    if kind is Constant:
        return subst if pattern_term == ground else None
    bound = subst.apply(pattern_term)
    if bound == ground:
        return subst
    return unify(bound, ground, subst)


def _match_pattern(db: OemDatabase, oid: Oid, pattern: ObjectPattern,
                   subst: Substitution) -> Iterator[Substitution]:
    """Yield extensions of *subst* matching *pattern* at object *oid*."""
    after_oid = _unify_field(pattern.oid, oid, subst)
    if after_oid is None:
        return
    after_label = _unify_field(pattern.label, Constant(db.label(oid)),
                               after_oid)
    if after_label is None:
        return
    value = pattern.value
    if isinstance(value, SetPattern):
        if db.is_atomic(oid):
            return
        yield from _match_set(db, oid, value.patterns, after_label)
        return
    if db.is_atomic(oid):
        ground: Term = Constant(db.atomic_value(oid))
    else:
        ground = SetValue(frozenset(db.children(oid)), db.name)
    final = _unify_field(value, ground, after_label)
    if final is not None:
        yield final


def _match_set(db: OemDatabase, parent: Oid,
               patterns: tuple[ObjectPattern, ...],
               subst: Substitution) -> Iterator[Substitution]:
    """Match each nested pattern to *some* child of *parent* (set
    containment).

    Distinct nested patterns may match the same child; all combinations
    are enumerated (backtracking join).
    """
    if not patterns:
        yield subst
        return
    first, rest = patterns[0], patterns[1:]
    for child in _candidate_children(db, parent, first, subst):
        for extended in _match_pattern(db, child, first, subst):
            yield from _match_set(db, parent, rest, extended)


# Candidates.  ``_candidate_roots`` and ``_candidate_children`` return,
# in the order a full scan visits them, a superset of the objects that
# can match a pattern: they only drop objects whose label or nested
# atomic values rule them out, so the assignments -- and their order --
# are the full scan's.

def _bound(term: Term, subst: Substitution) -> Term:
    if type(term) is Variable:
        return subst.get(term, term)
    return subst.apply(term)


def _bound_atom(term: Term, subst: Substitution) -> Atom | None:
    """The atom *term* is bound to, or None when it is not a constant."""
    bound = _bound(term, subst)
    return bound.value if type(bound) is Constant else None


def _candidate_children(db: OemDatabase, parent: Oid,
                        pattern: ObjectPattern,
                        subst: Substitution) -> tuple[Oid, ...]:
    bound_oid = _bound(pattern.oid, subst)
    if bound_oid.is_ground():
        return (bound_oid,) if db.has_child(parent, bound_oid) else ()
    label = _bound_atom(pattern.label, subst)
    if label is None:
        return db.children(parent)
    return db.children_labeled(parent, label)


def _anchor(db: OemDatabase, pattern: ObjectPattern,
            subst: Substitution) -> Iterable[Oid] | None:
    """The objects that can match *pattern*, found through the value
    index and the parent map, or None when no nested atomic value is
    bound.  Unordered."""
    label = _bound_atom(pattern.label, subst)
    value = pattern.value
    if not isinstance(value, SetPattern):
        atom = _bound_atom(value, subst)
        if label is None or atom is None:
            return None
        return db.atoms_valued(label, atom)
    best = None
    for nested in value.patterns:
        below = _anchor(db, nested, subst)
        if below is not None and (best is None or len(below) < len(best)):
            best = below
    if best is None:
        return None
    parents = {parent for child in best for parent in db.parents(child)}
    if label is not None:
        parents = {parent for parent in parents if db.label(parent) == label}
    return parents


def _candidate_roots(db: OemDatabase, pattern: ObjectPattern,
                     subst: Substitution) -> Iterable[Oid]:
    bound_oid = _bound(pattern.oid, subst)
    if bound_oid.is_ground():
        return ((bound_oid,) if bound_oid in db and db.is_root(bound_oid)
                else ())
    anchor = _anchor(db, pattern, subst)
    if anchor is not None:
        return db.in_root_order(anchor)
    label = _bound_atom(pattern.label, subst)
    if label is None:
        return db.roots
    return db.roots_labeled(label)


def _match_condition(condition: Condition, sources: Sources,
                     subst: Substitution) -> Iterator[Substitution]:
    try:
        db = sources[condition.source]
    except KeyError:
        known = ", ".join(sorted(sources)) or "(none)"
        raise TslError(f"unknown source {condition.source!r}; "
                       f"available: {known}") from None
    for root in _candidate_roots(db, condition.pattern, subst):
        yield from _match_pattern(db, root, condition.pattern, subst)


def body_assignments(query: Query,
                     sources: Union[OemDatabase, Sources],
                     reorder: bool = True) -> list[Substitution]:
    """Return the satisfying assignments of the query body, deduplicated.

    With *reorder* (the default) conditions are evaluated selective-first
    and connected-next (:mod:`repro.tsl.planner`); conjunction order is
    semantically irrelevant, so this only affects cost.
    """
    sources = _as_sources(sources)
    if reorder and len(query.body) > 1:
        from .planner import order_conditions
        query = order_conditions(query)
    current: list[Substitution] = [Substitution()]
    for condition in query.body:
        extended: list[Substitution] = []
        for subst in current:
            extended.extend(_match_condition(condition, sources, subst))
        current = extended
        if not current:
            return []
    return list(dict.fromkeys(current))


# --------------------------------------------------------------------------
# Head construction
# --------------------------------------------------------------------------

def _instantiate_head(answer: OemDatabase, pattern: ObjectPattern,
                      subst: Substitution, sources: Sources) -> Oid:
    oid = subst.apply(pattern.oid)
    if not oid.is_ground():
        raise TslError(f"head oid {pattern.oid} not grounded by assignment")
    label_term = subst.apply(pattern.label)
    if not isinstance(label_term, Constant):
        raise TslError(f"head label {pattern.label} not grounded to a "
                       "constant by assignment")
    label = label_term.value
    value = pattern.value
    try:
        if isinstance(value, SetPattern):
            answer.add_set(oid, label)
            for child in value.patterns:
                child_oid = _instantiate_head(answer, child, subst, sources)
                answer.add_child(oid, child_oid)
        else:
            ground = subst.apply(value)
            if isinstance(ground, Constant):
                answer.add_atomic(oid, label, ground.value)
            elif isinstance(ground, SetValue):
                answer.add_set(oid, label)
                source_db = sources[ground.source]
                for member in sorted(ground.members, key=str):
                    source_db.copy_subgraph_into(answer, member)
                    answer.add_child(oid, member)
            else:
                raise TslError(
                    f"head value {value} not grounded by assignment")
    except OemError as exc:
        raise FusionConflictError(
            f"fusing head object {oid}: {exc}") from exc
    return oid


def evaluate(query: Query,
             sources: Union[OemDatabase, Sources],
             answer_name: str = ANSWER_NAME, *,
             tracer=None) -> OemDatabase:
    """Evaluate one TSL rule and return the answer database."""
    return evaluate_program([query], sources, answer_name, tracer=tracer)


def evaluate_program(rules: Iterable[Query],
                     sources: Union[OemDatabase, Sources],
                     answer_name: str = ANSWER_NAME, *,
                     tracer=None) -> OemDatabase:
    """Evaluate a union of rules into one fused answer database.

    Per Section 2, when two assignments (possibly from different rules)
    produce the same oid, "the same object is returned, and the values of
    the two objects are fused".

    *tracer* records one ``evaluate.rule`` span per rule with the
    assignment count, under an ``evaluate`` root span.
    """
    tracer = tracer or NULL_TRACER
    sources = _as_sources(sources)
    answer = OemDatabase(answer_name)
    rules = list(rules)
    with tracer.span("evaluate", rules=len(rules)) as span:
        for rule in rules:
            with tracer.span("evaluate.rule",
                             rule=rule.name or "?") as rule_span:
                assignments = body_assignments(rule, sources)
                _construct(answer, rule, assignments, sources)
                rule_span.set("assignments", len(assignments))
        answer.check_integrity()
        span.set("objects", answer.stats()["objects"])
    return answer


def _construct(answer: OemDatabase, rule: Query,
               assignments: Iterable[Substitution],
               sources: Sources) -> None:
    for assignment in assignments:
        answer.add_root(_instantiate_head(answer, rule.head, assignment,
                                          sources))


def answer_from_assignments(rule: Query,
                            assignments: Iterable[Substitution],
                            sources: Union[OemDatabase, Sources],
                            answer_name: str = ANSWER_NAME) -> OemDatabase:
    """The answer *rule*'s head builds from its body *assignments* (as
    returned by :func:`body_assignments`), exactly as :func:`evaluate`
    builds it."""
    sources = _as_sources(sources)
    answer = OemDatabase(answer_name)
    _construct(answer, rule, assignments, sources)
    answer.check_integrity()
    return answer
