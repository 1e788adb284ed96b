"""Compile-time equivalence of TSL queries and unions (Section 4).

Two queries are equivalent iff their results are equivalent on every OEM
database.  Because TSL heads construct graphs -- and different rules (or
different assignments) can contribute parts of the same graph -- each rule
is decomposed into *graph component queries* (top / member / object rules,
:mod:`repro.tsl.decompose`); two decompositions are equivalent iff the
mutual-mapping condition of Theorem 4.2 holds, which generalizes the
containment theorem for unions of conjunctive queries [33, 18].

Inputs are chased (with optional structural constraints) and normalized
first; a rule whose chase contradicts the oid key dependency has an empty
result on every database and drops out of its union.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ChaseContradictionError
from ..logic.subst import Substitution
from ..obs import NULL_TRACER
from ..tsl.ast import Query
from ..tsl.decompose import ComponentQuery, decompose_program
from ..tsl.normalize import normalize, path_to_condition, query_paths
from .chase import StructuralConstraints, chase
from .mappings import body_mappings, component_mapping, coverage


def prepare_program(rules: Iterable[Query],
                    constraints: StructuralConstraints | None = None, *,
                    budget=None) -> list[Query]:
    """Chase + normalize each rule under *constraints*; drop rules with
    contradictory bodies."""
    prepared: list[Query] = []
    for rule in rules:
        try:
            prepared.append(chase(rule, constraints, budget=budget))
        except ChaseContradictionError:
            continue  # empty on every legal database: contributes nothing
    return prepared


def components_subsumed(left: Sequence[ComponentQuery],
                        right: Sequence[ComponentQuery],
                        budget=None) -> bool:
    """True when every left component has a mapping *from* some right one.

    Witnesses that the left union's result graph is contained in the
    right's, component-wise (one half of Theorem 4.2).
    """
    return all(
        any(component_mapping(t, p, budget=budget) is not None
            for t in right)
        for p in left)


def programs_equivalent(left: Iterable[Query], right: Iterable[Query],
                        constraints: StructuralConstraints | None = None,
                        *, tracer=None, budget=None) -> bool:
    """Theorem 4.3: decompose both unions and test mutual mappings --
    :func:`equivalence_obstacle` finds no unmapped component."""
    return equivalence_obstacle(left, right, constraints, tracer=tracer,
                                budget=budget) is None


def equivalence_obstacle(left: Iterable[Query], right: Iterable[Query],
                         constraints: StructuralConstraints | None = None,
                         *, tracer=None, budget=None) -> dict | None:
    """Why :func:`programs_equivalent` says False: the unmapped component.

    Runs the Theorem 4.3 test and returns the first graph component
    (top / member / object rule) that no component of the other side
    maps onto::

        {"unmapped_side": "left" | "right",
         "component_kind": "top" | "member" | "object",
         "component": "<printable component rule>"}

    ``unmapped_side="left"`` means a *left* component is not covered by
    any right component (left is not contained in right), and
    symmetrically.  Returns None when the programs are equivalent.
    Both sides are chased under *constraints*.  The ``equivalence`` span
    counts the graph components of both sides.
    """
    tracer = tracer or NULL_TRACER
    with tracer.span("equivalence") as span:
        left_components, right_components = (
            decompose_program(prepare_program(rules, constraints,
                                              budget=budget))
            for rules in (left, right))
        span.add("components",
                 len(left_components) + len(right_components))
        obstacle = next((
            {"unmapped_side": side, "component_kind": p.kind,
             "component": str(p)}
            for side, components, others in (
                ("left", left_components, right_components),
                ("right", right_components, left_components))
            for p in components
            if not components_subsumed([p], others, budget=budget)), None)
        span.set("equivalent", obstacle is None)
        return obstacle


def equivalent(left: Query, right: Query,
               constraints: StructuralConstraints | None = None) -> bool:
    """Equivalence of two single TSL rules."""
    return programs_equivalent([left], [right], constraints)


def minimize(query: Query, *, budget=None) -> Query:
    """Remove redundant body conditions, leaving a core of *query*.

    A path is removable when the body maps into the rest of the body by a
    containment mapping that fixes the head variables.  That witness then
    retracts the body onto its image (the paths it lands on, in order),
    dropping every path it avoids at once.  Paths found non-removable lie
    in every later image and stay non-removable, so one scan suffices.
    Compositions (one view-body copy per resolution goal) shrink most.
    """
    current = normalize(query)
    frozen = Substitution({v: v for v in current.head_variables()})
    paths = query_paths(current)
    index = 0
    while 1 < len(paths) and index < len(paths):
        remaining = paths[:index] + paths[index + 1:]
        witness = body_mappings(paths, remaining, initial=frozen, limit=1,
                                budget=budget)
        if witness:
            image = coverage(paths, remaining, witness[0])
            paths = [p for i, p in enumerate(remaining) if i in image]
        else:
            index += 1
    return Query(current.head, tuple(path_to_condition(p) for p in paths),
                 name=current.name)
