"""The reference chase: one rebuilt, re-normalized query per fired rule.

:func:`repro.rewriting.chase.chase` keeps the query as its head and its
body paths between rules and substitutes only into the paths a rule
touches.  This is the loop it replaced, kept as the specification it is
checked against: every fired rule substitutes into the whole query and
normalizes it, and every iteration walks the paths again.  The fixpoint
machinery that did not change (occurrences, unification, the acyclicity
check, union saturation) is shared with the engine.
"""

from __future__ import annotations

from repro.errors import ChaseContradictionError
from repro.logic.subst import Substitution
from repro.logic.terms import Constant, Term, Variable
from repro.obs import NULL_TRACER
from repro.rewriting.chase import (_check_acyclic,
                                   _drop_subsumed_empty_paths, _occurrences,
                                   _saturate_unions, _unify_or_fail)
from repro.tsl.ast import (ObjectPattern, Query, SetPattern, SetPatternTerm,
                           fresh_variable_factory)
from repro.tsl.normalize import normalize, path_to_condition, query_paths


def _rebuild(query, paths):
    return Query(query.head, tuple(path_to_condition(p) for p in paths),
                 name=query.name)


def key_dependency_step(query, paths):
    """One application of the oid key-dependency rules; None at fixpoint."""
    groups = {}
    for occ in _occurrences(paths):
        groups.setdefault(occ.oid, []).append(occ)
    fresh = fresh_variable_factory(query.all_variables())
    for oid, group in groups.items():
        if len(group) < 2:
            continue
        first = group[0]
        for other in group[1:]:
            subst = _unify_or_fail(first.label, other.label,
                                   f"labels of oid {oid}")
            if subst is not None:
                return normalize(query.substitute(subst))
        set_evidence = any(occ.has_child for occ in group)
        empty_evidence = any(
            not occ.has_child and isinstance(occ.leaf, SetPattern)
            for occ in group)
        leaf_terms = [occ.leaf for occ in group
                      if not occ.has_child and isinstance(occ.leaf, Term)]
        for leaf in leaf_terms:
            if isinstance(leaf, Constant) and (set_evidence
                                               or empty_evidence):
                raise ChaseContradictionError(
                    f"object {oid} is both atomic ({leaf}) and a set")
        if set_evidence:
            for leaf in leaf_terms:
                if isinstance(leaf, Variable):
                    replacement = SetPatternTerm(SetPattern((
                        ObjectPattern(fresh(), fresh(), fresh()),)))
                    subst = Substitution({leaf: replacement})
                    return normalize(query.substitute(subst))
        for other_leaf in leaf_terms[1:]:
            subst = _unify_or_fail(leaf_terms[0], other_leaf,
                                   f"values of oid {oid}")
            if subst is not None:
                return normalize(query.substitute(subst))
    return None


def label_inference_step(query, paths, constraints):
    """Bind every inferable variable label in one batch (Section 3.3)."""
    bindings = {}

    def resolve(term):
        return bindings.get(term, term) if isinstance(term, Variable) \
            else term

    changed = True
    while changed:
        changed = False
        for path in paths:
            if path.source != constraints.source:
                continue
            steps = path.steps
            for depth in range(len(steps)):
                label = resolve(steps[depth][1])
                if not isinstance(label, Variable):
                    continue
                inferred = None
                if depth > 0:
                    parent_label = resolve(steps[depth - 1][1])
                    if isinstance(parent_label, Constant):
                        if depth + 1 < len(steps):
                            child_label = resolve(steps[depth + 1][1])
                            if isinstance(child_label, Constant):
                                inferred = constraints.infer_middle_label(
                                    parent_label.value, child_label.value)
                        if inferred is None:
                            inferred = constraints.only_child_label(
                                parent_label.value)
                if inferred is not None:
                    bindings[label] = Constant(inferred)
                    changed = True
                    break
            if changed:
                break
    if not bindings:
        return None
    return normalize(query.substitute(Substitution(bindings)))


def labeled_fd_step(query, paths, constraints):
    """One application of the regular chase on labeled FDs."""
    children = {}
    for path in paths:
        if path.source != constraints.source:
            continue
        for depth in range(len(path.steps) - 1):
            parent_oid, parent_label = path.steps[depth]
            child_oid, child_label = path.steps[depth + 1]
            if not (isinstance(parent_label, Constant)
                    and isinstance(child_label, Constant)):
                continue
            if not constraints.functional_child(parent_label.value,
                                                child_label.value):
                continue
            key = (parent_oid, child_label.value)
            existing = children.setdefault(key, child_oid)
            if existing != child_oid:
                subst = _unify_or_fail(existing, child_oid,
                                       f"oids under FD {parent_label}->"
                                       f"{child_label}")
                if subst is not None:
                    return normalize(query.substitute(subst))
    return None


def reference_chase(query, constraints=None, max_steps=10_000, *,
                    tracer=None, budget=None):
    """Chase *query* to a fixpoint, rebuilding the query per fired rule."""
    tracer = tracer or NULL_TRACER
    with tracer.span("chase") as span:
        current = normalize(query)
        for iteration in range(max_steps):
            if budget is not None:
                budget.tick()
            paths = query_paths(current)
            stepped = key_dependency_step(current, paths)
            if stepped is None and constraints is not None:
                stepped = label_inference_step(current, paths, constraints)
                if stepped is None:
                    stepped = labeled_fd_step(current, paths, constraints)
            if stepped is None:
                _check_acyclic(paths)
                reduced = _drop_subsumed_empty_paths(
                    _saturate_unions(paths))
                if set(reduced) != set(paths):
                    current = _rebuild(current, reduced)
                    continue
                span.add("iterations", iteration + 1)
                return current
            current = stepped
        raise ChaseContradictionError(
            f"chase did not terminate within {max_steps} steps "
            "(is the query acyclic?)")
