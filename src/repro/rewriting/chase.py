"""The chase, extended for set variables (Section 3.2).

Object identity induces a key dependency in OEM: the object id determines
the label and the value.  The rewriting algorithm chases queries with this
dependency so that, e.g., (Q11) -- whose second condition binds a *set
variable* ``V`` -- is transformed into (Q10), where ``V`` has become the
set pattern ``{<X Y Z>}`` with fresh variables (Example 3.4).

The implementation works on normal-form queries and applies, to a
fixpoint, the six rules of Section 3.2 plus the "regular" chase for
labeled functional dependencies inferred from structural constraints
(Section 3.3), and label inference.

Chasing can fail: equating two distinct constants means the query has an
empty result on every database satisfying the key dependency
(:class:`ChaseContradictionError`).

Termination relies on the absence of cyclic object patterns (validated by
:mod:`repro.tsl.validate`): each oid term can trigger the set-variable
expansion at most once, and every other rule eliminates a variable or a
path.  Unvalidated inputs (views, compositions) are checked before
union saturation, which would graft forever on a cycle
(:class:`~repro.errors.CyclicPatternError`, TSL003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import ChaseContradictionError, CyclicPatternError
from ..logic.subst import Substitution
from ..logic.terms import Atom, Constant, Term, Variable
from ..logic.unify import unify
from ..obs import NULL_TRACER
from ..tsl.ast import (ObjectPattern, Query, SetPattern, SetPatternTerm,
                       fresh_variable_factory)
from ..tsl.normalize import Path, normalize, path_to_condition, query_paths


class StructuralConstraints(Protocol):
    """What the chase needs to know from a structural description (§3.3).

    Implementations: :class:`repro.rewriting.constraints.Dtd` and
    :class:`repro.rewriting.dataguide.DataGuide`.
    """

    source: str

    def infer_middle_label(self, parent: Atom, child: Atom) -> Atom | None:
        """Label inference for ``parent . ? . child`` -- the unique middle."""

    def only_child_label(self, parent: Atom) -> Atom | None:
        """The unique possible child label of *parent*, if any."""

    def functional_child(self, parent: Atom, child: Atom) -> bool:
        """True when a *parent* object has at most one *child* subobject."""


@dataclass(frozen=True, slots=True)
class _Occurrence:
    """One object-pattern occurrence inside a path."""

    path_index: int
    depth: int                 # 0-based step index
    oid: Term
    label: Term
    has_child: bool            # a nested pattern follows in this path
    leaf: object | None        # PatternValue when this is the last step


def _occurrences(paths: list[Path]) -> list[_Occurrence]:
    out: list[_Occurrence] = []
    for index, path in enumerate(paths):
        last = len(path.steps) - 1
        for depth, (oid, label) in enumerate(path.steps):
            if depth < last:
                out.append(_Occurrence(index, depth, oid, label, True, None))
            else:
                out.append(_Occurrence(index, depth, oid, label, False,
                                       path.leaf))
    return out


def _unify_or_fail(left: Term, right: Term, what: str) -> Substitution | None:
    """Unify two field terms; None if already equal; raise on clash."""
    if left == right:
        return None
    result = unify(left, right)
    if result is None:
        raise ChaseContradictionError(
            f"chase equated conflicting {what}: {left} vs {right}")
    return result


def _rebuild(query: Query, paths: list[Path]) -> Query:
    return Query(query.head, tuple(path_to_condition(p) for p in paths),
                 name=query.name)


def _key_dependency_step(query: Query,
                         paths: list[Path]) -> Query | None:
    """One application of the oid key-dependency rules; None at fixpoint."""
    occurrences = _occurrences(paths)
    groups: dict[Term, list[_Occurrence]] = {}
    for occ in occurrences:
        groups.setdefault(occ.oid, []).append(occ)

    fresh = fresh_variable_factory(query.all_variables())
    for oid, group in groups.items():
        if len(group) < 2:
            continue
        first = group[0]
        # Rule: labels must agree (bind variables, reject constant clashes).
        for other in group[1:]:
            subst = _unify_or_fail(first.label, other.label,
                                   f"labels of oid {oid}")
            if subst is not None:
                return normalize(query.substitute(subst))
        # Rule: values must agree.
        set_evidence = any(occ.has_child for occ in group)
        empty_evidence = any(
            not occ.has_child and isinstance(occ.leaf, SetPattern)
            for occ in group)
        leaf_terms = [occ.leaf for occ in group
                      if not occ.has_child and isinstance(occ.leaf, Term)]
        for leaf in leaf_terms:
            if isinstance(leaf, Constant) and (set_evidence or empty_evidence):
                raise ChaseContradictionError(
                    f"object {oid} is both atomic ({leaf}) and a set")
        if set_evidence:
            # Set-variable extension: a value variable on an oid known to
            # have a subobject becomes the pattern {<X Y Z>}, X, Y, Z fresh.
            for leaf in leaf_terms:
                if isinstance(leaf, Variable):
                    replacement = SetPatternTerm(SetPattern((
                        ObjectPattern(fresh(), fresh(), fresh()),)))
                    subst = Substitution({leaf: replacement})
                    return normalize(query.substitute(subst))
        # Rule: two term-valued occurrences unify.
        for other_leaf in leaf_terms[1:]:
            subst = _unify_or_fail(leaf_terms[0], other_leaf,
                                   f"values of oid {oid}")
            if subst is not None:
                return normalize(query.substitute(subst))
    return None


def _check_acyclic(paths: list[Path]) -> None:
    """Raise TSL003 when the paths' oid parent->child graph has a cycle.

    Nodes are ``(source, oid)``, the keys :func:`_saturate_unions`
    grafts at; grafting only follows existing edges, so saturation
    terminates exactly when this graph is acyclic.  Nodes whose children
    are all gone are peeled off until none is left or a cycle blocks.
    """
    children: dict[tuple, set] = {}
    for path in paths:
        nodes = [(path.source, oid) for oid, _label in path.steps]
        for parent, child in zip(nodes, nodes[1:]):
            children.setdefault(parent, set()).add(child)
    while children:
        peeled = [node for node, kids in children.items()
                  if kids.isdisjoint(children)]
        if not peeled:
            name = min(str(oid) for _source, oid in children)
            raise CyclicPatternError("body patterns look for a cycle at "
                                     f"or below oid term {name}",
                                     code="TSL003")
        for node in peeled:
            del children[node]


def _saturate_unions(paths: list[Path]) -> list[Path]:
    """Rule 3 of Section 3.2 under normal form: union shared set values.

    When the same oid term occurs in two paths, the object's set value is
    the union of what both paths assert below it; in normal form this
    materializes as *grafting* each path's continuation onto every prefix
    that reaches the shared oid.  Without this, the path-into-path mapping
    test cannot recombine facts contributed through different prefixes
    (the fusion-spread bodies that compositions produce).

    Incremental worklist: each path registers, per shared-oid key, its
    prefixes and continuations; a *new* prefix grafts every continuation
    already at that key and a *new* continuation grafts onto every
    prefix, so no pair is re-examined once processed (a sweep that
    recomputes all occurrences until nothing changes reaches the same
    closure quadratically slower).  Grafted paths join the worklist;
    output order is insertion order, so it is deterministic across
    processes.

    Terminates because the caller has checked the oid graph acyclic
    (:func:`_check_acyclic`) and every graft follows its edges.
    """
    seen = set(paths)
    ordered = list(paths)
    # (source, oid term) -> insertion-ordered prefix / continuation sets.
    prefixes: dict[tuple[str, Term], dict[tuple, None]] = {}
    suffixes: dict[tuple[str, Term], dict[tuple, None]] = {}
    position = 0
    while position < len(ordered):
        path = ordered[position]
        position += 1
        steps = path.steps
        last = len(steps) - 1
        for depth in range(len(steps)):
            key = (path.source, steps[depth][0])
            key_prefixes = prefixes.setdefault(key, {})
            key_suffixes = suffixes.setdefault(key, {})
            grafts: list[Path] = []
            prefix = steps[:depth + 1]
            if prefix not in key_prefixes:
                key_prefixes[prefix] = None
                for suffix_steps, leaf in key_suffixes:
                    grafts.append(Path(prefix + suffix_steps, leaf,
                                       path.source))
            if depth < last:
                suffix = (steps[depth + 1:], path.leaf)
                if suffix not in key_suffixes:
                    key_suffixes[suffix] = None
                    for existing in key_prefixes:
                        grafts.append(Path(existing + suffix[0],
                                           path.leaf, path.source))
            for grafted in grafts:
                if grafted not in seen:
                    seen.add(grafted)
                    ordered.append(grafted)
    return ordered


def _drop_subsumed_empty_paths(paths: list[Path]) -> list[Path]:
    """Drop a ``{}``-leaf path whose steps are a prefix of a longer path.

    This realizes rule 3 (set-value union) under normal form: the union of
    ``{}`` with a non-empty set pattern is the non-empty one.  One pass
    collects every proper step-prefix; membership replaces an all-pairs
    scan.
    """
    proper_prefixes: set[tuple[str, tuple]] = set()
    for path in paths:
        for depth in range(1, len(path.steps)):
            proper_prefixes.add((path.source, path.steps[:depth]))
    return [path for path in paths
            if not (isinstance(path.leaf, SetPattern)
                    and (path.source, path.steps) in proper_prefixes)]


def _label_inference_step(query: Query, paths: list[Path],
                          constraints: StructuralConstraints) -> Query | None:
    """Bind every inferable variable label in one batch (Section 3.3).

    Produces the same binding *sequence* as the one-at-a-time rule --
    scan from the top, fire the first inferable position, rescan -- but
    tracks fired bindings in a local map instead of substituting
    and re-normalizing the whole query per binding, then applies them
    with a single substitute/normalize.  Sound to batch: the chase only
    reaches label inference with the key dependency at fixpoint, and
    binding a label variable to a constant cannot wake the key rules
    (labels of a shared oid are already unified, values are untouched).
    """
    bindings: dict[Variable, Constant] = {}

    def resolve(term: Term) -> Term:
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


def _labeled_fd_step(query: Query, paths: list[Path],
                     constraints: StructuralConstraints) -> Query | None:
    """One application of the regular chase on labeled FDs; None at fixpoint.

    When objects labeled ``a`` have at most one subobject labeled ``b``,
    the functional dependency ``X_a -> Y_b`` holds: two ``b``-children of
    the same ``a``-parent occurrence must be the same object.
    """
    children: dict[tuple[Term, Atom], Term] = {}
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


def chase(query: Query,
          constraints: StructuralConstraints | None = None,
          max_steps: int = 10_000, *,
          tracer=None, budget=None) -> Query:
    """Chase *query* to a fixpoint; raises on contradiction.

    Applies, interleaved until none fires: the oid key-dependency rules
    (including the set-variable extension), label inference, and the
    labeled-FD chase from *constraints* when given.  *tracer* records a
    ``chase`` span with an iteration counter; *budget* is ticked once
    per fixpoint iteration and may raise
    :class:`~repro.errors.BudgetExceededError`.  A cyclic object
    pattern raises :class:`~repro.errors.CyclicPatternError`.
    """
    tracer = tracer or NULL_TRACER
    with tracer.span("chase") as span:
        current = normalize(query)
        for iteration in range(max_steps):
            if budget is not None:
                budget.tick()
            paths = query_paths(current)
            stepped = _key_dependency_step(current, paths)
            if stepped is None and constraints is not None:
                stepped = _label_inference_step(current, paths,
                                                constraints)
                if stepped is None:
                    stepped = _labeled_fd_step(current, paths, constraints)
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
