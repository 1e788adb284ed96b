"""Containment mappings, generalized for object nesting (Step 1A, Section 3.1).

A *mapping* from query ``A`` (e.g. a view body) to query ``B`` (e.g. the
query body) sends ``A``'s variables to ``B``'s terms so that every single
path of ``A`` maps into some single path of ``B``.  A path maps into a path
by matching pointwise from the top-level object down; when ``A``'s path is
a *prefix* of ``B``'s, the leftover suffix of ``B`` is absorbed by ``A``'s
leaf value variable as a *set mapping* (Example 3.2: ``Z' -> {<Z last
stanford>}``).

Mappings are a necessary condition for a view to be relevant to a query
(Lemma 5.1) but not sufficient (Example 3.3) -- the composition test of
Step 2 decides.

The same engine serves the equivalence test of Section 4: a containment
mapping from component query ``T`` to ``P`` witnesses ``P ⊆ T``.

Both queries must be in normal form with the chase applied (the caller's
responsibility; :func:`find_mappings` normalizes defensively).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.subst import Substitution
from ..logic.terms import Constant, Term, Variable
from ..logic.unify import match
from ..tsl.ast import Query, SetPattern, SetPatternTerm
from ..tsl.decompose import ComponentQuery
from ..tsl.normalize import (Path, condition_paths, path_pattern,
                             path_to_condition, query_paths)
from .index import IndexStats, PathIndex

EMPTY_SET_TERM = SetPatternTerm(SetPattern(()))


@dataclass(frozen=True, slots=True)
class Mapping:
    """A containment mapping plus the target paths it covers.

    ``covers`` holds the indices (into the target's path list) of the
    conditions the source body maps into -- the bookkeeping behind the
    covering heuristic of Section 3.4.
    """

    subst: Substitution
    covers: frozenset[int]

    def __str__(self) -> str:
        return str(self.subst)


def _suffix_term(path: Path, depth: int) -> SetPatternTerm:
    """The set pattern denoting the value of *path*'s object at *depth*.

    ``depth`` is 1-based; the value of the object at step ``depth`` is the
    set containing the rest of the chain.
    """
    suffix = path_pattern(path.steps[depth:], path.leaf)
    return SetPatternTerm(SetPattern((suffix,)))


def map_path_into(a: Path, b: Path,
                  subst: Substitution) -> Substitution | None:
    """Extend *subst* so that path *a* maps into path *b*, or None.

    Matching is one-way: only *a*-side variables are bound.  Top-level
    objects align with top-level objects (both denote root conditions).
    """
    if a.source != b.source or len(a.steps) > len(b.steps):
        return None
    for (a_oid, a_label), (b_oid, b_label) in zip(a.steps, b.steps):
        subst = match(a_oid, b_oid, subst)
        if subst is None:
            return None
        subst = match(a_label, b_label, subst)
        if subst is None:
            return None
    return _map_leaf(a, b, subst)


def _map_leaf(a: Path, b: Path, subst: Substitution) -> Substitution | None:
    n, m = len(a.steps), len(b.steps)
    a_leaf = a.leaf
    if isinstance(a_leaf, SetPattern):
        # a ends in {}: it only asserts "is a set object".  b implies that
        # exactly when it continues below depth n or itself ends in {}.
        if n < m:
            return subst
        return subst if isinstance(b.leaf, SetPattern) else None
    if n < m:
        # Set mapping: a's leaf value absorbs b's leftover suffix.
        if isinstance(subst.apply(a_leaf), Constant):
            return None
        return match(a_leaf, _suffix_term(b, n), subst)
    if isinstance(b.leaf, SetPattern):
        # b ends in {}: a's leaf variable may absorb the bare set assertion.
        if isinstance(subst.apply(a_leaf), Constant):
            return None
        return match(a_leaf, EMPTY_SET_TERM, subst)
    return match(a_leaf, b.leaf, subst)


# Internal marker appended to source-side variable names so a mapping
# search never confuses them with identically-named target variables.
# The lexer cannot produce it, so parsed queries never collide.
_APART = "†"


def _path_variables(path: Path) -> set[Variable]:
    out: set[Variable] = set()
    for oid, label in path.steps:
        out.update(oid.variables())
        out.update(label.variables())
    if isinstance(path.leaf, Term):
        out.update(path.leaf.variables())
    return out


def _rename_path(path: Path, subst: Substitution) -> Path:
    steps = tuple((subst.apply(oid), subst.apply(label))
                  for oid, label in path.steps)
    leaf = path.leaf
    if isinstance(leaf, Term):
        leaf = subst.apply(leaf)
    return Path(steps, leaf, path.source)


def rename_paths_apart(source_paths: list[Path],
                       initial: Substitution | None
                       ) -> tuple[list[Path], Substitution]:
    """Rename source-side variables apart from any target-side ones.

    Returns the renamed paths and the renamed initial substitution.  The
    domain of *initial* is renamed along (its range addresses the target
    side and is left alone).
    """
    source_vars: set[Variable] = set()
    for path in source_paths:
        source_vars |= _path_variables(path)
    if initial is not None:
        source_vars |= set(initial)
    renaming = Substitution(
        {v: Variable(v.name + _APART) for v in source_vars})
    renamed = [_rename_path(p, renaming) for p in source_paths]
    if initial is None:
        renamed_initial = Substitution()
    else:
        renamed_initial = Substitution(
            {Variable(v.name + _APART): t for v, t in initial.items()})
    return renamed, renamed_initial


def _strip_apart(name: str) -> str:
    # Strip to fixpoint: component_mapping pre-renames its paths apart,
    # then body_mappings renames again, so domains can carry stacked
    # markers.  Within one search every domain variable carries the same
    # number of markers (renaming is uniform), so stripping all of them
    # cannot collide two distinct variables.
    while name.endswith(_APART):
        name = name[:-len(_APART)]
    return name


def _unrename(subst: Substitution) -> Substitution:
    return Substitution({
        Variable(_strip_apart(v.name)): t
        for v, t in subst.items()})


def _constrainedness(path: Path, bound: frozenset[Variable]) -> int:
    """Sort score: steps + constants + already-bound variable occurrences.

    Higher scores fail faster: every constant and every bound variable is
    a point where :func:`map_path_into` can refute a target immediately,
    so trying those paths first prunes the search tree near the root.
    """
    score = len(path.steps)
    for oid, label in path.steps:
        for term in (oid, label):
            if isinstance(term, Constant):
                score += 1
            else:
                score += sum(1 for v in term.variables() if v in bound)
    leaf = path.leaf
    if isinstance(leaf, Constant):
        score += 1
    elif isinstance(leaf, Term):
        score += sum(1 for v in leaf.variables() if v in bound)
    return score


def most_constrained_order(paths: list[Path],
                           bound: frozenset[Variable]) -> list[int]:
    """Path indices, most-constrained-first (stable for equal scores)."""
    return sorted(range(len(paths)),
                  key=lambda i: -_constrainedness(paths[i], bound))


def body_mappings(source_paths: list[Path], target_paths: list[Path],
                  initial: Substitution | None = None,
                  limit: int | None = None,
                  budget=None, *,
                  index: PathIndex | None = None,
                  use_index: bool = True,
                  index_stats: IndexStats | None = None
                  ) -> list[Substitution]:
    """All substitutions mapping every source path into some target path.

    Source and target may freely share variable names: the source side is
    renamed apart internally and the results are translated back, so the
    returned substitutions are over the original source variables.

    Backtracking search over per-path choices; the result is deduplicated.
    Worst-case exponential in the number of source paths (Section 5.1).
    Pass ``limit=1`` when only existence matters -- the search stops at
    the first complete mapping.  *budget* is ticked once per search node
    and may raise :class:`~repro.errors.BudgetExceededError`.

    By default a :class:`~repro.rewriting.index.PathIndex` over
    *target_paths* restricts each source path to statically compatible
    targets; pass a prebuilt *index* to share one across calls, or
    ``use_index=False`` for the exhaustive scan (same results, same
    order).  *index_stats*, when given, accumulates hit/skip tallies.
    """
    renamed_paths, start = rename_paths_apart(source_paths, initial)
    results: list[Substitution] = []
    seen: set[Substitution] = set()
    # Most-constrained-first: longer paths, paths with more constants,
    # and paths over already-bound variables fail faster, which prunes
    # the search tree dramatically.
    order = most_constrained_order(renamed_paths, frozenset(start))
    if use_index:
        if index is None:
            index = PathIndex(target_paths)
        # Renaming only touches variables, never constants, so static
        # compatibility of the renamed path equals that of the original.
        candidate_lists = [index.candidates(renamed_paths[i])
                           for i in order]
        if index_stats is not None:
            index_stats.merge(index.stats_for(candidate_lists))
        choices = [[target_paths[t] for t in candidates]
                   for candidates in candidate_lists]
    else:
        choices = [target_paths for _ in order]

    def extend(position: int, subst: Substitution) -> bool:
        if budget is not None:
            budget.tick()
        if position == len(order):
            unrenamed = _unrename(subst)
            if unrenamed not in seen:
                seen.add(unrenamed)
                results.append(unrenamed)
            return limit is not None and len(results) >= limit
        source = renamed_paths[order[position]]
        for target in choices[position]:
            extended = map_path_into(source, target, subst)
            if extended is not None:
                if extend(position + 1, extended):
                    return True
        return False

    extend(0, start)
    return results


def coverage(source_paths: list[Path], target_paths: list[Path],
             subst: Substitution, *,
             index: PathIndex | None = None,
             use_index: bool = True) -> frozenset[int]:
    """Target path indices some source path maps into under fixed *subst*."""
    renamed_paths, fixed = rename_paths_apart(source_paths, subst)
    covered: set[int] = set()
    if use_index and index is None:
        index = PathIndex(target_paths)
    for source in renamed_paths:
        if use_index:
            positions = index.candidates(source)
        else:
            positions = range(len(target_paths))
        for position in positions:
            if position in covered:
                continue
            if map_path_into(source, target_paths[position],
                             fixed) == fixed:
                covered.add(position)
    return frozenset(covered)


def find_mappings(view: Query, query: Query, *,
                  budget=None,
                  index: PathIndex | None = None,
                  use_index: bool = True,
                  index_stats: IndexStats | None = None) -> list[Mapping]:
    """Step 1A: all mappings from the body of *view* to the body of *query*.

    Inputs are normalized defensively; apply the chase first for the full
    algorithm of Section 3.4.  One :class:`PathIndex` over the query body
    is shared by the mapping search and every coverage computation; pass
    a prebuilt *index* to share it across views.
    """
    source_paths = query_paths(view)
    target_paths = query_paths(query)
    if use_index and index is None:
        index = PathIndex(target_paths)
    return [Mapping(subst, coverage(source_paths, target_paths, subst,
                                    index=index, use_index=use_index))
            for subst in body_mappings(source_paths, target_paths,
                                       budget=budget, index=index,
                                       use_index=use_index,
                                       index_stats=index_stats)]


# --------------------------------------------------------------------------
# Refutation diagnostics (EXPLAIN provenance)
# --------------------------------------------------------------------------

def path_mapping_obstacle(a: Path, b: Path) -> str | None:
    """None when *a* maps into *b*; otherwise the first failing check.

    Diagnostic counterpart of :func:`map_path_into`: re-runs the
    pointwise match and names the condition component (source, length,
    oid, label, or leaf) that refutes it.  Messages quote the original
    (un-renamed) terms.
    """
    if a.source != b.source:
        return f"sources differ ({a.source!r} vs {b.source!r})"
    if len(a.steps) > len(b.steps):
        return (f"source path is deeper ({len(a.steps)} steps) than the "
                f"target ({len(b.steps)} steps)")
    (renamed,), subst = rename_paths_apart([a], None)
    for depth in range(len(renamed.steps)):
        r_oid, r_label = renamed.steps[depth]
        a_oid, a_label = a.steps[depth]
        b_oid, b_label = b.steps[depth]
        extended = match(r_oid, b_oid, subst)
        if extended is None:
            return (f"oid {a_oid} does not match {b_oid} "
                    f"at step {depth}")
        subst = extended
        extended = match(r_label, b_label, subst)
        if extended is None:
            return (f"label {a_label} does not match {b_label} "
                    f"at step {depth}")
        subst = extended
    if _map_leaf(renamed, b, subst) is None:
        return f"leaf value {a.leaf} does not match {b.leaf}"
    return None


def mapping_obstacle(source_paths: list[Path],
                     target_paths: list[Path]) -> str:
    """Why no containment mapping exists, as one printable sentence.

    Finds the first source path that maps into *no* target path in
    isolation and reports its best obstacle (preferring a same-source
    target so the message names a label/oid/leaf clash rather than the
    trivial source mismatch).  When every path maps somewhere
    individually the failure is a cross-condition binding conflict,
    which is reported as such.  Only call this after
    :func:`body_mappings` came back empty.
    """
    if not target_paths:
        return "the target query has no conditions"
    for source in source_paths:
        obstacles = [path_mapping_obstacle(source, target)
                     for target in target_paths]
        if all(obstacle is not None for obstacle in obstacles):
            best = next(
                (o for o in obstacles if not o.startswith("sources differ")),
                obstacles[0])
            condition = path_to_condition(source)
            return (f"condition {condition} maps into no query "
                    f"condition: {best}")
    return ("every condition maps into some query condition "
            "individually, but no single substitution satisfies all of "
            "them (variable bindings conflict across conditions)")


# --------------------------------------------------------------------------
# Component-query mappings (Section 4 equivalence machinery)
# --------------------------------------------------------------------------

def _match_values(a_value, b_value,
                  subst: Substitution) -> Substitution | None:
    """Match an object-rule value field of *a* onto one of *b*."""
    if isinstance(a_value, SetPattern):
        return subst if isinstance(b_value, SetPattern) else None
    if isinstance(b_value, SetPattern):
        if isinstance(subst.apply(a_value), Constant):
            return None
        return match(a_value, EMPTY_SET_TERM, subst)
    return match(a_value, b_value, subst)


def component_mapping(t: ComponentQuery, p: ComponentQuery,
                      budget=None) -> Substitution | None:
    """A mapping from component query *t* to *p* (witnessing ``p ⊆ t``).

    The mapping must send the head of *t* onto the head of *p* and every
    body condition of *t* into a body condition of *p* (Theorem 4.2).
    *t* and *p* may share variable names (e.g. comparing a rule with
    itself); the *t* side is renamed apart internally.
    """
    if t.kind != p.kind or len(t.head_terms) != len(p.head_terms):
        return None
    apart = Substitution({
        v: Variable(v.name + _APART)
        for v in _component_variables(t)})
    subst: Substitution | None = Substitution()
    for t_term, p_term in zip(t.head_terms, p.head_terms):
        subst = match(apart.apply(t_term), p_term, subst)
        if subst is None:
            return None
    if t.kind == "object":
        t_value = t.value
        if isinstance(t_value, Term):
            t_value = apart.apply(t_value)
        subst = _match_values(t_value, p.value, subst)
        if subst is None:
            return None
    t_paths = [_rename_path(path, apart)
               for c in t.body for path in condition_paths(c)]
    p_paths = [path for c in p.body for path in condition_paths(c)]
    # Paths are pre-renamed, so hand body_mappings an already-apart
    # initial keyed by the renamed names (it renames once more, which is
    # harmless and keeps the contract uniform).
    found = body_mappings(t_paths, p_paths, initial=subst, limit=1,
                          budget=budget)
    return found[0] if found else None


def _component_variables(component: ComponentQuery) -> set[Variable]:
    out: set[Variable] = set()
    for term in component.head_terms:
        out.update(term.variables())
    if isinstance(component.value, Term):
        out.update(component.value.variables())
    for condition in component.body:
        out.update(condition.variables())
    return out
