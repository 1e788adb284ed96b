"""Step 2's query ⊆ composition half, checked instead of searched (§3.4).

Step 2 accepts a candidate when its composition is equivalent to the
query: every graph component of each side must receive a containment
mapping from some component of the other (Theorems 4.2-4.3).  One half
holds by construction.  Each view condition of a candidate is
``θ(head(V))`` for a Step 1A mapping ``θ`` of ``V``'s body into the
query's body, and every other condition is one of the query's own.  So
``θ``, carried through the composition's unifier, maps a composition
rule's body into the query's body and its head onto the query's head,
which proves query ⊆ composition without a mapping search.

:class:`Step2Witness` builds that mapping ``h`` for one composition rule
at a time:

* the variable ``x~k`` of fresh view copy ``k`` maps to ``θ(x)``, where
  ``θ`` is the Step 1A mapping of the candidate path copy ``k``
  resolved (:class:`~repro.rewriting.composition.Provenance`);
* a query variable of the candidate maps to itself;
* both are pushed through the rule's unifier ``σ`` by matching
  ``σ(v)`` onto ``h(v)``;
* variables with no provenance (the chase's fresh variables, a view
  variable its preparation eliminated) are completed by one
  ``body_mappings(..., initial=h, limit=1)`` over just the paths that
  hold them.

The mapping is then *checked*, never trusted: every path of the rule
must land on a query path under ``h`` with no new binding, and ``h``
must send the rule's head onto the query's head, which aligns every
component of the rule with the query's.  The proof therefore holds for
however ``h`` was built; when it fails for every rule, the caller runs
the full ``components_subsumed`` search.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..logic.subst import EMPTY_SUBSTITUTION, Substitution
from ..logic.terms import FunctionTerm, Term, Variable
from ..tsl.ast import Query, SetPattern, SetPatternTerm
from ..tsl.normalize import Path, condition_paths, query_paths
from .composition import _COPY_SUFFIX, Provenance
from .index import PathIndex
from .mappings import (_path_variables, _rename_path, body_mappings,
                       map_path_into)


class Step2Target:
    """The prepared query side of every Step 2 check in one search."""

    __slots__ = ("rule", "paths", "path_set", "index", "variables")

    def __init__(self, rule: Query) -> None:
        self.rule = rule
        self.paths = query_paths(rule)
        self.path_set = frozenset(self.paths)
        self.index = PathIndex(self.paths)
        self.variables = frozenset(rule.all_variables())


class Step2Witness:
    """A proof attempt of query ⊆ composition for one candidate.

    *rules* are the prepared composition rules, *origins* their
    :class:`~repro.rewriting.composition.Provenance` (None when absent),
    *candidate* the chased candidate and *atoms* the Step 1A atoms it
    was built from.  Nothing is computed until :meth:`holds`.
    """

    __slots__ = ("target", "rules", "origins", "candidate", "atoms")

    def __init__(self, target: Step2Target, rules: Sequence[Query],
                 origins: Sequence[Provenance | None], candidate: Query,
                 atoms: Sequence) -> None:
        self.target = target
        self.rules = rules
        self.origins = origins
        self.candidate = candidate
        self.atoms = atoms

    def holds(self, budget=None) -> bool:
        """True when some rule's witness checks, which proves that every
        query component maps from a component of that rule."""
        thetas = {path: atom.theta for atom in self.atoms
                  if atom.theta is not None
                  for path in condition_paths(atom.condition)}
        known = self.target.variables.intersection(
            self.candidate.all_variables())
        for rule, origin in zip(self.rules, self.origins):
            if origin is None:
                continue
            variables = rule.all_variables()
            h = _pushed(origin, thetas, known, variables)
            if h is not None and self._checks(rule, variables, h, budget):
                return True
        return False

    def _checks(self, rule: Query, variables: set[Variable], h: dict,
                budget) -> bool:
        target = self.target
        paths = query_paths(rule)
        unbound = variables.difference(h)
        if unbound:
            holding = [p for p in paths if _path_variables(p) & unbound]
            initial = Substitution({
                v: h[v] for p in holding for v in _path_variables(p)
                if v in h})
            found = body_mappings(holding, target.paths, initial=initial,
                                  limit=1, budget=budget,
                                  index=target.index)
            if not found:
                return False
            h.update(found[0].items())
        subst = Substitution(h)
        if rule.head.substitute(subst) != target.rule.head:
            return False
        return all(_lands(_rename_path(path, subst), target)
                   for path in paths)


def _pushed(origin: Provenance, thetas: Mapping[Path, Substitution],
            known: frozenset[Variable],
            variables: set[Variable]) -> dict | None:
    """``h`` on every variable with provenance (the unifier's domain and
    the rule's *variables*), or None on a clash."""
    unifier = origin.unifier
    h: dict[Variable, Term] = {}
    for variable in variables.union(unifier):
        if variable in known:
            image = variable
        else:
            image = _copy_image(variable, origin.copies, thetas)
            if image is None:
                continue
        if not _bind(h, unifier.apply(variable), image):
            return None
    return h


def _copy_image(variable: Variable, copies: Mapping[int, Path],
                thetas: Mapping[Path, Substitution]) -> Term | None:
    """``θ(x)`` for the copy variable ``x~k``, when both are known."""
    suffix = _COPY_SUFFIX.search(variable.name)
    if suffix is None:
        return None
    path = copies.get(int(suffix.group(1)))
    theta = thetas.get(path) if path is not None else None
    if theta is None:
        return None
    return theta.get(Variable(variable.name[:suffix.start()]))


def _bind(h: dict, pattern: Term, image: Term) -> bool:
    """Extend *h* so that it sends *pattern* to *image* (one-way)."""
    if isinstance(pattern, Variable):
        bound = h.setdefault(pattern, image)
        return bound == image
    if isinstance(pattern, FunctionTerm):
        return (isinstance(image, FunctionTerm)
                and pattern.functor == image.functor
                and len(pattern.args) == len(image.args)
                and all(_bind(h, a, b)
                        for a, b in zip(pattern.args, image.args)))
    if isinstance(pattern, SetPatternTerm):
        # A set mapping: match the object patterns pointwise.
        return (isinstance(image, SetPatternTerm)
                and len(pattern.pattern.patterns)
                == len(image.pattern.patterns)
                and all(_bind(h, a.oid, b.oid)
                        and _bind(h, a.label, b.label)
                        and _bind(h, _boxed(a.value), _boxed(b.value))
                        for a, b in zip(pattern.pattern.patterns,
                                        image.pattern.patterns)))
    return pattern == image


def _boxed(value) -> Term:
    return SetPatternTerm(value) if isinstance(value, SetPattern) else value


def _lands(image: Path, target: Step2Target) -> bool:
    """True when *image* maps into a query path with no binding at all:
    the same path, or a prefix whose leaf absorbs the rest."""
    if image in target.path_set:
        return True
    for position in target.index.candidates(image):
        mapped = map_path_into(image, target.paths[position],
                               EMPTY_SUBSTITUTION)
        if mapped is not None and not mapped:
            return True
    return False
