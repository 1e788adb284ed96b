"""A Datalog engine with function symbols (the substrate of [28]).

Section 2 notes that "TSL can be translated to Datalog with function
symbols and limited recursion over a fixed schema".  This module provides
that substrate: facts and rules over the term algebra, evaluated bottom-up
with semi-naive iteration.  Function symbols make the Herbrand universe
infinite, so termination is not guaranteed in general; the TSL translation
(:mod:`repro.logic.translate`) only produces the restricted recursion of
[28], which terminates, and the engine enforces a configurable derivation
cap as a backstop.

The engine also supports *stratified negation*, which the TSL fragment
does not need but rounds out the substrate for the mediator cost model
and the test suite's cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import ReproError
from .subst import Substitution
from .terms import Term, Variable
from .unify import unify


class DatalogError(ReproError):
    """Raised for malformed programs or exceeded derivation caps."""


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms, e.g. ``member(X, f(Y))``."""

    predicate: str
    args: tuple[Term, ...]

    def arity(self) -> int:
        return len(self.args)

    def substitute(self, subst: Substitution) -> "Atom":
        return Atom(self.predicate,
                    tuple(subst.apply(arg) for arg in self.args))

    def is_ground(self) -> bool:
        return all(arg.is_ground() for arg in self.args)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def __str__(self) -> str:
        inner = ",".join(str(arg) for arg in self.args)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom or its negation (for stratified programs)."""

    atom: Atom
    positive: bool = True

    def substitute(self, subst: Substitution) -> "Literal":
        return Literal(self.atom.substitute(subst), self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True, slots=True)
class Rule:
    """``head :- body``; facts are rules with an empty body."""

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        head_vars = set(self.head.variables())
        positive_vars: set[Variable] = set()
        for literal in self.body:
            if literal.positive:
                positive_vars.update(literal.atom.variables())
        unsafe = head_vars - positive_vars
        if self.body and unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise DatalogError(f"unsafe rule: head variables {names} not "
                               "bound by a positive body literal")
        for literal in self.body:
            if not literal.positive:
                free = set(literal.atom.variables()) - positive_vars
                if free:
                    raise DatalogError(
                        "unsafe negation: variables not bound positively")

    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."


def fact(predicate: str, *args: Term) -> Rule:
    """Shorthand for a ground fact."""
    return Rule(Atom(predicate, tuple(args)))


def rule(head: Atom, *body: Atom | Literal) -> Rule:
    """Shorthand for a rule with positive body atoms (or literals)."""
    literals = tuple(b if isinstance(b, Literal) else Literal(b)
                     for b in body)
    return Rule(head, literals)


@dataclass
class Database:
    """A set of ground facts, indexed by predicate and by first argument."""

    _facts: dict[str, set[Atom]] = field(default_factory=dict)
    _by_first: dict[tuple[str, Term], list[Atom]] = field(
        default_factory=dict)

    def add(self, atom: Atom) -> bool:
        """Insert a ground fact; returns True when it is new."""
        if not atom.is_ground():
            raise DatalogError(f"cannot store non-ground fact {atom}")
        bucket = self._facts.setdefault(atom.predicate, set())
        if atom in bucket:
            return False
        bucket.add(atom)
        if atom.args:
            self._by_first.setdefault(
                (atom.predicate, atom.args[0]), []).append(atom)
        return True

    def facts(self, predicate: str) -> frozenset[Atom]:
        return frozenset(self._facts.get(predicate, ()))

    def candidates(self, goal: Atom, subst: "Substitution") -> Iterable[Atom]:
        """Facts that could unify with *goal* under *subst*.

        Uses the first-argument index when the goal's first argument is
        ground under the substitution; otherwise scans the predicate.
        """
        # Materialize: derivation inserts facts while joins iterate.
        if goal.args:
            first = subst.apply(goal.args[0])
            if first.is_ground():
                return tuple(self._by_first.get((goal.predicate, first),
                                                ()))
        return tuple(self._facts.get(goal.predicate, ()))

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._facts.get(atom.predicate, ())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._facts.values())


def _stratify(rules: Sequence[Rule]) -> list[list[Rule]]:
    """Split rules into strata so negation only sees lower strata."""
    predicates = {r.head.predicate for r in rules}
    stratum: dict[str, int] = {p: 0 for p in predicates}
    for _ in range(len(predicates) + 1):
        changed = False
        for r in rules:
            for literal in r.body:
                p = literal.atom.predicate
                if p not in stratum:
                    continue
                needed = stratum[p] + (0 if literal.positive else 1)
                if needed > stratum[r.head.predicate]:
                    stratum[r.head.predicate] = needed
                    changed = True
        if not changed:
            break
    else:
        raise DatalogError("program is not stratifiable")
    buckets: dict[int, list[Rule]] = {}
    for r in rules:
        buckets.setdefault(stratum[r.head.predicate], []).append(r)
    return [buckets[level] for level in sorted(buckets)]


def evaluate(rules: Sequence[Rule], edb: Iterable[Atom] = (),
             max_derivations: int = 1_000_000) -> Database:
    """Bottom-up semi-naive evaluation; returns the full model.

    *edb* seeds the database with extensional facts.  Raises
    :class:`DatalogError` when more than *max_derivations* facts are
    derived (a runaway function-symbol recursion).
    """
    db = Database()
    for atom in edb:
        db.add(atom)
    proper_rules: list[Rule] = []
    for r in rules:
        if r.is_fact():
            db.add(r.head)
        else:
            proper_rules.append(r)
    for stratum in _stratify(proper_rules):
        _evaluate_stratum(stratum, db, max_derivations)
    return db


def _evaluate_stratum(rules: Sequence[Rule], db: Database,
                      max_derivations: int) -> None:
    """Semi-naive iteration.

    Round 1 applies every rule naively (one join per rule); later rounds
    seed one body literal from the delta (facts new in the previous
    round) and the rest from the full database, so old derivations are
    not re-joined from scratch.
    """
    def derive(subst: Substitution, rule: Rule,
               new_delta: dict[str, set[Atom]]) -> None:
        derived = rule.head.substitute(subst)
        if not derived.is_ground():
            raise DatalogError(f"derived non-ground fact {derived}")
        if db.add(derived):
            new_delta.setdefault(derived.predicate, set()).add(derived)
            if len(db) > max_derivations:
                raise DatalogError(
                    f"derivation cap exceeded ({max_derivations}); "
                    "unbounded function-symbol recursion?")

    delta: dict[str, set[Atom]] = {}
    for r in rules:
        ordered = _order_literals(list(r.body), set())
        for subst in _match_body(ordered, 0, Substitution(), db):
            derive(subst, r, delta)
    while delta:
        new_delta: dict[str, set[Atom]] = {}
        for r in rules:
            for pivot, literal in enumerate(r.body):
                if not literal.positive:
                    continue
                seeds = delta.get(literal.atom.predicate)
                if not seeds:
                    continue
                rest = _order_literals(
                    list(r.body[:pivot] + r.body[pivot + 1:]),
                    set(literal.atom.variables()))
                for seed in seeds:
                    start = _unify_atoms(literal.atom, seed,
                                         Substitution())
                    if start is None:
                        continue
                    for subst in _match_body(rest, 0, start, db):
                        derive(subst, r, new_delta)
        delta = new_delta


def _order_literals(literals: list[Literal],
                    bound: set[Variable]) -> list[Literal]:
    """Static sideways-information-passing order for a join.

    Repeatedly pick: a negated literal whose variables are all bound,
    else a positive literal whose first argument is bound (index lookup),
    else a positive literal sharing any bound variable, else any positive
    literal.  Variables of the chosen literal become bound.
    """
    bound = set(bound)
    remaining = list(literals)
    ordered: list[Literal] = []
    while remaining:
        best_index = 0
        best_score = -1
        for index, literal in enumerate(remaining):
            atom_vars = set(literal.atom.variables())
            if not literal.positive:
                score = 4 if atom_vars <= bound else -1
            elif literal.atom.args and (
                    not set(literal.atom.args[0].variables()) - bound):
                score = 3
            elif atom_vars & bound:
                score = 2
            else:
                score = 1
            if score > best_score:
                best_index, best_score = index, score
                if score == 4:
                    break
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= set(chosen.atom.variables())
    return ordered


def _match_body(literals: list[Literal], index: int,
                subst: Substitution, db: Database
                ) -> Iterator[Substitution]:
    if index == len(literals):
        yield subst
        return
    literal = literals[index]
    if literal.positive:
        for candidate in db.candidates(literal.atom, subst):
            extended = _unify_atoms(literal.atom, candidate, subst)
            if extended is not None:
                yield from _match_body(literals, index + 1, extended, db)
    else:
        ground = literal.atom.substitute(subst)
        if not ground.is_ground():
            raise DatalogError(f"negated literal {ground} not ground")
        if ground not in db:
            yield from _match_body(literals, index + 1, subst, db)


def _unify_atoms(pattern: Atom, ground: Atom,
                 subst: Substitution) -> Substitution | None:
    if pattern.predicate != ground.predicate or \
            pattern.arity() != ground.arity():
        return None
    current = subst
    for p_arg, g_arg in zip(pattern.args, ground.args):
        result = unify(p_arg, g_arg, current)
        if result is None:
            return None
        current = result
    return current


def query(db: Database, goal: Atom) -> list[Substitution]:
    """All substitutions making *goal* a fact of *db*."""
    results = []
    for candidate in db.facts(goal.predicate):
        subst = _unify_atoms(goal, candidate, Substitution())
        if subst is not None:
            results.append(subst)
    return results
