"""Abstract syntax of TSL, the Tree Specification Language (Section 2).

A TSL query is a rule ``head :- body`` in the style of Datalog.  Head and
body are built from *object patterns* ``<object-id label value>`` whose
value field is either a term (variable, atomic constant, or function term)
or a *set value pattern* containing zero or more object patterns.

All AST nodes are immutable and hashable so they can key dictionaries in
the rewriting machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

from ..logic.subst import Substitution
from ..logic.terms import Term, Variable
from ..span import Span

DEFAULT_SOURCE = "db"


@dataclass(frozen=True, slots=True)
class SetPattern:
    """A set value pattern: zero or more nested object patterns."""

    patterns: tuple["ObjectPattern", ...] = ()
    # Source spans are parser-attached and excluded from equality/hashing,
    # so rewriting machinery that rebuilds or compares patterns is
    # unaffected; rebuilt nodes simply have span None.
    span: Span | None = field(default=None, compare=False, repr=False)

    def substitute(self, subst: Substitution) -> "SetPattern":
        return SetPattern(tuple(p.substitute(subst) for p in self.patterns),
                          span=self.span)

    def variables(self) -> Iterator[Variable]:
        for p in self.patterns:
            yield from p.variables()

    def __str__(self) -> str:
        inner = " ".join(str(p) for p in self.patterns)
        return "{" + inner + "}"


PatternValue = Union[Term, SetPattern]


@dataclass(frozen=True, slots=True)
class ObjectPattern:
    """An object pattern ``<oid label value>``."""

    oid: Term
    label: Term
    value: PatternValue
    span: Span | None = field(default=None, compare=False, repr=False)

    def substitute(self, subst: Substitution) -> "ObjectPattern":
        value = self.value
        if isinstance(value, SetPattern):
            value = value.substitute(subst)
        else:
            value = subst.apply(value)
            # A set mapping may send a value variable to a set pattern
            # (Example 3.2); Substitution stores those via SetPatternTerm.
            if isinstance(value, SetPatternTerm):
                value = value.pattern
        oid = subst.apply(self.oid)
        label = subst.apply(self.label)
        if isinstance(oid, SetPatternTerm) or isinstance(label, SetPatternTerm):
            from ..errors import ValidationError
            raise ValidationError(
                "a set pattern was substituted into an oid or label field",
                span=self.span)
        return ObjectPattern(oid, label, value, span=self.span)

    def variables(self) -> Iterator[Variable]:
        yield from self.oid.variables()
        yield from self.label.variables()
        if isinstance(self.value, SetPattern):
            yield from self.value.variables()
        else:
            yield from self.value.variables()

    def oid_variables(self) -> Iterator[Variable]:
        """Yield variables appearing in object-id fields, recursively."""
        yield from self.oid.variables()
        if isinstance(self.value, SetPattern):
            for p in self.value.patterns:
                yield from p.oid_variables()

    def nested_patterns(self) -> Iterator["ObjectPattern"]:
        """Yield this pattern and every nested pattern, preorder."""
        yield self
        if isinstance(self.value, SetPattern):
            for p in self.value.patterns:
                yield from p.nested_patterns()

    def __str__(self) -> str:
        return f"<{self.oid} {self.label} {self.value}>"


@dataclass(frozen=True, slots=True)
class SetPatternTerm(Term):
    """Adapter wrapping a :class:`SetPattern` so it can sit in a substitution.

    The paper's *set mappings* (Section 3.1) let a value variable map to a
    set pattern; substitutions map variables to terms, so the pattern is
    boxed.  :meth:`ObjectPattern.substitute` unboxes it when it lands in a
    value field; it is an error for one to land in an oid or label field.
    """

    pattern: SetPattern

    def is_ground(self) -> bool:
        return not any(True for _ in self.pattern.variables())

    def variables(self) -> Iterator[Variable]:
        yield from self.pattern.variables()

    def substitute(self, mapping: Mapping[Variable, Term]) -> Term:
        subst = Substitution(mapping)
        return SetPatternTerm(self.pattern.substitute(subst))

    def __str__(self) -> str:
        return str(self.pattern)


@dataclass(frozen=True, slots=True)
class Condition:
    """A body condition: an object pattern applied to a named data source."""

    pattern: ObjectPattern
    source: str = DEFAULT_SOURCE
    span: Span | None = field(default=None, compare=False, repr=False)

    def substitute(self, subst: Substitution) -> "Condition":
        return Condition(self.pattern.substitute(subst), self.source,
                         span=self.span)

    def variables(self) -> Iterator[Variable]:
        return self.pattern.variables()

    def __str__(self) -> str:
        return f"{self.pattern}@{self.source}"


@dataclass(frozen=True, slots=True)
class Query:
    """A TSL rule: a head object pattern and a conjunction of conditions."""

    head: ObjectPattern
    body: tuple[Condition, ...]
    name: str | None = field(default=None, compare=False)
    span: Span | None = field(default=None, compare=False, repr=False)

    def substitute(self, subst: Substitution) -> "Query":
        return Query(self.head.substitute(subst),
                     tuple(c.substitute(subst) for c in self.body),
                     name=self.name, span=self.span)

    def head_variables(self) -> set[Variable]:
        return set(self.head.variables())

    def body_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for c in self.body:
            out.update(c.variables())
        return out

    def all_variables(self) -> set[Variable]:
        return self.head_variables() | self.body_variables()

    def sources(self) -> set[str]:
        return {c.source for c in self.body}

    def rename_apart(self, suffix: str) -> "Query":
        """Rename every variable ``X`` to ``X<suffix>`` (fresh copies)."""
        mapping = Substitution({
            v: Variable(v.name + suffix) for v in self.all_variables()})
        return self.substitute(mapping)

    def __str__(self) -> str:
        body = " AND ".join(str(c) for c in self.body)
        return f"{self.head} :- {body}"


Program = Sequence[Query]


def make_condition(pattern: ObjectPattern,
                   source: str = DEFAULT_SOURCE) -> Condition:
    """Convenience constructor mirroring the paper's ``pattern@source``."""
    return Condition(pattern, source)


def pattern_depth(pattern: ObjectPattern) -> int:
    """Depth of nesting: 1 for a flat pattern."""
    if isinstance(pattern.value, SetPattern) and pattern.value.patterns:
        return 1 + max(pattern_depth(p) for p in pattern.value.patterns)
    return 1


def pattern_size(pattern: ObjectPattern) -> int:
    """Total number of object patterns in the tree."""
    return sum(1 for _ in pattern.nested_patterns())


def query_size(query: Query) -> int:
    """Total number of object patterns in head and body."""
    total = pattern_size(query.head)
    for c in query.body:
        total += pattern_size(c.pattern)
    return total


def fresh_variable_factory(taken: set[Variable], stem: str = "W"):
    """Return a callable producing variables not in *taken*.

    Produced variables are added to *taken* so successive calls are fresh
    with respect to each other as well.
    """
    counter = [0]

    def fresh() -> Variable:
        while True:
            counter[0] += 1
            candidate = Variable(f"{stem}_{counter[0]}")
            if candidate not in taken:
                taken.add(candidate)
                return candidate

    return fresh
