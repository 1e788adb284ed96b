"""First-order terms over the Herbrand universe of the paper (Section 2).

Object ids in OEM are "terms from the Herbrand universe composed from a set
of atomic data ... and an arbitrary set of uninterpreted function symbols".
The same term algebra underlies TSL patterns, the Datalog translation, and
the unification machinery of query composition, so it lives here at the
bottom of the dependency graph.

Terms are immutable and hashable.  Each keeps its hash in a slot the
first ``hash()`` fills: the value the dataclass would compute, the hash
of the tuple of compare fields, so sets and dicts order terms as before.
Three concrete kinds exist:

* :class:`Constant` -- an atom (string, int, or float).
* :class:`Variable` -- a named placeholder.
* :class:`FunctionTerm` -- an uninterpreted function symbol applied to a
  tuple of terms, e.g. ``f(P, X)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Mapping, Union

from ..span import Span

Atom = Union[str, int, float]


class Term:
    """Abstract base of all terms.  Instances are immutable and hashable."""

    __slots__ = ()

    def __reduce__(self):
        return reduce_by_init_fields(self)

    def is_ground(self) -> bool:
        """Return True when the term contains no variables."""
        raise NotImplementedError

    def variables(self) -> Iterator["Variable"]:
        """Yield each variable occurrence (with repetitions) in the term."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping["Variable", "Term"]) -> "Term":
        """Return the term with every variable in *mapping* replaced."""
        raise NotImplementedError


def cached_hash(*names: str):
    """A ``__hash__`` that hashes the fields *names* once.

    The first call stores ``hash((self.<name>, ...))``, the value the
    dataclass would compute from those compare fields, in the instance's
    ``_hash`` slot; later calls read it back.
    """

    compare = attrgetter(*names)
    # attrgetter of one name returns the value itself, not a 1-tuple.
    single = len(names) == 1

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((compare(self),) if single else compare(self))
            object.__setattr__(self, "_hash", value)
        return value

    return __hash__


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """An atomic datum: a label, an atomic value, or an atomic object id."""

    value: Atom
    # Source location of this occurrence (parser-attached).  Spans never
    # participate in equality or hashing: terms with different spans are
    # the same term, so substitutions and containment mappings are
    # untouched by the analysis layer.
    span: Span | None = field(default=None, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    __hash__ = cached_hash("value")

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, mapping: Mapping["Variable", Term]) -> Term:
        return self

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A named variable.

    The paper partitions variables into object-id variables and label/value
    variables by *position*; the partition is validated at the query level
    (see :mod:`repro.tsl.validate`), not carried on the variable itself.
    """

    name: str
    span: Span | None = field(default=None, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    __hash__ = cached_hash("name")

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def substitute(self, mapping: Mapping["Variable", Term]) -> Term:
        return mapping.get(self, self)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class FunctionTerm(Term):
    """An uninterpreted function symbol applied to argument terms."""

    functor: str
    args: tuple[Term, ...]
    span: Span | None = field(default=None, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    __hash__ = cached_hash("functor", "args")

    def is_ground(self) -> bool:
        return all(arg.is_ground() for arg in self.args)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def substitute(self, mapping: Mapping[Variable, Term]) -> Term:
        return FunctionTerm(self.functor,
                            tuple(arg.substitute(mapping)
                                  for arg in self.args),
                            span=self.span)

    def __str__(self) -> str:
        inner = ",".join(str(arg) for arg in self.args)
        return f"{self.functor}({inner})"


@dataclass(frozen=True, slots=True)
class SetValue(Term):
    """The runtime value of a set OEM object: the set of its subobjects.

    Per Section 2 the value of a set object is the OEM subgraph rooted at
    it, which is fully determined by the set of subobject oids; equality
    and hashing therefore use ``members`` only.  ``source`` records which
    database the members live in so answers can hang the subgraph off the
    constructed tree (TSL's copy semantics); it does not affect equality.
    """

    members: frozenset[Term]
    source: str = "db"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetValue):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(("SetValue", self.members))

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, mapping: Mapping["Variable", Term]) -> Term:
        return self

    def __str__(self) -> str:
        inner = " ".join(sorted(str(m) for m in self.members))
        return "{" + inner + "}"


def reduce_by_init_fields(node) -> tuple:
    """Pickle a frozen dataclass by its constructor arguments.

    A slotted dataclass would otherwise pickle every slot, cached ones
    included, and a cached hash of a ``str`` is only valid in the process
    that computed it.
    """
    return type(node), tuple(getattr(node, f.name) for f in fields(node)
                             if f.init)


def const(value: Atom) -> Constant:
    """Shorthand constructor for :class:`Constant`."""
    return Constant(value)


def var(name: str) -> Variable:
    """Shorthand constructor for :class:`Variable`."""
    return Variable(name)


def fn(functor: str, *args: Term) -> FunctionTerm:
    """Shorthand constructor for :class:`FunctionTerm`."""
    return FunctionTerm(functor, tuple(args))


def variables_of(term: Term) -> set[Variable]:
    """Return the set of distinct variables occurring in *term*."""
    return set(term.variables())


@lru_cache(maxsize=65536)
def cached_variable_set(term: Term) -> frozenset[Variable]:
    """The distinct variables of *term*, cached by term equality.

    One-way matching (:func:`repro.logic.unify.match`) consults the
    pattern's variable set on every call; terms are immutable (spans are
    excluded from equality), so the set is safe to memoize globally.
    """
    return frozenset(term.variables())


def rename_term(term: Term, suffix: str) -> Term:
    """Return *term* with every variable ``X`` renamed to ``X<suffix>``.

    Used to produce fresh copies of view bodies during composition.
    """
    mapping = {v: Variable(v.name + suffix) for v in variables_of(term)}
    return term.substitute(mapping)
