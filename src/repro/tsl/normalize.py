"""Normal form conversion and path extraction (Section 2).

*Normal Form TSL Queries* are those "in whose body all set-valued value
fields contain at most one object pattern"; a branching condition is split
into one condition per root-to-leaf path, duplicating the shared prefix.
For example (Q1) normalizes to (Q2)::

    <P person {<G gender female> <X Y Z>}>@db
      ==>
    <P person {<G gender female>}>@db  AND  <P person {<X Y Z>}>@db

A normalized condition is a *chain*; :class:`Path` is its flat view, used
throughout the rewriting machinery (mappings, composition, equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..logic.terms import Term, cached_hash, reduce_by_init_fields
from .ast import Condition, ObjectPattern, PatternValue, Query, SetPattern


@dataclass(frozen=True, slots=True)
class Path:
    """A single-path condition, flattened.

    ``steps`` lists ``(oid, label)`` pairs from the top-level object down;
    ``leaf`` is the value field of the deepest pattern: a term, or the
    empty set pattern ``{}`` (which asserts "is a set object").
    """

    steps: tuple[tuple[Term, Term], ...]
    leaf: PatternValue
    source: str
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __post_init__(self) -> None:
        assert self.steps, "a path has at least one step"

    __hash__ = cached_hash("steps", "leaf", "source")

    __reduce__ = reduce_by_init_fields

    @property
    def depth(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return f"{_path_pattern(self.steps, self.leaf)}@{self.source}"


def path_pattern(steps: tuple[tuple[Term, Term], ...],
                 leaf: PatternValue) -> ObjectPattern:
    """Rebuild the chain-shaped object pattern for (a suffix of) a path."""
    return _path_pattern(steps, leaf)


def _path_pattern(steps: tuple[tuple[Term, Term], ...],
                  leaf: PatternValue) -> ObjectPattern:
    oid, label = steps[-1]
    pattern = ObjectPattern(oid, label, leaf)
    for oid, label in reversed(steps[:-1]):
        pattern = ObjectPattern(oid, label, SetPattern((pattern,)))
    return pattern


def split_pattern(pattern: ObjectPattern) -> list[ObjectPattern]:
    """Split a body pattern into its root-to-leaf single-path patterns."""
    return [_path_pattern(path.steps, path.leaf)
            for path in pattern_paths(pattern, source="")]


def pattern_paths(pattern: ObjectPattern, source: str) -> list[Path]:
    """Enumerate the root-to-leaf paths of a (possibly branching) pattern."""
    paths: list[Path] = []

    def walk(node: ObjectPattern,
             prefix: tuple[tuple[Term, Term], ...]) -> None:
        steps = prefix + ((node.oid, node.label),)
        value = node.value
        if isinstance(value, SetPattern) and value.patterns:
            for child in value.patterns:
                walk(child, steps)
        else:
            paths.append(Path(steps, value, source))

    walk(pattern, ())
    return paths


def condition_paths(condition: Condition) -> list[Path]:
    """Enumerate the single paths of one condition.

    The walk runs once per condition; each call returns a fresh list.
    """
    return list(_condition_paths(condition))


def _condition_paths(condition: Condition) -> tuple[Path, ...]:
    paths = getattr(condition, "_paths", None)
    if paths is None:
        paths = tuple(pattern_paths(condition.pattern, condition.source))
        object.__setattr__(condition, "_paths", paths)
    return paths


def query_paths(query: Query) -> list[Path]:
    """Enumerate every single path in the query body, deduplicated.

    The walk runs once per query; each call returns a fresh list.
    """
    paths = getattr(query, "_paths", None)
    if paths is None:
        ordered: dict[Path, None] = {}
        for condition in query.body:
            for path in _condition_paths(condition):
                ordered.setdefault(path)
        paths = tuple(ordered)
        object.__setattr__(query, "_paths", paths)
    return list(paths)


def path_to_condition(path: Path) -> Condition:
    """Rebuild the chain-shaped condition a path denotes."""
    condition = Condition(_path_pattern(path.steps, path.leaf), path.source)
    if not (isinstance(path.leaf, SetPattern) and path.leaf.patterns):
        object.__setattr__(condition, "_paths", (path,))
    return condition


def paths_query(head: ObjectPattern, paths: list[Path],
                name: str | None = None) -> Query:
    """The normal-form query with *head* whose body is the chains of
    *paths*, which must be duplicate-free."""
    query = Query(head, tuple(path_to_condition(p) for p in paths),
                  name=name)
    object.__setattr__(query, "_paths", tuple(paths))
    return query


def normalize(query: Query) -> Query:
    """Return the normal-form equivalent of *query* (body split to paths).

    The head is untouched (normal form is a body property).  Duplicate
    path conditions are removed -- conjunction is idempotent.
    """
    return paths_query(query.head, query_paths(query), query.name)


def is_normal_form(query: Query) -> bool:
    """True iff every body set-value field has at most one nested pattern."""
    for condition in query.body:
        for pattern in condition.pattern.nested_patterns():
            value = pattern.value
            if isinstance(value, SetPattern) and len(value.patterns) > 1:
                return False
    return True


def is_single_path(query: Query) -> bool:
    """True iff the (normalized) body consists of exactly one condition."""
    return len(query_paths(query)) == 1


def single_path_count(query: Query) -> int:
    """The number k of single-path conditions in the body (Section 3.4)."""
    return len(query_paths(query))


def head_paths(query: Query) -> Iterator[Path]:
    """Enumerate the root-to-leaf paths of the *head* pattern.

    Heads are never normalized, but composition unifies view-condition
    paths against view-head paths, so the flat view is needed there too.
    The pseudo-source is the empty string.
    """
    return iter(pattern_paths(query.head, source=""))
