"""Canonical forms and stable hashes for queries, up to renaming.

Two TSL queries that differ only in variable spelling or in the order
of their body conjuncts denote the same query.  Where that
alpha-equivalence is the point, the repository keys by
:func:`query_key`: the server pool's configuration keys, the
:class:`~repro.repository.cache.QueryCache`'s statement identity, the
duplicate-view lint (TSL401) and the flight recorder's query key.  (The
session and mediator memos key by the query itself: they serve only the
spelling they stored.)  This module computes a
**variable-order-independent canonical form**:

* body conditions are split to single paths (normal form) and sorted by
  a name-free structural *skeleton*;
* every variable is renamed apart to a De Bruijn-style index ``$0, $1,
  ...`` assigned by first occurrence scanning the head and then the
  sorted body;
* refinement passes re-sort the body by each conjunct's rendering under
  the current numbering and renumber, until order and numbering are a
  fixpoint, so ties between structurally identical conjuncts resolve by
  variable wiring.

**Ordering rule.**  The refinement sort key renders index ``n < 10`` as
``$n`` and index ``n >= 10`` as ``$:`` plus a zero-padded number (``:``
sorts after every digit), so conjuncts are ordered by their indices
numerically.  Sorting the rendered text instead put ``$10`` before
``$2``, against the numbering, so on queries with more than ten
variables a pass could undo the previous one and the result depended
on the pass bound.  ``_MAX_PASSES`` is a safety net only.

**Compatibility.**  On a query with at most ten canonical variables the
sort key *is* the canonical rendering, so its canonical form, renaming
and key are byte-identical to those of the string-ordered refinement
(``tests/rewriting/test_canon.py`` keeps that loop as the reference);
wider queries may get new keys.

The canonical form is itself a :class:`~repro.tsl.ast.Query` (same
head structure, path-normal body), so it round-trips through the whole
pipeline and is *equivalent* to its input.  Equality of canonical forms
implies alpha-equivalence of the inputs -- the soundness requirement for
an identity key; the converse holds up to skeleton ties, which only
costs an occasional missed match, never a wrong one.

:func:`query_key` and :func:`program_key` hash the canonical rendering
with ``blake2b``, so keys are stable across processes (unlike
``hash()``, which is salted for strings).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from ..logic.subst import Substitution
from ..logic.terms import Constant, FunctionTerm, Variable
from ..tsl.ast import (Condition, ObjectPattern, Query, SetPattern,
                       SetPatternTerm)
from ..tsl.normalize import normalize

#: Canonical variables are named ``$0, $1, ...``; the lexer cannot
#: produce ``$`` in an identifier, so canonical names never collide with
#: parsed ones (mirrors the ``†`` marker of :mod:`.mappings`).
CANON_STEM = "$"

#: Fixpoint bound for the sort/renumber refinement, a safety net: with
#: numerically ordered indices every served and generated query settles
#: in at most a few passes.
_MAX_PASSES = 8


# --------------------------------------------------------------------------
# Structural skeletons (name-free sort keys)
# --------------------------------------------------------------------------

def _term_skeleton(term) -> str:
    if isinstance(term, Variable):
        return "?"
    if isinstance(term, Constant):
        return f"c:{term.value!r}"
    if isinstance(term, FunctionTerm):
        inner = ",".join(_term_skeleton(arg) for arg in term.args)
        return f"{term.functor}({inner})"
    if isinstance(term, SetPatternTerm):
        return _set_skeleton(term.pattern)
    return str(term)


def _set_skeleton(pattern: SetPattern) -> str:
    inner = " ".join(sorted(_pattern_skeleton(p) for p in pattern.patterns))
    return "{" + inner + "}"


def _pattern_skeleton(pattern: ObjectPattern) -> str:
    value = pattern.value
    if isinstance(value, SetPattern):
        rendered = _set_skeleton(value)
    else:
        rendered = _term_skeleton(value)
    return (f"<{_term_skeleton(pattern.oid)} "
            f"{_term_skeleton(pattern.label)} {rendered}>")


def _condition_skeleton(condition: Condition) -> str:
    return f"{_pattern_skeleton(condition.pattern)}@{condition.source}"


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------

def _collect_variables(term, out: list[Variable]) -> None:
    """Append each variable of a term/pattern in deterministic preorder."""
    if isinstance(term, Variable):
        out.append(term)
    elif isinstance(term, FunctionTerm):
        for arg in term.args:
            _collect_variables(arg, out)
    elif isinstance(term, SetPatternTerm):
        _collect_variables(term.pattern, out)
    elif isinstance(term, SetPattern):
        for pattern in term.patterns:
            _collect_variables(pattern, out)
    elif isinstance(term, ObjectPattern):
        _collect_variables(term.oid, out)
        _collect_variables(term.label, out)
        _collect_variables(term.value, out)


def _fill_template(node, pieces: list[str], slots: list[Variable]) -> None:
    """Append *node*'s ``__str__`` text to *pieces* as ``str.format``
    text, with a ``{}`` slot per variable occurrence recorded in *slots*
    (the preorder of :func:`_collect_variables`)."""
    if isinstance(node, Variable):
        pieces.append("{}")
        slots.append(node)
    elif isinstance(node, ObjectPattern):
        pieces.append("<")
        _fill_template(node.oid, pieces, slots)
        pieces.append(" ")
        _fill_template(node.label, pieces, slots)
        pieces.append(" ")
        _fill_template(node.value, pieces, slots)
        pieces.append(">")
    elif isinstance(node, SetPatternTerm):
        _fill_template(node.pattern, pieces, slots)
    elif isinstance(node, SetPattern):
        pieces.append("{{")
        for i, pattern in enumerate(node.patterns):
            if i:
                pieces.append(" ")
            _fill_template(pattern, pieces, slots)
        pieces.append("}}")
    elif isinstance(node, FunctionTerm):
        pieces.append(f"{node.functor}(")
        for i, arg in enumerate(node.args):
            if i:
                pieces.append(",")
            _fill_template(arg, pieces, slots)
        pieces.append(")")
    else:
        pieces.append(str(node).replace("{", "{{").replace("}", "}}"))


@lru_cache(maxsize=65536)
def _condition_form(condition: Condition
                    ) -> tuple[str, str, tuple[Variable, ...]]:
    """The condition's skeleton, and its rendering as a ``str.format``
    template plus its variable occurrences: ``fmt.format(*(name(v) for v
    in slots)) == str(condition)`` when every variable is named
    ``name(v)``.  Cached -- the queries and views keyed in one process
    share most of their conditions."""
    pieces: list[str] = []
    slots: list[Variable] = []
    _fill_template(condition.pattern, pieces, slots)
    pieces.append("@" + condition.source.replace("{", "{{")
                  .replace("}", "}}"))
    return _condition_skeleton(condition), "".join(pieces), tuple(slots)


def _first_occurrence(slot_lists: Iterable[Sequence[int]],
                      count: int) -> list[int]:
    """First-occurrence De Bruijn numbering of variables ``0..count-1``
    over the slot lists: ``rank[variable]``."""
    rank = [-1] * count
    assigned = 0
    for slots in slot_lists:
        for variable in slots:
            if rank[variable] < 0:
                rank[variable] = assigned
                assigned += 1
    return rank


def _sort_names(count: int) -> list[str]:
    """Sort-key spelling of indices ``0..count-1``, in numeric order:
    ``$n`` below ten (the canonical name itself), ``$:`` plus a
    zero-padded number from ten on."""
    width = len(str(count))
    return [f"{CANON_STEM}{n}" if n < 10 else f"{CANON_STEM}:{n:0{width}d}"
            for n in range(count)]


@dataclass(frozen=True)
class Canonical:
    """A canonicalized query plus the renaming that produced it."""

    query: Query
    #: original variable -> canonical ``$i`` variable (injective).
    forward: Substitution

    @cached_property
    def key(self) -> str:
        # cached_property works on this frozen dataclass because it is
        # not slotted: the computed digest lands in the instance
        # __dict__, bypassing the frozen __setattr__.
        return _digest(_render_query(self.query))


@lru_cache(maxsize=8192)
def canonicalize(query: Query) -> Canonical:
    """The canonical form of *query* (normal-form body, ``$i`` variables).

    The result is equivalent to the input: the body is only split to
    single paths, reordered (conjunction is a set), and renamed apart.

    Cached by query equality (spans excluded), so keying the same query
    again is free.
    """
    current = normalize(query)
    # Initial sort ignores variable names entirely.
    forms = sorted(((_condition_form(c), c) for c in current.body),
                   key=lambda item: item[0][0])
    body = [c for _, c in forms]
    fmts = [fmt for (_, fmt, _), _ in forms]
    # Variables become small ints in first-occurrence order over head
    # then body, which is also the initial numbering.
    head_slots: list[Variable] = []
    _collect_variables(current.head, head_slots)
    ids: dict[Variable, int] = {}
    head_ids = [ids.setdefault(v, len(ids)) for v in head_slots]
    slot_ids = [[ids.setdefault(v, len(ids)) for v in slots]
                for (_, _, slots), _ in forms]
    count = len(ids)
    labels = _sort_names(count)
    order = list(range(len(body)))
    rank = list(range(count))
    for _ in range(_MAX_PASSES):
        # Refine: sort by the conjunct rendered under the current
        # numbering (ties between equal skeletons now resolve by
        # variable wiring), then renumber; stop when both are stable.
        names = [labels[r] for r in rank]
        keys = [fmt.format(*[names[i] for i in slots])
                for fmt, slots in zip(fmts, slot_ids)]
        reordered = sorted(order, key=keys.__getitem__)
        renumbered = _first_occurrence(
            [head_ids, *(slot_ids[j] for j in reordered)], count)
        if reordered == order and renumbered == rank:
            break
        order, rank = reordered, renumbered
    variables = list(ids)
    forward = Substitution({
        variables[i]: Variable(f"{CANON_STEM}{rank[i]}")
        for i in sorted(range(count), key=rank.__getitem__)})
    return Canonical(
        Query(current.head.substitute(forward),
              tuple(body[j].substitute(forward) for j in order)),
        forward)


def _digest(rendered: str) -> str:
    return hashlib.blake2b(rendered.encode("utf-8"),
                           digest_size=16).hexdigest()


def _render_query(query: Query) -> str:
    body = " AND ".join(str(c) for c in query.body)
    return f"{query.head} :- {body}"


def query_key(query: Query) -> str:
    """A stable hash identifying *query* up to renaming and body order."""
    return canonicalize(query).key


def program_key(rules: Iterable[Query]) -> str:
    """A stable hash of a union of rules, order-independent."""
    return _digest("|".join(sorted(query_key(rule) for rule in rules)))

