"""Incremental maintenance: which cached answers can an update touch?

Full invalidation ("the sources changed, drop the cache") is what the
paper settles for; at production scale it throws away a warm cache on
every write.  This module implements the sound middle ground: an update
that only touches objects with labels a cached statement's body can
never match cannot change that statement's answer, so the entry is
*patched* (retagged to the new store version, answer kept) instead of
invalidated.

**Soundness argument.**  Every object participating in a match of a
conjunctive TSL body appears at some step of a body path, and a match
binds that step's label pattern to the object's label.  If every step
label of the (chased) statement is a *constant*, then every object in
every match carries one of those constants as its label.  The store's
mutations (add object, add edge, add root) each touch a known set of
objects; collect their labels as the update's *touched set*.  A new or
changed match would have to place a touched object at some step, so:

* touched set disjoint from the statement's constant step labels, and
  the statement has **no label variables**  ==>  the answer is
  unchanged (patch);
* otherwise  ==>  the answer may have changed (invalidate).

A statement with a label *variable* can match objects of any label, so
its label set is unknowable and every update conservatively
invalidates it -- :func:`statement_labels` returns ``None`` for
"unknown".  Statements whose chased body is contradictory have the
empty answer forever and are never affected.

The same test drives materialized-view patching
(:meth:`repro.repository.views.ViewManager.apply_update`) and the
query-cache patching (:meth:`repro.repository.cache.QueryCache
.apply_update`); the ``persist`` fuzz oracle cross-checks it against
brute-force re-evaluation.
"""

from __future__ import annotations

from ..errors import ChaseContradictionError
from ..logic.terms import Constant
from ..tsl.ast import Query
from ..tsl.normalize import query_paths

__all__ = ["statement_labels", "may_overlap"]


def statement_labels(statement: Query,
                     constraints=None) -> frozenset[str] | None:
    """The constant step labels of a statement's chased body.

    Returns ``None`` when the statement has a label variable (its
    matchable label set is unknown -- treat every update as
    overlapping) and the empty frozenset when the body is contradictory
    (the answer is empty forever -- no update overlaps).  Chasing first
    matters: label inference (Section 3.3) can resolve a label variable
    to a constant, shrinking the conservative case.
    """
    from ..rewriting.chase import chase
    try:
        prepared = chase(statement, constraints)
    except ChaseContradictionError:
        return frozenset()
    labels: set[str] = set()
    for path in query_paths(prepared):
        for _oid, label in path.steps:
            if isinstance(label, Constant):
                labels.add(label.value)
            else:
                return None
    return frozenset(labels)


def may_overlap(labels: frozenset[str] | None,
                touched: frozenset[str]) -> bool:
    """True unless the update provably cannot change the answer."""
    if labels is None:
        return True
    return bool(labels & touched)

