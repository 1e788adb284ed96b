"""The OEM data model (Section 2 of the paper).

An OEM database is a rooted graph of labeled nodes ("objects") with unique
object ids.  Atomic objects carry an atomic value; set objects point to a
set of subobjects, and the value of a set object is the OEM subgraph rooted
at it.  Object ids are ground terms from the Herbrand universe: atomic data
or uninterpreted function terms such as ``f(10, ashish)``.

The database is stored flat (adjacency-style) so that shared subobjects,
DAGs, and cycles are all representable.  :class:`OemObject` offers a
convenient navigational view over one object of a database.

Like the label and value indexes (Lindex/Vindex) of the Lore repository
the paper's Section 1 places rewriting in, a database keeps derived
lookup structures for the evaluator: roots by label, atomic objects by
label and value, and each object's parents.  The ``add_*`` methods keep
them current whatever order objects, edges and roots arrive in; they are
never serialized, since they follow from the objects, edges and roots.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator, Union

from ..errors import DuplicateOidError, OemError, UnknownOidError
from ..logic.terms import Atom, Constant, Term

Oid = Term
OidLike = Union[Term, Atom]


def as_oid(value: OidLike) -> Oid:
    """Coerce a Python atom to a :class:`Constant` oid; pass terms through."""
    if isinstance(value, Term):
        return value
    return Constant(value)


def _multi_add(table: dict, key: object, oid: Oid) -> None:
    """Add *oid* under *key* of a compact multimap: a lone oid is stored
    bare, two or more in a list (an oid is a term, never a list)."""
    present = table.get(key)
    if present is None:
        table[key] = oid
    elif type(present) is list:
        present.append(oid)
    else:
        table[key] = [present, oid]


def _multi_get(table: dict, key: object) -> tuple[Oid, ...]:
    present = table.get(key)
    if present is None:
        return ()
    if type(present) is list:
        return tuple(present)
    return (present,)


class OemDatabase:
    """A named OEM database: labeled objects, subobject edges, and roots.

    Objects are registered exactly once (re-registering with identical label
    and shape is an idempotent no-op; conflicting re-registration raises
    :class:`DuplicateOidError`).  Subobject sets are kept in deterministic
    insertion order but compared as sets, matching the paper's unordered
    model ("Since OEM does not support order ...").
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._labels: dict[Oid, Atom] = {}
        self._atoms: dict[Oid, Atom] = {}
        self._children: dict[Oid, list[Oid]] = {}
        self._child_sets: dict[Oid, set[Oid]] = {}
        self._roots: list[Oid] = []
        # Derived lookups (see the module docstring).  Root -> position
        # in ``_roots``; label -> its registered roots, in root order;
        # label -> value -> atomic oids, in registration order; child ->
        # parents, in edge order.  The last two are compact multimaps.
        self._root_index: dict[Oid, int] = {}
        self._roots_by_label: dict[Atom, list[Oid]] = {}
        self._atoms_by_value: dict[Atom, dict[Atom, object]] = {}
        self._parents: dict[Oid, object] = {}

    # -- construction ------------------------------------------------------

    def add_atomic(self, oid: OidLike, label: Atom, value: Atom) -> Oid:
        """Register an atomic object and return its (coerced) oid."""
        oid = as_oid(oid)
        if not oid.is_ground():
            raise OemError(f"object id must be ground, got {oid}")
        if oid in self._labels:
            same = (self._labels[oid] == label
                    and self._atoms.get(oid) == value
                    and oid not in self._children)
            if not same:
                raise DuplicateOidError(
                    f"oid {oid} already registered with a different shape")
            return oid
        self._labels[oid] = label
        self._atoms[oid] = value
        _multi_add(self._atoms_by_value.setdefault(label, {}), value, oid)
        self._index_root_label(oid, label)
        return oid

    def add_set(self, oid: OidLike, label: Atom) -> Oid:
        """Register a set object (initially empty) and return its oid."""
        oid = as_oid(oid)
        if not oid.is_ground():
            raise OemError(f"object id must be ground, got {oid}")
        if oid in self._labels:
            same = self._labels[oid] == label and oid not in self._atoms
            if not same:
                raise DuplicateOidError(
                    f"oid {oid} already registered with a different shape")
            return oid
        self._labels[oid] = label
        self._children[oid] = []
        self._child_sets[oid] = set()
        self._index_root_label(oid, label)
        return oid

    def _index_root_label(self, oid: Oid, label: Atom) -> None:
        """File a newly registered object that is already a root."""
        if oid in self._root_index:
            insort(self._roots_by_label.setdefault(label, []), oid,
                   key=self._root_index.__getitem__)

    def add_child(self, parent: OidLike, child: OidLike) -> None:
        """Add a subobject edge from *parent* to *child* (idempotent)."""
        parent = as_oid(parent)
        child = as_oid(child)
        if parent not in self._children:
            if parent in self._atoms:
                raise OemError(f"atomic object {parent} cannot have subobjects")
            raise UnknownOidError(f"unknown parent oid {parent}")
        if child not in self._child_sets[parent]:
            self._children[parent].append(child)
            self._child_sets[parent].add(child)
            _multi_add(self._parents, child, parent)

    def add_root(self, oid: OidLike) -> None:
        """Mark an object as a top-level (root) object (idempotent)."""
        oid = as_oid(oid)
        if oid not in self._root_index:
            self._root_index[oid] = len(self._roots)
            self._roots.append(oid)
            label = self._labels.get(oid)
            if label is not None:
                self._roots_by_label.setdefault(label, []).append(oid)

    # -- inspection ----------------------------------------------------------

    def __contains__(self, oid: OidLike) -> bool:
        return as_oid(oid) in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def roots(self) -> tuple[Oid, ...]:
        return tuple(self._roots)

    def is_root(self, oid: OidLike) -> bool:
        return as_oid(oid) in self._root_index

    def oids(self) -> Iterator[Oid]:
        """Iterate over every registered oid, in registration order."""
        return iter(self._labels)

    def label(self, oid: OidLike) -> Atom:
        oid = as_oid(oid)
        try:
            return self._labels[oid]
        except KeyError:
            raise UnknownOidError(f"unknown oid {oid}") from None

    def is_atomic(self, oid: OidLike) -> bool:
        oid = as_oid(oid)
        if oid not in self._labels:
            raise UnknownOidError(f"unknown oid {oid}")
        return oid in self._atoms

    def atomic_value(self, oid: OidLike) -> Atom:
        oid = as_oid(oid)
        try:
            return self._atoms[oid]
        except KeyError:
            raise OemError(f"object {oid} is not atomic") from None

    def children(self, oid: OidLike) -> tuple[Oid, ...]:
        """Return the subobject oids of a set object, in insertion order."""
        oid = as_oid(oid)
        if oid in self._atoms:
            return ()
        try:
            return tuple(self._children[oid])
        except KeyError:
            raise UnknownOidError(f"unknown oid {oid}") from None

    def has_child(self, parent: Oid, child: Oid) -> bool:
        """True when *parent* is a set object with an edge to *child*."""
        return child in self._child_sets.get(parent, ())

    # -- index lookups -------------------------------------------------------

    def roots_labeled(self, label: Atom) -> tuple[Oid, ...]:
        """The registered roots carrying *label*, in root order."""
        return tuple(self._roots_by_label.get(label, ()))

    def children_labeled(self, oid: Oid, label: Atom) -> tuple[Oid, ...]:
        """The registered subobjects of *oid* carrying *label*, in
        insertion order (a scan of one child list, not an index)."""
        labels = self._labels
        return tuple(child for child in self._children.get(oid, ())
                     if labels.get(child) == label)

    def atoms_valued(self, label: Atom, value: Atom) -> tuple[Oid, ...]:
        """The atomic objects with *label* and *value*, in registration
        order.  Values match as :class:`Constant` terms do (``1 == 1.0``)."""
        return _multi_get(self._atoms_by_value.get(label, {}), value)

    def parents(self, oid: Oid) -> tuple[Oid, ...]:
        """The objects with a subobject edge to *oid*, in edge order."""
        return _multi_get(self._parents, oid)

    def in_root_order(self, oids: Iterable[Oid]) -> list[Oid]:
        """The roots among *oids*, each once, in root order."""
        position = self._root_index
        return sorted({oid for oid in oids if oid in position},
                      key=position.__getitem__)

    def object(self, oid: OidLike) -> "OemObject":
        """Return a navigational view of one object."""
        oid = as_oid(oid)
        if oid not in self._labels:
            raise UnknownOidError(f"unknown oid {oid}")
        return OemObject(self, oid)

    def root_objects(self) -> tuple["OemObject", ...]:
        return tuple(OemObject(self, r) for r in self._roots)

    # -- graph helpers -------------------------------------------------------

    def reachable_from(self, oid: OidLike,
                       include_start: bool = True) -> set[Oid]:
        """Return the oids reachable from *oid* via subobject edges."""
        start = as_oid(oid)
        if start not in self._labels:
            raise UnknownOidError(f"unknown oid {start}")
        seen: set[Oid] = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for child in self.children(current):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        if not include_start:
            seen.discard(start)
        return seen

    def reachable_oids(self) -> set[Oid]:
        """Return oids reachable from any root (the queryable portion)."""
        seen: set[Oid] = set()
        for root in self._roots:
            seen |= self.reachable_from(root)
        return seen

    def copy_subgraph_into(self, target: "OemDatabase",
                           oid: OidLike) -> None:
        """Copy the subgraph rooted at *oid* into *target*, preserving oids.

        This realizes TSL's copy semantics: when an answer "hangs" a source
        subgraph off a constructed node, the source objects (same oids)
        become part of the answer graph.
        """
        nodes = sorted(self.reachable_from(oid), key=str)
        for node in nodes:
            if self.is_atomic(node):
                target.add_atomic(node, self.label(node),
                                  self.atomic_value(node))
            else:
                target.add_set(node, self.label(node))
        for node in nodes:
            for child in self.children(node):
                target.add_child(node, child)

    def check_integrity(self) -> None:
        """Raise :class:`OemError` on dangling edges or unregistered roots."""
        for parent, kids in self._children.items():
            for child in kids:
                if child not in self._labels:
                    raise OemError(
                        f"dangling subobject edge {parent} -> {child}")
        for root in self._roots:
            if root not in self._labels:
                raise OemError(f"root {root} is not a registered object")

    def stats(self) -> dict[str, int]:
        """Return simple size statistics (objects, atoms, edges, roots)."""
        edges = sum(len(kids) for kids in self._children.values())
        return {
            "objects": len(self._labels),
            "atomic": len(self._atoms),
            "set": len(self._children),
            "edges": edges,
            "roots": len(self._roots),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"OemDatabase({self.name!r}, objects={s['objects']}, "
                f"edges={s['edges']}, roots={s['roots']})")


class OemObject:
    """A navigational view over one object of an :class:`OemDatabase`."""

    __slots__ = ("db", "oid")

    def __init__(self, db: OemDatabase, oid: Oid) -> None:
        self.db = db
        self.oid = oid

    @property
    def label(self) -> Atom:
        return self.db.label(self.oid)

    @property
    def is_atomic(self) -> bool:
        return self.db.is_atomic(self.oid)

    @property
    def value(self) -> Union[Atom, tuple["OemObject", ...]]:
        """The atomic value, or the tuple of subobject views."""
        if self.is_atomic:
            return self.db.atomic_value(self.oid)
        return tuple(OemObject(self.db, c) for c in self.db.children(self.oid))

    def subobjects(self, label: Atom | None = None) -> tuple["OemObject", ...]:
        """Return subobject views, optionally filtered by label."""
        kids = tuple(OemObject(self.db, c)
                     for c in self.db.children(self.oid))
        if label is None:
            return kids
        return tuple(k for k in kids if k.label == label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OemObject):
            return NotImplemented
        return self.db is other.db and self.oid == other.oid

    def __hash__(self) -> int:
        return hash((id(self.db), self.oid))

    def __repr__(self) -> str:
        kind = "atomic" if self.is_atomic else "set"
        return f"<{self.oid} {self.label} ({kind})>"


def merge_databases(name: str, parts: Iterable[OemDatabase]) -> OemDatabase:
    """Union several databases into one (oids must not conflict)."""
    merged = OemDatabase(name)
    for part in parts:
        for oid in part.oids():
            if part.is_atomic(oid):
                merged.add_atomic(oid, part.label(oid), part.atomic_value(oid))
            else:
                merged.add_set(oid, part.label(oid))
        for oid in part.oids():
            for child in part.children(oid):
                merged.add_child(oid, child)
        for root in part.roots:
            merged.add_root(root)
    return merged
