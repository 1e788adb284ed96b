"""Unit tests for the OEM data model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateOidError, OemError, UnknownOidError
from repro.logic.terms import Constant, fn, var
from repro.oem import OemDatabase, merge_databases


@pytest.fixture
def db():
    d = OemDatabase("db")
    d.add_set("p1", "person")
    d.add_atomic("n1", "name", "ann")
    d.add_atomic("a1", "age", 31)
    d.add_child("p1", "n1")
    d.add_child("p1", "a1")
    d.add_root("p1")
    return d


class TestConstruction:
    def test_oids_coerced_to_constants(self, db):
        assert Constant("p1") in set(db.oids())

    def test_function_term_oids(self):
        d = OemDatabase()
        oid = fn("f", Constant(1))
        d.add_atomic(oid, "x", "y")
        assert d.label(oid) == "x"

    def test_non_ground_oid_rejected(self):
        with pytest.raises(OemError, match="ground"):
            OemDatabase().add_atomic(var("X"), "a", "b")

    def test_duplicate_identical_is_idempotent(self, db):
        db.add_atomic("n1", "name", "ann")
        assert len(db) == 3

    def test_duplicate_conflicting_value(self, db):
        with pytest.raises(DuplicateOidError):
            db.add_atomic("n1", "name", "bob")

    def test_duplicate_conflicting_kind(self, db):
        with pytest.raises(DuplicateOidError):
            db.add_set("n1", "name")
        with pytest.raises(DuplicateOidError):
            db.add_atomic("p1", "person", "x")

    def test_child_of_atomic_rejected(self, db):
        with pytest.raises(OemError, match="atomic"):
            db.add_child("n1", "a1")

    def test_child_of_unknown_parent(self, db):
        with pytest.raises(UnknownOidError):
            db.add_child("zz", "n1")

    def test_duplicate_edge_ignored(self, db):
        db.add_child("p1", "n1")
        assert db.children("p1") == (Constant("n1"), Constant("a1"))

    def test_duplicate_root_ignored(self, db):
        db.add_root("p1")
        assert db.roots == (Constant("p1"),)


class TestInspection:
    def test_label(self, db):
        assert db.label("p1") == "person"

    def test_label_unknown(self, db):
        with pytest.raises(UnknownOidError):
            db.label("zz")

    def test_is_atomic(self, db):
        assert db.is_atomic("n1")
        assert not db.is_atomic("p1")

    def test_atomic_value(self, db):
        assert db.atomic_value("a1") == 31
        with pytest.raises(OemError, match="not atomic"):
            db.atomic_value("p1")

    def test_children_of_atomic_empty(self, db):
        assert db.children("n1") == ()

    def test_is_root(self, db):
        assert db.is_root("p1")
        assert not db.is_root("n1")

    def test_len_and_contains(self, db):
        assert len(db) == 3
        assert "p1" in db
        assert "zz" not in db

    def test_stats(self, db):
        assert db.stats() == {"objects": 3, "atomic": 2, "set": 1,
                              "edges": 2, "roots": 1}

    def test_repr(self, db):
        assert "objects=3" in repr(db)


class TestNavigation:
    def test_object_view(self, db):
        p = db.object("p1")
        assert p.label == "person"
        assert not p.is_atomic
        labels = sorted(child.label for child in p.value)
        assert labels == ["age", "name"]

    def test_subobjects_filter(self, db):
        p = db.object("p1")
        names = p.subobjects("name")
        assert len(names) == 1
        assert names[0].value == "ann"

    def test_object_equality(self, db):
        assert db.object("p1") == db.object("p1")
        assert db.object("p1") != db.object("n1")

    def test_object_unknown(self, db):
        with pytest.raises(UnknownOidError):
            db.object("zz")


class TestReachability:
    def test_reachable_from(self, db):
        reachable = db.reachable_from("p1")
        assert {str(o) for o in reachable} == {"p1", "n1", "a1"}

    def test_reachable_excluding_start(self, db):
        reachable = db.reachable_from("p1", include_start=False)
        assert Constant("p1") not in reachable

    def test_reachable_with_cycle(self):
        d = OemDatabase()
        d.add_set("a", "x")
        d.add_set("b", "y")
        d.add_child("a", "b")
        d.add_child("b", "a")
        d.add_root("a")
        assert len(d.reachable_oids()) == 2

    def test_unreachable_ignored(self, db):
        db.add_atomic("orphan", "o", 1)
        assert Constant("orphan") not in db.reachable_oids()


class TestCopySubgraph:
    def test_copy_preserves_oids(self, db):
        target = OemDatabase("t")
        db.copy_subgraph_into(target, "p1")
        assert len(target) == 3
        assert target.label("p1") == "person"
        assert set(target.children("p1")) == set(db.children("p1"))

    def test_copy_cyclic_subgraph(self):
        d = OemDatabase()
        d.add_set("a", "x")
        d.add_set("b", "y")
        d.add_child("a", "b")
        d.add_child("b", "a")
        d.add_root("a")
        target = OemDatabase("t")
        d.copy_subgraph_into(target, "a")
        assert set(target.children("b")) == {Constant("a")}


class TestIntegrity:
    def test_dangling_edge_detected(self):
        d = OemDatabase()
        d.add_set("a", "x")
        d._children[Constant("a")].append(Constant("ghost"))
        with pytest.raises(OemError, match="dangling"):
            d.check_integrity()

    def test_unregistered_root_detected(self):
        d = OemDatabase()
        d.add_root("ghost")
        with pytest.raises(OemError, match="root"):
            d.check_integrity()


class TestMerge:
    def test_merge_disjoint(self, db):
        other = OemDatabase("o")
        other.add_atomic("q1", "pub", "t")
        other.add_root("q1")
        merged = merge_databases("m", [db, other])
        assert len(merged) == 4
        assert len(merged.roots) == 2

    def test_merge_overlapping_identical(self, db):
        merged = merge_databases("m", [db, db])
        assert len(merged) == 3


# -- derived lookup structures ---------------------------------------------

_OIDS = [Constant(f"o{n}") for n in range(5)] + [fn("f", Constant(1))]
_LABELS = ["a", "b"]
_VALUES = [1, 1.0, "x", "y"]


def _other_database():
    """A fixed second database for merges and subgraph copies: it shares
    oids with the random one, so both can conflict or overlap."""
    other = OemDatabase("other")
    other.add_set("o0", "a")
    other.add_atomic("o1", "b", "x")
    other.add_atomic("o9", "a", 1)
    other.add_child("o0", "o1")
    other.add_child("o0", "o9")
    other.add_root("o9")
    other.add_root("o0")
    return other


_STEPS = st.one_of(
    st.tuples(st.just("atomic"), st.sampled_from(_OIDS),
              st.sampled_from(_LABELS), st.sampled_from(_VALUES)),
    st.tuples(st.just("set"), st.sampled_from(_OIDS),
              st.sampled_from(_LABELS)),
    st.tuples(st.just("child"), st.sampled_from(_OIDS),
              st.sampled_from(_OIDS)),
    st.tuples(st.just("root"), st.sampled_from(_OIDS)),
    st.tuples(st.just("merge")),
    st.tuples(st.just("copy"), st.sampled_from(["o0", "o1", "o9"])),
)


def _apply(db, step):
    """Apply one step; a rejected update (a conflicting shape, an edge
    from an unknown or atomic parent) leaves the database usable."""
    kind = step[0]
    try:
        if kind == "atomic":
            db.add_atomic(*step[1:])
        elif kind == "set":
            db.add_set(*step[1:])
        elif kind == "child":
            db.add_child(*step[1:])
        elif kind == "root":
            db.add_root(step[1])
        elif kind == "merge":
            return merge_databases("db", [db, _other_database()])
        else:
            _other_database().copy_subgraph_into(db, step[1])
    except OemError:
        pass
    return db


def _patterns():
    """Top-level patterns whose candidates come from each index path."""
    from repro.tsl.parser import parse_query
    bodies = ["<P a V>", "<P b {<X a 1>}>", "<P L {<X b x>}>",
              "<P a {<X a {<Y b 1>}>}>", "<P L V>", "<P a 1>",
              "<P b {<X a V> <Y b y>}>"]
    return [parse_query(f"<r(P) z 0> :- {body}@db").body[0].pattern
            for body in bodies]


def _check_indexes(db):
    from repro.logic.subst import Substitution
    from repro.tsl.evaluator import _candidate_roots, _match_pattern
    registered = list(db.oids())
    roots = [root for root in db.roots if root in db]
    for label in _LABELS:
        assert list(db.roots_labeled(label)) == [
            root for root in roots if db.label(root) == label]
        for value in _VALUES:
            assert list(db.atoms_valued(label, value)) == [
                oid for oid in registered if db.is_atomic(oid)
                and db.label(oid) == label and db.atomic_value(oid) == value]
        for oid in registered:
            assert list(db.children_labeled(oid, label)) == [
                child for child in db.children(oid)
                if child in db and db.label(child) == label]
    for oid in _OIDS:
        parents = db.parents(oid)
        assert len(parents) == len(set(parents))
        assert set(parents) == {parent for parent in registered
                                if oid in db.children(parent)}
    assert db.in_root_order(reversed(_OIDS)) == [
        root for root in db.roots if root in _OIDS]
    for pattern in _patterns():
        candidates = list(_candidate_roots(db, pattern, Substitution()))
        assert candidates == [root for root in db.roots
                              if root in candidates]
        matched = [[*_match_pattern(db, root, pattern, Substitution())]
                   for root in candidates if root in db]
        scanned = [[*_match_pattern(db, root, pattern, Substitution())]
                   for root in roots]
        assert [m for m in matched if m] == [m for m in scanned if m]


@given(st.lists(_STEPS, max_size=30))
@settings(max_examples=300, deadline=None)
def test_indexes_match_a_full_scan_after_every_step(steps):
    db = OemDatabase("db")
    for step in steps:
        db = _apply(db, step)
        _check_indexes(db)


def _update_script(store):
    """Fixed updates: a root and an edge before their objects, idempotent
    re-adds, a shared subobject, function-term oids and numeric values."""
    year = fn("y", Constant(1))
    store.add_set("pub1", "pub")
    store.add_root(year)
    store.add_atomic(year, "year", 1999)
    store.add_child("pub1", "t1")
    store.add_atomic("t1", "title", "views")
    store.add_atomic("t1", "title", "views")
    store.add_child("pub1", "t1")
    store.add_root("pub1")
    store.add_root("pub1")
    store.add_atomic("y2", "year", 1999.0)
    store.add_child("pub1", "y2")
    store.add_set("pub2", "pub")
    store.add_child("pub2", "t1")
    store.add_child("pub2", year)
    store.add_root("pub2")


def _digest(data: bytes) -> str:
    import hashlib
    return hashlib.sha256(data).hexdigest()[:16]


def test_indexes_never_reach_disk(tmp_path):
    # The digests were taken before the database kept any derived
    # lookup structure: saving, logging and compacting the same updates
    # must write the same bytes.
    from repro.repository.store import Store
    from repro.storage import DurableStore
    store = Store("db")
    _update_script(store)
    store.save(tmp_path / "store.json")
    durable = DurableStore.create(tmp_path / "durable")
    _update_script(durable)
    durable.flush()
    wal = durable.layout.wal.read_bytes()
    durable.compact()
    durable.close()
    assert {"save": _digest((tmp_path / "store.json").read_bytes()),
            "wal": _digest(wal),
            "snapshot": _digest(durable.layout.snapshot.read_bytes())} \
        == {"save": "87250ff57d83689b", "wal": "447e147fa65219d6",
            "snapshot": "d8403951d35fe541"}
