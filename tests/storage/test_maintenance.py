"""Label-overlap maintenance: statement_labels, patch vs invalidate."""

from repro.repository.cache import QueryCache
from repro.rewriting.constraints import PAPER_DTD, parse_dtd
from repro.storage.maintenance import may_overlap, statement_labels
from repro.tsl.evaluator import evaluate
from repro.tsl.parser import parse_query
from repro.workloads import figure3_database

CONSTANT = ("<ans(P) pub {<B booktitle 'SIGMOD'>}> :- "
            "<P pub {<B booktitle 'SIGMOD'>}>@db")
WILDCARD = "<rows(P) rec {<T L V>}> :- <P pub {<T L V>}>@db"


class TestStatementLabels:
    def test_all_constant_body_yields_its_step_labels(self):
        assert statement_labels(parse_query(CONSTANT)) \
            == frozenset({"pub", "booktitle"})

    def test_label_variable_means_unknowable(self):
        assert statement_labels(parse_query(WILDCARD)) is None

    def test_constraints_flow_into_the_chase(self):
        # A nested all-constant body under the paper DTD keeps exactly
        # its step labels; the chase adds no spurious ones.
        constraints = parse_dtd(PAPER_DTD, source="db")
        query = parse_query(
            "<ans(P) rec V> :- <P p {<N name {<L last V>}>}>@db")
        assert statement_labels(query, constraints) \
            == frozenset({"p", "name", "last"})

    def test_contradictory_body_is_never_affected(self):
        # `phone` is functional under the DTD (one per person), so
        # demanding two distinct values contradicts: the answer is
        # empty forever and no update overlaps.
        constraints = parse_dtd(PAPER_DTD, source="db")
        query = parse_query("<ans(P) rec 1> :- "
                            "<P p {<X phone 1>}>@db AND "
                            "<P p {<Y phone 2>}>@db")
        assert statement_labels(query, constraints) == frozenset()


class TestMayOverlap:
    def test_unknown_labels_always_overlap(self):
        assert may_overlap(None, frozenset({"anything"}))
        assert may_overlap(None, frozenset())

    def test_disjoint_sets_do_not_overlap(self):
        assert not may_overlap(frozenset({"pub"}), frozenset({"person"}))
        assert may_overlap(frozenset({"pub", "year"}), frozenset({"year"}))

    def test_empty_labels_never_overlap(self):
        assert not may_overlap(frozenset(), frozenset({"anything"}))


class TestCacheApplyUpdate:
    def fill(self, version=1):
        db = figure3_database()
        cache = QueryCache(capacity=8)
        for text in (CONSTANT, WILDCARD):
            query = parse_query(text)
            cache.insert(query, evaluate(query, db), version)
        return cache

    def test_disjoint_update_patches_constant_entry_only(self):
        cache = self.fill()
        outcome = cache.apply_update(frozenset({"person"}), 2,
                                     from_version=1)
        # The constant-label entry survives retagged; the wildcard
        # entry (label variable) is conservatively invalidated.
        assert outcome == {"patched": 1, "invalidated": 1}
        assert cache.lookup(parse_query(CONSTANT), 2) is not None
        assert cache.stats.patches == 1

    def test_overlapping_update_invalidates(self):
        cache = self.fill()
        outcome = cache.apply_update(frozenset({"booktitle"}), 2,
                                     from_version=1)
        assert outcome == {"patched": 0, "invalidated": 2}
        assert len(cache) == 0

    def test_from_version_guard_drops_already_stale_entries(self):
        # An entry cached at version 1 must not be retagged by the
        # 2 -> 3 delta, even if that delta is disjoint: it may have
        # missed the 1 -> 2 delta entirely.
        db = figure3_database()
        cache = QueryCache(capacity=8)
        query = parse_query(CONSTANT)
        cache.insert(query, evaluate(query, db), 1)
        outcome = cache.apply_update(frozenset({"person"}), 3,
                                     from_version=2)
        assert outcome == {"patched": 0, "invalidated": 1}

    def test_labels_are_computed_once_and_memoized(self):
        cache = self.fill()
        cache.apply_update(frozenset({"person"}), 2, from_version=1)
        entry = next(iter(cache.entries.values()))
        assert entry.labels_known
        assert entry.labels == frozenset({"pub", "booktitle"})
