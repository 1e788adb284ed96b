"""The oracles are green on the real engine and catch planted bugs.

The mutation tests are the calibration for the whole subsystem: each
deliberately breaks one engine layer (a chase rule, the equivalence
test, the mapping enumerator) and asserts that a short fuzzing campaign
reports a failure -- with a shrunk counterexample of at most 5 body
conditions.  An oracle that stays green under mutation tests nothing.
"""

import importlib

import pytest

from repro.logic.subst import Substitution
from repro.logic.terms import Constant
from repro.oem import build_database, obj
from repro.oracle import (ORACLES, Case, FuzzConfig, SemanticOracle,
                          generate_case, run_fuzz, run_oracle)
from repro.rewriting.equivalence import prepare_program
from repro.rewriting.rewriter import Rewriting
from repro.tsl import parse_query
from repro.tsl.ast import Query
from repro.tsl.decompose import decompose_program
from repro.tsl.normalize import normalize, path_to_condition, query_paths

# repro.rewriting re-exports `chase` (the function), shadowing the
# submodule attribute -- resolve the modules explicitly for monkeypatching.
chase_mod = importlib.import_module("repro.rewriting.chase")
equivalence_mod = importlib.import_module("repro.rewriting.equivalence")
mappings_mod = importlib.import_module("repro.rewriting.mappings")
session_mod = importlib.import_module("repro.rewriting.session")
signature_mod = importlib.import_module("repro.analysis.viewset.signature")
index_mod = importlib.import_module("repro.rewriting.index")
oracles_mod = importlib.import_module("repro.oracle.oracles")
witness_mod = importlib.import_module("repro.rewriting.witness")
contained_mod = importlib.import_module("repro.rewriting.contained")
durable_mod = importlib.import_module("repro.storage.durable")
cachestore_mod = importlib.import_module("repro.storage.cachestore")
maintenance_mod = importlib.import_module("repro.storage.maintenance")


@pytest.mark.parametrize("oracle_name", sorted(ORACLES))
@pytest.mark.parametrize("seed", range(8))
def test_oracles_green_on_real_engine(oracle_name, seed):
    case = generate_case(seed)
    result = run_oracle(ORACLES[oracle_name](), case)
    assert not result.failures, "\n".join(map(str, result.failures))
    assert result.checks > 0


def test_campaign_green_on_real_engine():
    report = run_fuzz(FuzzConfig(seed=7, iterations=24))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert report.iterations_run == 24
    for name in ORACLES:
        assert report.checks[name] > 0


def _assert_caught(report, max_conditions=5):
    assert not report.ok, "mutation survived the campaign undetected"
    assert all(f.conditions <= max_conditions for f in report.failures), \
        [f.conditions for f in report.failures]


def test_broken_chase_rule_is_caught_and_shrunk(monkeypatch):
    # Break rule 3's reduction step: silently drop a live path.
    monkeypatch.setattr(
        chase_mod, "_drop_subsumed_empty_paths",
        lambda paths: paths[:-1] if len(paths) > 1 else paths)
    report = run_fuzz(FuzzConfig(seed=0, iterations=16))
    _assert_caught(report)


def test_broken_equivalence_is_caught(monkeypatch):
    # Equivalence that rejects everything must trip the self-checks
    # (a query is always equivalent to its own chase / normal form).
    monkeypatch.setattr(equivalence_mod, "components_subsumed",
                        lambda *args, **kwargs: False)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8, shrink=False))
    assert not report.ok
    invariants = {f.invariant for f in report.failures}
    assert invariants & {"chase-equivalent", "normalize-equivalent",
                         "minimize-equivalent", "rewriting-complete"}


def test_minimize_stopping_after_one_retraction_is_caught(monkeypatch):
    # Stopping after the first retraction returns a sound but non-core
    # query: equivalence and evaluation stay green, the core check trips.
    def one_retraction(query, *, budget=None):
        current = normalize(query)
        frozen = Substitution({v: v for v in current.head_variables()})
        paths = query_paths(current)
        for index in range(len(paths)):
            remaining = paths[:index] + paths[index + 1:]
            witness = mappings_mod.body_mappings(
                paths, remaining, initial=frozen, limit=1, budget=budget)
            if witness:
                image = mappings_mod.coverage(paths, remaining, witness[0])
                paths = [p for i, p in enumerate(remaining) if i in image]
                break
        return Query(current.head,
                     tuple(path_to_condition(p) for p in paths),
                     name=current.name)

    monkeypatch.setattr(equivalence_mod, "minimize", one_retraction)
    monkeypatch.setattr(oracles_mod, "minimize", one_retraction)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 oracles=("containment",)))
    _assert_caught(report)
    assert {f.invariant for f in report.failures} == {"minimize-core"}


def test_sloppy_mapping_match_is_caught(monkeypatch):
    # An enumerator that tolerates constant mismatches finds extra
    # mappings -- but only on the exhaustive scan, because the path
    # index statically prunes exactly those constant-clash targets
    # before the sloppy matcher ever sees them.  The index oracle's
    # scan-vs-indexed parity check is what trips; with the index
    # disabled the brute-force cross-check catches it the old way.
    orig = mappings_mod.match

    def sloppy(a, b, subst=None):
        out = orig(a, b, subst)
        if out is None and isinstance(a, Constant) \
                and isinstance(b, Constant):
            return subst
        return out

    monkeypatch.setattr(mappings_mod, "match", sloppy)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8, shrink=False))
    assert not report.ok
    invariants = {f.invariant for f in report.failures}
    assert invariants & {"mappings-differ", "indexed-mappings-differ"}


def test_corrupted_memo_hit_is_caught(monkeypatch):
    # A result memo that serves the wrong value on a hit only shows up
    # on a warm session -- exactly the memo oracle's second phase.
    from repro.rewriting.rewriter import RewriteResult

    orig = session_mod.RewriteSession.lookup_result

    def corrupted(self, query, flags, **kwargs):
        value = orig(self, query, flags, **kwargs)
        if value is not None:
            result, explanation = value
            if result.rewritings:
                return RewriteResult([], result.stats), explanation
        return value

    monkeypatch.setattr(session_mod.RewriteSession, "lookup_result",
                        corrupted)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 oracles=("memo",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} \
        == {"rewrite-warm-differs"}


def test_unsettled_canonical_form_is_caught(monkeypatch):
    # The string-ordered refinement loop stops on its pass bound for
    # some queries wider than ten variables, and the form it stops on
    # canonicalizes to a different one: the metamorphic oracle's
    # canon-fixpoint check (self-join copies reach that width) reports it.
    from tests.rewriting.test_canon import _reference_canonicalize

    canon_mod = importlib.import_module("repro.rewriting.canon")
    monkeypatch.setattr(canon_mod, "canonicalize", _reference_canonicalize)
    report = run_fuzz(FuzzConfig(seed=0, iterations=24,
                                 oracles=("metamorphic",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} == {"canon-fixpoint"}


def test_lost_index_hit_is_caught(monkeypatch):
    # A label lookup that drops its last hit loses answers in the query
    # and in the view materializations alike, so the invariants that
    # compare one direct evaluation with another can miss it (at this
    # seed they all do); evaluate-datalog, whose Datalog side uses no
    # index, reports it.
    from repro.oem.model import OemDatabase

    roots_labeled = OemDatabase.roots_labeled
    monkeypatch.setattr(OemDatabase, "roots_labeled",
                        lambda self, label: roots_labeled(self, label)[:-1])
    report = run_fuzz(FuzzConfig(seed=0, iterations=12,
                                 oracles=("semantic",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} == {"evaluate-datalog"}


def test_memo_oracle_compares_seeded_corpus(monkeypatch):
    # The green direction of satellite 4: a seeded campaign of the memo
    # oracle alone -- memoized (cold + warm) and unmemoized rewrite()
    # agree on every generated case.
    report = run_fuzz(FuzzConfig(seed=31, iterations=12,
                                 oracles=("memo",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert report.checks["memo"] >= 24     # >= 2 rewrite checks per case


def test_memo_reference_that_memoizes_is_caught(monkeypatch):
    # Mutation: give every zero-capacity memo table the default
    # capacity, so the reference run serves hits and the memo oracle's
    # comparison would be memoized against memoized.  (A capacity of 1
    # serves no hit once the search chases its target only once.  The
    # chase memo serves only the very query it stored, so one run hits
    # only when it chases a query twice: 1 of the first 16 cases.)
    from repro.rewriting import session as session_mod
    real_init = session_mod.MemoTable.__init__

    def clamped(self, name, capacity=session_mod.DEFAULT_MEMO_SIZE,
                metrics=None):
        real_init(self, name, capacity or session_mod.DEFAULT_MEMO_SIZE,
                  metrics)

    monkeypatch.setattr(session_mod.MemoTable, "__init__", clamped)
    report = run_fuzz(FuzzConfig(seed=31, iterations=16,
                                 oracles=("memo",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} == {"reference-memoized"}


def test_overeager_prefilter_is_caught(monkeypatch):
    # A signature pre-filter that prunes every view silently discards
    # real rewritings; the brute-force soundness check of the signature
    # oracle refutes the verdicts.
    monkeypatch.setattr(signature_mod.ViewSignature, "admissible_for",
                        lambda self, profile: False)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 oracles=("signature",), shrink=False))
    assert not report.ok
    invariants = {f.invariant for f in report.failures}
    assert invariants & {"prefilter-parity", "prefilter-unsound"}


def test_index_pruning_an_admissible_view_is_caught(monkeypatch):
    # A signature index that refutes the exposing view -- admissible by
    # construction -- prunes a view the oracle's own signatures admit.
    # The brute-force soundness check never sees that view, so only the
    # parity check between the EXPLAIN log and the oracle catches it.
    orig = signature_mod.LabelSignatureIndex.signature
    impossible = signature_mod.ViewSignature(
        frozenset({"no-such-label"}), frozenset(), frozenset())

    def pruning(self, name):
        return impossible if name == "V" else orig(self, name)

    monkeypatch.setattr(signature_mod.LabelSignatureIndex, "signature",
                        pruning)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 oracles=("signature",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} == {"prefilter-parity"}


def test_signature_oracle_parity_campaign():
    # Acceptance criterion: the pruning-parity oracle stays green over
    # >= 500 seeded iterations (the rewriter prunes exactly the views
    # the signatures refute, and every one is brute-force refuted).
    report = run_fuzz(FuzzConfig(seed=7, iterations=500,
                                 oracles=("signature",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert report.iterations_run == 500
    assert report.checks["signature"] > 500


def test_overpruning_path_index_is_caught(monkeypatch):
    # A path index that drops one genuine candidate makes the indexed
    # search miss mappings the exhaustive scan still finds; the index
    # oracle reports the list divergence.
    orig = index_mod.PathIndex.candidates

    def overpruned(self, source_path):
        out = orig(self, source_path)
        return out[:-1] if out else out

    monkeypatch.setattr(index_mod.PathIndex, "candidates", overpruned)
    report = run_fuzz(FuzzConfig(seed=0, iterations=16,
                                 oracles=("index",), shrink=False))
    assert not report.ok
    invariants = {f.invariant for f in report.failures}
    assert invariants & {"indexed-mappings-differ",
                         "indexed-body-mappings-differ"}


def test_index_oracle_parity_campaign():
    # Acceptance criterion: indexed and unindexed mapping search agree
    # on the full mapping list over >= 500 seeded iterations across all
    # generator profiles.
    report = run_fuzz(FuzzConfig(seed=7, iterations=500,
                                 oracles=("index",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert report.iterations_run == 500
    assert report.checks["index"] > 500


def test_always_yes_step2_witness_is_caught(monkeypatch):
    # A witness that proves query ⊆ composition without checking
    # anything agrees with the search on real candidates (the half holds
    # by construction) but not once a query path is dropped.
    monkeypatch.setattr(witness_mod.Step2Witness, "holds",
                        lambda self, budget=None: True)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 oracles=("step2",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} \
        == {"witness-unsound-dropped-path"}


def _sigmod_titles_case():
    """All titles of SIGMOD publications, over a view of *all* titles:
    the only candidate answers more than the query, so a sound
    contained search returns nothing."""
    db = build_database("db", [
        obj("pub", [obj("title", "a"), obj("booktitle", "sigmod")]),
        obj("pub", [obj("title", "b"), obj("booktitle", "vldb")])])
    query = parse_query("<f(P) title T> :- <P pub {<X title T>}>@db "
                        "AND <P pub {<B booktitle sigmod>}>@db")
    view = parse_query("<v(P,T) t T> :- <P pub {<X title T>}>@db",
                       name="V")
    return Case(seed=0, profile="conjunctive", db=db, query=query,
                views={"V": view})


def test_contained_search_without_soundness_test_is_caught(monkeypatch):
    # Skip only the composition ⊆ query test: the maximality filter and
    # the equivalence flag still run, so the broader candidate is kept.
    case = _sigmod_titles_case()
    assert not run_oracle(SemanticOracle(), case).failures
    [target] = prepare_program([case.query])
    target_components = decompose_program(prepare_program([target]))
    real = contained_mod.components_subsumed

    def unsound(left, right, budget=None):
        return right == target_components or real(left, right,
                                                  budget=budget)

    monkeypatch.setattr(contained_mod, "components_subsumed", unsound)
    result = run_oracle(SemanticOracle(), case)
    assert {f.invariant for f in result.failures} == {"contained-sound"}


def test_semantic_oracle_counts_contained_checks():
    report = run_fuzz(FuzzConfig(seed=7, iterations=8,
                                 oracles=("semantic",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert 0 < report.counters["semantic.contained"] \
        < report.checks["semantic"]


def test_semantic_oracle_reruns_every_case_under_a_step_budget():
    report = run_fuzz(FuzzConfig(seed=7, iterations=8,
                                 oracles=("semantic",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    assert report.counters["semantic.budgeted"] == 8
    assert report.counters["semantic.budgeted_truncated"] > 0


def test_budgeted_run_with_an_unfound_rewriting_is_caught(monkeypatch):
    # Under a step budget, report one rewriting the full search never
    # found: a truncated run then answers more than the full one, an
    # untruncated run differs from it.
    real = oracles_mod.rewrite

    def leaky(query, views, constraints=None, **kwargs):
        result = real(query, views, constraints, **kwargs)
        budget = kwargs.get("budget")
        if budget is not None and budget.max_steps is not None:
            result.rewritings.append(Rewriting(query, [query],
                                               frozenset()))
        return result

    monkeypatch.setattr(oracles_mod, "rewrite", leaky)
    report = run_fuzz(FuzzConfig(seed=7, iterations=8, shrink=False,
                                 oracles=("semantic",)))
    invariants = {f.invariant for f in report.failures}
    assert "budgeted-subset" in invariants, invariants
    assert invariants <= {"budgeted-subset", "budgeted-complete"}


def test_step2_oracle_counts_witness_hits():
    # Every search candidate is a witness hit; the perturbations add two
    # more comparisons per candidate where the query has two paths.
    report = run_fuzz(FuzzConfig(seed=7, iterations=24,
                                 oracles=("step2",)))
    assert report.ok, "\n".join(f.message for f in report.failures)
    hits = report.counters["step2.hits"]
    assert hits > 0
    assert report.counters.get("step2.fallbacks", 0) == 0
    assert hits < report.checks["step2"] <= 3 * hits
    assert report.to_json()["counters"] == report.counters


def test_lossy_wal_is_caught(monkeypatch):
    # A WAL that silently drops records diverges the reopened database
    # from the live one -- the persist oracle's store round trip.
    orig = durable_mod.DurableStore._append
    state = {"records": 0}

    def lossy(self, record):
        state["records"] += 1
        if state["records"] % 3 == 0:
            return  # drop every third record on the floor
        orig(self, record)

    monkeypatch.setattr(durable_mod.DurableStore, "_append", lossy)
    report = run_fuzz(FuzzConfig(seed=0, iterations=4,
                                 oracles=("persist",), shrink=False))
    assert not report.ok
    assert "store-roundtrip" in {f.invariant for f in report.failures}


def test_lossy_cache_load_is_caught(monkeypatch):
    # A cache store that forgets its entries must trip the round-trip
    # comparison (and the exact-hit check behind it).
    monkeypatch.setattr(
        cachestore_mod.CacheStore, "load",
        lambda self, cache, store_version: {"entries": 0, "dropped": 0})
    report = run_fuzz(FuzzConfig(seed=0, iterations=4,
                                 oracles=("persist",), shrink=False))
    assert not report.ok
    invariants = {f.invariant for f in report.failures}
    assert invariants & {"cache-roundtrip", "cache-hit-after-reload"}


def test_ignored_label_overlap_is_caught(monkeypatch):
    # An overlap test that never fires turns every invalidation into a
    # patch -- a stale entry stays live after an update that can change
    # its answer.  (QueryCache.apply_update imports may_overlap at call
    # time, so the module attribute is the right patch point.)
    monkeypatch.setattr(maintenance_mod, "may_overlap",
                        lambda labels, touched: False)
    report = run_fuzz(FuzzConfig(seed=0, iterations=4,
                                 oracles=("persist",), shrink=False))
    assert not report.ok
    assert {f.invariant for f in report.failures} \
        == {"maintenance-invalidates"}


def test_mutation_failures_replay_from_corpus(monkeypatch, tmp_path):
    from repro.oracle import replay

    monkeypatch.setattr(
        chase_mod, "_drop_subsumed_empty_paths",
        lambda paths: paths[:-1] if len(paths) > 1 else paths)
    report = run_fuzz(FuzzConfig(seed=0, iterations=8,
                                 corpus_dir=str(tmp_path)))
    _assert_caught(report)
    saved = report.failures[0].corpus_path
    assert saved is not None
    # Still failing while the mutation is active ...
    assert not replay(saved).ok
    # ... and green once the engine is restored.
    monkeypatch.undo()
    assert replay(saved).ok
