"""The general query rewriting algorithm (Section 3.4).

Given a TSL query ``Q`` with ``k`` single-path conditions and TSL views
``V = {V1..Vn}``:

* **Step 1A** -- find every containment mapping from each view body into
  the body of ``Q`` (:mod:`repro.rewriting.mappings`).
* **Step 1B** -- construct candidate rewriting queries: ``head(Q)`` plus
  any safe conjunction of at most ``k`` conditions, each either a view
  instantiation ``θ(head(Vi))`` or an original condition of ``Q``, with
  at least one view.
* **Step 1C** -- label inference and chase on each candidate.
* **Step 2** -- compose each candidate with the views, chase the
  composition, and keep the candidate iff the composition is equivalent
  to ``Q`` (Section 4).

The covering heuristic ("only construct candidates whose views and
conditions cover all the conditions of Q") prunes the exponential
candidate space without losing rewritings; it is on by default and can be
disabled to measure its effect (benchmark E6).

The algorithm is sound (Step 2 is a correctness test) and complete for
TSL without structural constraints (Theorem 5.5); with constraints it
remains sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from typing import Mapping, NamedTuple, Sequence, Union

from ..errors import (BudgetExceededError, ChaseContradictionError,
                      CompositionError, CyclicPatternError)
from ..logic.subst import Substitution
from ..obs import NULL_TRACER, Tracer
from ..obs.metrics import PHASE_SECONDS
from ..tsl.ast import Condition, Query
from ..tsl.decompose import decompose_program
from ..tsl.normalize import path_to_condition, query_paths
from ..tsl.validate import is_safe
from .chase import StructuralConstraints
from .composition import compose
from .equivalence import (components_subsumed, equivalence_obstacle,
                          minimize, prepare_program)
from .index import IndexStats, PathIndex
from .mappings import Mapping as ContainmentMapping
from .mappings import find_mappings, mapping_obstacle
from .session import RewriteSession
from .witness import Step2Target, Step2Witness

#: Span names that ``phase.seconds{phase=...}`` observes.
_PHASES = frozenset(("rewrite", "chase", "compose", "equivalence"))


@dataclass(frozen=True, slots=True)
class CandidateAtom:
    """One buildable condition: a view instantiation or an original one.

    A view instantiation ``θ(head(Vi))`` keeps its Step 1A mapping
    ``θ`` as *theta*; Step 2 checks its witness from it.
    """

    condition: Condition
    covers: frozenset[int]
    view: str | None  # view name, or None for an original condition
    theta: Substitution | None = None

    @property
    def is_view(self) -> bool:
        return self.view is not None


@dataclass
class Rewriting:
    """An accepted rewriting query and its correctness evidence."""

    query: Query
    composition: list[Query]
    views_used: frozenset[str]

    def __str__(self) -> str:
        return str(self.query)


@dataclass
class RewriteStats:
    """Counters describing one rewriter run (feeds the benchmarks).

    ``truncated`` is True when the search stopped before exhausting the
    candidate space -- via ``max_candidates``, a wall-clock deadline, or
    a step budget -- in which case ``stop_reason`` names the cause
    (``"max_candidates"``, ``"deadline"``, or ``"steps"``) and the
    accumulated rewritings are a sound but possibly incomplete set.
    """

    mappings: int = 0
    views_pruned_signature: int = 0
    index_hits: int = 0
    index_skips: int = 0
    candidates_enumerated: int = 0
    candidates_tested: int = 0
    candidates_pruned_by_heuristic: int = 0
    candidates_pruned_unsafe: int = 0
    candidates_pruned_subsumed: int = 0
    candidates_pruned_duplicate: int = 0
    candidates_failed_chase: int = 0
    candidates_failed_composition: int = 0
    composition_rules: int = 0
    rewritings: int = 0
    truncated: bool = False
    stop_reason: str | None = None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in self.__dataclass_fields__.values()}


@dataclass
class RewriteResult:
    """Everything a rewriter run produced."""

    rewritings: list[Rewriting] = field(default_factory=list)
    stats: RewriteStats = field(default_factory=RewriteStats)

    @property
    def queries(self) -> list[Query]:
        return [r.query for r in self.rewritings]

    @property
    def truncated(self) -> bool:
        """True when the search stopped early (results may be incomplete)."""
        return self.stats.truncated

    def __iter__(self):
        return iter(self.rewritings)

    def __len__(self) -> int:
        return len(self.rewritings)


class SearchFlags(NamedTuple):
    """The search-affecting options of one :func:`rewrite` run.

    The session's result memo keys results on them.  Being a tuple,
    they hash, compare and serialize (``list(flags)``) exactly as the
    positional tuples of persisted registry documents do.
    """

    heuristic: bool = True
    total_only: bool = False
    prune_subsumed: bool = True
    first_only: bool = False
    max_candidates: int | None = None


def rewrite(query: Query,
            views: Union[Mapping[str, Query], Sequence[Query]],
            constraints: StructuralConstraints | None = None,
            *,
            heuristic: bool = True,
            total_only: bool = False,
            prune_subsumed: bool = True,
            first_only: bool = False,
            max_candidates: int | None = None,
            tracer=None,
            budget=None,
            session=None,
            explain=None) -> RewriteResult:
    """Find rewriting queries of *query* using *views* (Section 3.4).

    Parameters
    ----------
    query, views:
        The TSL query and the views (a name->query mapping, or a sequence
        of named queries).
    constraints:
        Optional structural constraints (a DTD or DataGuide); enables
        label inference and labeled-FD chasing (Section 3.3).
    heuristic:
        Apply the covering heuristic (default True).
    total_only:
        Only consider candidates that access views exclusively ("total
        rewriting queries").
    prune_subsumed:
        Skip candidates whose body strictly extends an accepted
        rewriting's body (the "trivial rewriting" pruning of Section 1).
    first_only:
        Stop after the first rewriting found.
    max_candidates:
        Safety cap on the number of candidates tested.  Hitting it sets
        ``stats.truncated`` with ``stop_reason="max_candidates"``.
    tracer:
        Optional :class:`repro.obs.Tracer`; records the span tree
        ``rewrite`` > ``prepare``/``enumerate_mappings``/``candidate`` >
        ``chase``/``compose``/``equivalence``.
    budget:
        Optional :class:`repro.obs.Budget`.  Expiry anywhere in the
        pipeline stops the search; the rewritings found so far are
        returned with ``stats.truncated=True`` and ``stop_reason`` set.
    explain:
        Optional :class:`~repro.rewriting.explain.Explanation`; the
        search fills it with per-mapping and per-candidate decisions
        (EXPLAIN provenance).  Session memo hits replay the cached
        explanation, tagged ``memo="hit"``; a memoized result stored
        *without* an explanation is recomputed when one is requested.
    session:
        Optional :class:`repro.rewriting.session.RewriteSession` created
        for these *views* and *constraints*.  The search then reuses the
        session's prepared views and memo tables; complete results are
        memoized per (query, :class:`SearchFlags`) and served on repeat
        calls.  Prefer :meth:`RewriteSession.rewrite`, which
        supplies the matching views/constraints automatically.  Without
        one the run uses a one-shot session of its own (``memo_size=0``:
        it prepares each view once and memoizes nothing).

    When the session has a metrics registry, the run's counters are
    recorded there under ``rewrite.*`` when it finishes, and each
    ``rewrite`` / ``chase`` / ``compose`` / ``equivalence`` span the run
    opened is observed in the ``phase.seconds{phase=...}`` latency
    histogram (on a private tracer when *tracer* is off).  Step 1A's
    pre-filters (:meth:`_Search.view_atoms`) are sound, so they never
    change the rewriting set.
    """
    if session is None:
        session = RewriteSession(views, constraints, memo_size=0)
    metrics = session.metrics
    tracer = tracer or NULL_TRACER
    if metrics is not None and not tracer.enabled:
        tracer = Tracer()
    first_span = len(tracer.spans)
    flags = SearchFlags(heuristic=heuristic, total_only=total_only,
                        prune_subsumed=prune_subsumed,
                        first_only=first_only,
                        max_candidates=max_candidates)
    try:
        with tracer.span("rewrite", query=query.name or str(query.head),
                         views=",".join(sorted(session.views))) as span:
            memoized = session.lookup_result(
                query, flags, need_explanation=explain is not None)
            if memoized is not None:
                memo_result, memo_explanation = memoized
                span.set("memo", "hit")
                span.add("rewritings", memo_result.stats.rewritings)
                result = RewriteResult(list(memo_result.rewritings),
                                       replace(memo_result.stats))
                if explain is not None:
                    explain.replay(memo_explanation)
            else:
                if explain is not None:
                    explain.begin(query, session.views, session.constraints,
                                  flags._asdict())
                search = _Search(session, flags, tracer=tracer,
                                 budget=budget, explain=explain)
                result = search.result
                if not search.run(query):
                    raise ChaseContradictionError(
                        "the query body contradicts the object-id key "
                        "dependency")
                if result.stats.truncated:
                    span.set("truncated", result.stats.stop_reason)
                span.add("candidates_tested", result.stats.candidates_tested)
                span.add("rewritings", result.stats.rewritings)
                if explain is not None:
                    explain.finish(result)
                session.store_result(query, flags, result, explain)
    finally:
        if metrics is not None:
            for record in tracer.spans[first_span:]:
                if record.name in _PHASES:
                    metrics.observe(PHASE_SECONDS, record.duration,
                                    labels={"phase": record.name})
    if metrics is not None:
        _record_metrics(metrics, result.stats)
    return result


class _Search:
    """The state one Section 3.4 search shares across its steps.

    A search is built only when the session's result memo misses.  It
    holds the session, tracer, budget, explanation and flags of the
    run, the result its candidates accumulate on (not a return value,
    so a :class:`~repro.errors.BudgetExceededError` unwinding from any
    depth leaves the rewritings found so far intact), and the Step 2
    target side that :meth:`prepare` computes once for every candidate:
    the chased query ``target``, its ``paths``, the
    :class:`~repro.rewriting.witness.Step2Target` ``step2`` and the
    graph ``components`` of the query side of the Theorem 4.3 test.

    The contained search (:mod:`repro.rewriting.contained`) runs the
    same loop, overriding :meth:`view_atoms`, :meth:`accept`,
    :meth:`done` and :meth:`finish`.
    """

    def __init__(self, session: RewriteSession,
                 flags: SearchFlags = SearchFlags(), *, tracer=None,
                 budget=None, explain=None) -> None:
        self.session = session
        self.flags = flags
        self.tracer = tracer or NULL_TRACER
        self.budget = budget
        self.explain = explain
        self.result = RewriteResult()
        self.stats = self.result.stats

    def prepare(self, query: Query) -> bool:
        """Chase *query* into the Step 2 target side.

        False when its body contradicts the object-id key dependency.
        The query is chased once, the way the Theorem 4.3 test prepares
        a program, so its components are those the test would compute.
        """
        try:
            self.target = self.session.chase(query, budget=self.budget)
        except ChaseContradictionError:
            return False
        self.paths = query_paths(self.target)
        self.step2 = Step2Target(self.target)
        self.components = decompose_program([self.target])
        return True

    def run(self, query: Query) -> bool:
        """The search: Step 1A, then Steps 1B, 1C and 2 per candidate,
        in order of size, then :meth:`finish`.

        False when the query body contradicts the object-id key
        dependency.  A budget expiry anywhere stops the run, leaving
        the rewritings kept so far and ``stats.truncated`` set.
        """
        heuristic, _, prune_subsumed, _, max_candidates = self.flags
        explain, stats = self.explain, self.stats
        try:
            with self.tracer.span("prepare"):
                if not self.prepare(query):
                    return False
            target, target_paths = self.target, self.paths
            atoms = self.atoms()
            k = len(target_paths)
            all_indices = frozenset(range(k))
            accepted_bodies: list[frozenset[Condition]] = []
            for combo in chain.from_iterable(
                    combinations(range(len(atoms)), size)
                    for size in range(1, k + 1)):
                if self.budget is not None:
                    self.budget.tick()
                chosen = [atoms[i] for i in combo]
                if not any(atom.is_view for atom in chosen):
                    continue
                stats.candidates_enumerated += 1
                if heuristic:
                    covered = frozenset().union(
                        *(atom.covers for atom in chosen))
                    if covered != all_indices:
                        stats.candidates_pruned_by_heuristic += 1
                        if explain is not None:
                            uncovered = sorted(all_indices - covered)
                            missing = "; ".join(
                                str(path_to_condition(target_paths[i]))
                                for i in uncovered)
                            self._record(
                                chosen, "pruned-heuristic",
                                f"covering heuristic: leaves query "
                                f"condition(s) {uncovered} uncovered "
                                f"({missing})",
                                {"uncovered": str(uncovered)})
                        continue
                body = tuple(atom.condition for atom in chosen)
                candidate = Query(target.head, body, name=query.name)
                if not is_safe(candidate):
                    stats.candidates_pruned_unsafe += 1
                    self._record(chosen, "pruned-unsafe",
                                 "candidate is unsafe: a head variable is "
                                 "not bound by the body")
                    continue
                if prune_subsumed and any(
                        prior <= frozenset(body)
                        for prior in accepted_bodies):
                    stats.candidates_pruned_subsumed += 1
                    self._record(chosen, "pruned-subsumed",
                                 "body extends an already-accepted "
                                 "rewriting (trivial rewriting)")
                    continue
                if (max_candidates is not None
                        and stats.candidates_tested >= max_candidates):
                    stats.truncated = True
                    stats.stop_reason = "max_candidates"
                    self._record(chosen, "skipped-max-candidates",
                                 f"candidate cap of {max_candidates} "
                                 "reached; search stopped")
                    break
                stats.candidates_tested += 1
                with self.tracer.span("candidate",
                                      index=stats.candidates_tested - 1,
                                      conditions=len(body)) as span:
                    accepted, verdict, reason, detail = \
                        self.test_candidate(candidate, chosen)
                    span.set("accepted", accepted is not None)
                    if explain is not None:
                        span.set("verdict", verdict)
                        self._record(chosen, verdict, reason, detail)
                if accepted is not None:
                    accepted_bodies.append(frozenset(body))
                    self.result.rewritings.append(accepted)
                    stats.rewritings += 1
                    if self.done(accepted):
                        break
            self.finish()
        except BudgetExceededError as exc:
            stats.truncated = True
            stats.stop_reason = exc.reason or "budget"
        return True

    def done(self, rewriting: Rewriting) -> bool:
        """The stop rule, asked after each accepted *rewriting*."""
        return self.flags.first_only

    def finish(self) -> None:
        """Runs after the loop; every equivalent rewriting is kept."""

    def atoms(self) -> list[CandidateAtom]:
        """Steps 1A + 1B's building blocks: the view atoms of the
        target, then (unless ``total_only``) its own conditions, with
        equal conditions merged."""
        explain, stats = self.explain, self.stats
        atoms = self.view_atoms()
        stats.mappings = len(atoms)
        if not self.flags.total_only:
            atoms.extend(
                CandidateAtom(path_to_condition(path), frozenset([i]), None)
                for i, path in enumerate(self.paths))
        # Two mappings can instantiate the same θ(head(Vi)).  A candidate
        # body is a set of conditions, so equal-condition atoms merge,
        # covering what either covered: every body stays reachable, at
        # a smaller size, and none is enumerated twice.
        merged: dict[Condition, CandidateAtom] = {}
        counts: dict[Condition, int] = {}
        for atom in atoms:
            existing = merged.setdefault(atom.condition, atom)
            if existing is not atom:
                merged[atom.condition] = replace(
                    existing, covers=existing.covers | atom.covers)
                stats.candidates_pruned_duplicate += 1
            counts[atom.condition] = counts.get(atom.condition, 0) + 1
        if explain is not None:
            for atom in merged.values():
                explain.atom(atom.condition, atom.view, atom.covers,
                             counts[atom.condition])
        return list(merged.values())

    def view_atoms(self) -> list[CandidateAtom]:
        """Step 1A: the mappings from each view body into the target
        (Lemma 5.1), as view atoms.

        Each mapping ``θ`` yields the condition ``θ(head(Vi))@Vi``
        together with the set of target conditions it covers.  Views
        come prepared (chased) from the session, once per session.  The
        explanation receives one event per mapping found, or the
        refutation obstacle for views with none.  A view whose body
        contradicts the oid key dependency is empty on every database,
        so no sound rewriting uses it: it is skipped, refuted by the
        contradiction.

        Views whose label signature in the session's
        :class:`~repro.analysis.viewset.LabelSignatureIndex` provably has
        no containment mapping into the chased target (a sound necessary
        condition, see :mod:`repro.analysis.viewset.signature`) are
        skipped before they are prepared, counted on
        ``views_pruned_signature`` and recorded as ``pruned-signature``
        events.  One :class:`~repro.rewriting.index.PathIndex` over the
        target's paths is shared by every per-view mapping search; the
        target pairs it lets through / proves impossible are tallied on
        ``index_hits`` / ``index_skips``.
        """
        from ..analysis.viewset.signature import query_profile
        session, tracer, budget = self.session, self.tracer, self.budget
        explain, stats, target = self.explain, self.stats, self.target
        signature_index = session.signature_index(tracer=tracer,
                                                  budget=budget)
        profile = query_profile(target)
        atoms: list[CandidateAtom] = []
        target_index = PathIndex(self.paths)
        index_stats = IndexStats()
        for name in sorted(session.views):
            signature = signature_index.signature(name)
            if (signature is not None
                    and not signature.admissible_for(profile)):
                stats.views_pruned_signature += 1
                if explain is not None:
                    explain.view_pruned(name, signature.missing_from(profile))
                continue
            with tracer.span("enumerate_mappings", view=name) as span:
                try:
                    view = session.prepared_view(name, tracer=tracer,
                                                 budget=budget)
                except ChaseContradictionError as exc:
                    span.set("refuted", True)
                    if explain is not None:
                        explain.mapping_refuted(
                            name, f"the view body is unsatisfiable: {exc}")
                    continue
                found = 0
                mapping: ContainmentMapping
                for mapping in find_mappings(view, target, budget=budget,
                                             index=target_index,
                                             index_stats=index_stats):
                    instantiated = view.head.substitute(mapping.subst)
                    atoms.append(CandidateAtom(
                        Condition(instantiated, name), mapping.covers, name,
                        mapping.subst))
                    span.add("mappings")
                    found += 1
                    if explain is not None:
                        explain.mapping_found(name, mapping.subst,
                                              mapping.covers)
                if explain is not None and not found:
                    explain.mapping_refuted(name, mapping_obstacle(
                        query_paths(view), self.paths))
                    span.set("refuted", True)
        stats.index_hits += index_stats.hits
        stats.index_skips += index_stats.skips
        return atoms

    def _record(self, chosen, verdict, reason=None, detail=None) -> None:
        """The EXPLAIN event of the candidate enumerated last."""
        if self.explain is not None:
            self.explain.candidate(
                self.stats.candidates_enumerated - 1,
                [atom.condition for atom in chosen],
                sorted({atom.view for atom in chosen if atom.is_view}),
                verdict, reason, detail)

    def test_candidate(self, candidate: Query,
                       atoms: Sequence[CandidateAtom] = ()
                       ) -> tuple[Rewriting | None, str, str | None,
                                  dict | None]:
        """Steps 1C + 2 for one candidate, against the prepared target.

        Returns ``(rewriting_or_None, verdict, reason, detail)``.  The
        Step 1A *atoms* the candidate was built from give Step 2 its
        witness (see :meth:`composition`), which :meth:`accept` gets.
        """
        session, tracer, budget = self.session, self.tracer, self.budget
        try:
            candidate = session.chase(candidate, tracer=tracer, budget=budget)
        except (ChaseContradictionError, CyclicPatternError) as exc:
            self.stats.candidates_failed_chase += 1
            return None, "failed-chase", str(exc), None
        try:
            rules, witness = self.composition(candidate, atoms)
        except (CompositionError, CyclicPatternError) as exc:
            self.stats.candidates_failed_composition += 1
            return None, "failed-composition", str(exc), None
        self.stats.composition_rules += len(rules)
        return self.accept(candidate, rules, witness)

    def views_used(self, candidate: Query) -> frozenset[str]:
        return frozenset(c.source for c in candidate.body
                         if c.source in self.session.views)

    def accept(self, candidate: Query, rules: list[Query],
               witness: Step2Witness | None
               ) -> tuple[Rewriting | None, str, str | None, dict | None]:
        """Step 2: the composition *rules* must be equivalent to the
        query.  A failure is diagnosed only under EXPLAIN; the accepted
        rewriting keeps the chased rules unminimized."""
        if not self._equivalent(decompose_program(rules), witness):
            reason, detail = self._equivalence_failure_reason(rules)
            return None, "failed-equivalence", reason, detail
        rewriting = Rewriting(candidate, rules, self.views_used(candidate))
        return (rewriting, "accepted",
                f"composition is equivalent to the query "
                f"({len(rules)} composition rule(s))"
                if self.explain is not None else None, None)

    def composition(self, candidate: Query,
                    atoms: Sequence[CandidateAtom] = ()
                    ) -> tuple[list[Query], Step2Witness | None]:
        """Step 2's left side: the composition of the chased *candidate*.

        Returns the composition rules, each chased once (contradictory
        rules drop out), and, given the Step 1A *atoms* the candidate
        was built from, the
        :class:`~repro.rewriting.witness.Step2Witness` for its
        query ⊆ composition half (else None).  Raises
        :class:`~repro.errors.CompositionError` as :func:`compose` does,
        and :class:`~repro.errors.CyclicPatternError` for a cyclic rule,
        which rejects the whole candidate: without the rule, a smaller
        union could pass a containment test unsoundly.
        """
        session, budget = self.session, self.budget
        provenance: list = []
        composed = compose(candidate, session.views, tracer=self.tracer,
                           budget=budget, provenance=provenance)
        rules: list[Query] = []
        origins: list = []
        for rule, origin in zip(composed, provenance):
            try:
                rules.append(session.chase(rule, budget=budget))
            except ChaseContradictionError:
                continue  # empty on every legal database: contributes nothing
            origins.append(origin)
        return rules, (Step2Witness(self.step2, rules, origins, candidate,
                                    atoms) if atoms else None)

    def _equivalent(self, components, witness) -> bool:
        """Step 2's Theorem 4.3 test of a composition's *components*
        against the target's.

        composition ⊆ query is searched first; when it holds,
        query ⊆ composition is proved from *witness* (a
        :class:`~repro.rewriting.witness.Step2Witness`, or None), and
        searched only when the proof fails.  The ``equivalence`` span
        records the outcome as ``witness=hit|fallback``.
        """
        budget = self.budget
        with self.tracer.span("equivalence") as span:
            span.add("components", len(components) + len(self.components))
            outcome = components_subsumed(components, self.components,
                                          budget=budget)
            if outcome:
                proved = witness is not None and witness.holds(budget=budget)
                if witness is not None:
                    span.set("witness", "hit" if proved else "fallback")
                outcome = proved or components_subsumed(
                    self.components, components, budget=budget)
            span.set("equivalent", outcome)
            return outcome

    def _equivalence_failure_reason(self, composed
                                    ) -> tuple[str | None, dict | None]:
        """Name the graph component on which the Step 2 test failed.

        The report quotes a composition component, so it is computed
        over the minimized rules: the core names the failing condition
        without the redundant view-body copies.  Only an EXPLAIN run
        that rejects a candidate pays for the minimization.
        """
        if self.explain is None:
            return None, None
        if not composed:
            return ("the composition is empty: the candidate is "
                    "unsatisfiable against the view definitions", None)
        constraints, budget = self.session.constraints, self.budget
        core = [minimize(rule, budget=budget) for rule in
                prepare_program(composed, constraints, budget=budget)]
        obstacle = equivalence_obstacle(core, [self.target], constraints,
                                        budget=budget)
        if obstacle is None:  # diagnostic re-run disagreed; report plainly
            return "composition is not equivalent to the query", None
        kind, component = obstacle["component_kind"], obstacle["component"]
        if obstacle["unmapped_side"] == "left":
            direction = "composition-into-query"
            reason = (f"the composition's {kind}-rule component "
                      f"[{component}] has no containment mapping from any "
                      f"query component (composition ⊄ query)")
        else:
            direction = "query-into-composition"
            reason = (f"the query's {kind}-rule component [{component}] "
                      f"has no containment mapping from any composition "
                      f"component (query ⊄ composition)")
        return reason, {"direction": direction, "component_kind": kind,
                        "component": component}


def _record_metrics(metrics, stats: RewriteStats) -> None:
    for name, value in stats.to_json().items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        metrics.increment(f"rewrite.{name}", value)
    metrics.increment("rewrite.runs")
    # The ISSUE-facing name for the signature pre-filter's work saved;
    # rewrite.views_pruned_signature above is the raw stats-field dump.
    metrics.increment("rewrite.pruned.signature",
                      stats.views_pruned_signature)
    # Path-index effectiveness, same naming convention.
    metrics.increment("rewrite.index.hits", stats.index_hits)
    metrics.increment("rewrite.index.skips", stats.index_skips)
    if stats.truncated:
        metrics.increment("rewrite.truncated_runs")
    if stats.stop_reason is not None:
        metrics.increment(f"rewrite.stopped.{stats.stop_reason}")


def is_rewriting(candidate: Query, query: Query,
                 views: Union[Mapping[str, Query], Sequence[Query]],
                 constraints: StructuralConstraints | None = None) -> bool:
    """Check one hand-written candidate: the search's own Steps 1C + 2,
    on a one-shot session."""
    search = _Search(RewriteSession(views, constraints, memo_size=0))
    return search.prepare(query) \
        and search.test_candidate(candidate)[0] is not None
