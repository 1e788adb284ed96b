"""The mediator facade (Figures 1 and 2).

A :class:`Mediator` integrates semistructured data from multiple sources
into virtual *integrated views*.  A user query addressed to an integrated
view is first expanded by composing it with the view definition (the same
composition machinery as the rewriting algorithm's Step 2A); each
resulting source-level rule is then handed to the Capability-Based
Rewriter, the cheapest plan per rule is executed through the wrappers,
and the collected results are fused into the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CapabilityError, MediatorError
from ..obs import NULL_TRACER, Tracer
from ..oem.model import OemDatabase
from ..rewriting.chase import StructuralConstraints
from ..rewriting.composition import compose
from ..rewriting.session import _MISS, MemoTable
from ..tsl.ast import Query
from ..tsl.parser import parse_query
from .cbr import Plan, plan_query
from .cost import CostModel
from .executor import ExecutionReport, execute_plans
from .source import Source
from .wrapper import Wrapper


@dataclass
class Mediator:
    """Integrates sources behind capability interfaces (Figure 1)."""

    sources: dict[str, Source] = field(default_factory=dict)
    integrated_views: dict[str, Query] = field(default_factory=dict)
    constraints: StructuralConstraints | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    tracer: Tracer | None = None
    metrics: object | None = None
    wrappers: dict[str, Wrapper] = field(init=False, default_factory=dict)
    _expansions: MemoTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, source in self.sources.items():
            if name != source.name:
                raise MediatorError(
                    f"source registered as {name!r} is named "
                    f"{source.name!r}")
            self.wrappers[name] = Wrapper(source)
        self._expansions = MemoTable("mediator.expand",
                                     metrics=self.metrics)

    # -- registration --------------------------------------------------------

    def add_source(self, source: Source) -> None:
        if source.name in self.sources:
            raise MediatorError(f"duplicate source {source.name!r}")
        self.sources[source.name] = source
        self.wrappers[source.name] = Wrapper(source)
        self._expansions.clear()

    def define_view(self, name: str, definition: Query | str) -> None:
        """Register an integrated view over the sources."""
        if isinstance(definition, str):
            definition = parse_query(definition, name=name)
        unknown = definition.sources() - set(self.sources)
        if unknown:
            raise MediatorError(
                f"integrated view {name!r} references unknown sources: "
                f"{sorted(unknown)}")
        self.integrated_views[name] = definition
        self._expansions.clear()

    # -- planning and answering ------------------------------------------------

    def expand(self, query: Query) -> list[Query]:
        """Expand references to integrated views into source-level rules.

        Expansions are memoized per query, like the rewrite session's
        result memo, and invalidated whenever a view or source is
        registered.
        """
        tracer = self.tracer or NULL_TRACER
        if not (query.sources() & set(self.integrated_views)):
            return [query]
        rules = self._expansions.get(query)
        if rules is not _MISS:
            return list(rules)
        rules = compose(query, self.integrated_views, tracer=tracer)
        if not rules:
            raise MediatorError(
                "the query is unsatisfiable against the integrated views")
        self._expansions.put(query, tuple(rules))
        return rules

    def plan(self, query: Query | str) -> list[Plan]:
        """One cheapest plan per expanded rule."""
        tracer = self.tracer or NULL_TRACER
        if isinstance(query, str):
            query = parse_query(query)
        with tracer.span("mediator.plan",
                         query=query.name or str(query.head)) as span:
            plans: list[Plan] = []
            for rule in self.expand(query):
                candidates = plan_query(rule, self.sources,
                                        self.constraints, self.cost_model)
                plans.append(candidates[0])
            span.add("plans", len(plans))
            return plans

    def answer(self, query: Query | str,
               answer_name: str = "answer") -> OemDatabase:
        """Plan, execute, and consolidate: the full Figure 2 pipeline."""
        return self.answer_with_report(query, answer_name).answer

    def answer_with_report(self, query: Query | str,
                           answer_name: str = "answer") -> ExecutionReport:
        tracer = self.tracer or NULL_TRACER
        with tracer.span("mediator.answer") as span:
            plans = self.plan(query)
            with tracer.span("mediator.execute"):
                report = execute_plans(plans, self.wrappers, answer_name)
            span.add("objects", report.answer.stats()["objects"])
            return report

    def explain(self, query: Query | str) -> str:
        """Human-readable account of the chosen plans."""
        try:
            plans = self.plan(query)
        except CapabilityError as exc:
            return f"unanswerable: {exc}"
        return "\n".join(plan.describe() for plan in plans)
