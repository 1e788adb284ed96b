"""Plan execution: ship, collect, consolidate (Figure 2's lower half).

"Then the individual query results ... are collected, the information
about each of them is appropriately consolidated into one entity by the
mediator and the combined result is presented to the user."  Shipping is
a wrapper execution per capability instance; consolidation is TSL's
fusion semantics, which :func:`repro.tsl.evaluator.evaluate_program`
already implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..oem.model import OemDatabase
from ..tsl.evaluator import evaluate_program
from .cbr import Plan
from .wrapper import Wrapper


@dataclass
class ExecutionReport:
    """What one (multi-rule) execution did."""

    answer: OemDatabase
    source_queries: int = 0
    objects_transferred: int = 0
    plans: list[Plan] = field(default_factory=list)


def execute_plans(plans: list[Plan], wrappers: dict[str, Wrapper],
                  answer_name: str = "answer") -> ExecutionReport:
    """Execute one plan per rule and fuse the results.

    A user query over an integrated view expands (by composition) into a
    union of rules, each planned separately; their results fuse into a
    single answer, exactly as Section 2's semantics prescribe.
    """
    materialized: dict[str, OemDatabase] = {}
    source_queries = 0
    objects = 0
    for plan in plans:
        for name, capability in sorted(plan.capabilities.items()):
            if name in materialized:
                continue  # shared capability instance: fetch once
            source_name = next(iter(capability.query.sources()))
            result = wrappers[source_name].execute(capability)
            materialized[name] = result
            source_queries += 1
            objects += result.stats()["objects"]
    answer = evaluate_program([plan.query for plan in plans], materialized,
                              answer_name=answer_name)
    return ExecutionReport(answer=answer, source_queries=source_queries,
                           objects_transferred=objects, plans=list(plans))
