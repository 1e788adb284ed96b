"""TSIMMIS-style mediation substrate (Figures 1-2; Section 1; [25])."""

from .capabilities import CapabilityView, PlainCapability, parameters_of
from .source import Source
from .wrapper import NativeQuery, Wrapper, WrapperStats, translate_to_native
from .cost import CostModel
from .cbr import Plan, instantiate_capabilities, plan_query
from .executor import ExecutionReport, execute_plans
from .mediator import Mediator

__all__ = [
    "CapabilityView", "PlainCapability", "parameters_of",
    "Source", "Wrapper", "WrapperStats", "NativeQuery",
    "translate_to_native",
    "CostModel",
    "Plan", "plan_query", "instantiate_capabilities",
    "ExecutionReport", "execute_plans",
    "Mediator",
]
