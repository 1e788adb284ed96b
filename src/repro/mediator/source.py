"""Information sources, as the mediator sees them (Figure 1).

A :class:`Source` bundles the source's OEM data with the capability views
its interface supports.  In the real TSIMMIS system the data lives behind
an autonomous interface; here it is in-process, which exercises the
identical rewriting code path -- the rewriter "only needs the query and
the view statements, it does not need to examine the source data".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MediatorError
from ..oem.model import OemDatabase
from .capabilities import CapabilityView


@dataclass
class Source:
    """A named source: its data and its declared query capabilities."""

    name: str
    db: OemDatabase
    capabilities: list[CapabilityView] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.db.name != self.name:
            raise MediatorError(
                f"source {self.name!r} wraps a database named "
                f"{self.db.name!r}; names must agree so TSL conditions "
                "resolve")
        for capability in self.capabilities:
            foreign = capability.sources() - {self.name}
            if foreign:
                raise MediatorError(
                    f"capability {capability.name} of source {self.name} "
                    f"references other sources: {sorted(foreign)}")

    def add_capability(self, capability: CapabilityView) -> None:
        foreign = capability.sources() - {self.name}
        if foreign:
            raise MediatorError(
                f"capability {capability.name} references other sources: "
                f"{sorted(foreign)}")
        self.capabilities.append(capability)

    def capability_named(self, name: str) -> CapabilityView:
        for capability in self.capabilities:
            if capability.name == name:
                return capability
        raise MediatorError(
            f"source {self.name} has no capability {name!r}")
