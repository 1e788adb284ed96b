"""Wrappers: the source-facing edge of the mediator (Figure 2).

"Each query is sent to a wrapper, where it is translated into the native
query language of the corresponding source."  The wrapper here translates
an instantiated capability into a simulated native form (a readable
filter-program string), executes it against the source's OEM data, and
keeps the transfer statistics the cost model and the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic.terms import Constant
from ..oem.model import OemDatabase
from ..tsl.ast import Query, SetPattern
from ..tsl.evaluator import evaluate
from ..tsl.normalize import query_paths
from .capabilities import PlainCapability
from .source import Source


@dataclass(frozen=True)
class NativeQuery:
    """The simulated native form of a shipped query."""

    source: str
    program: str

    def __str__(self) -> str:
        return f"[{self.source}] {self.program}"


@dataclass
class WrapperStats:
    """Per-wrapper transfer accounting."""

    queries_sent: int = 0
    objects_returned: int = 0
    atoms_scanned: int = 0


def translate_to_native(capability: PlainCapability) -> NativeQuery:
    """Render an instantiated capability as a native filter program.

    Purely cosmetic (the execution path evaluates TSL directly), but it
    makes plans explainable the way Figure 2's wrapper boxes are.
    """
    selections = []
    for path in query_paths(capability.query):
        labels = ".".join(str(label) for _, label in path.steps)
        if isinstance(path.leaf, SetPattern):
            selections.append(f"EXISTS {labels}")
        elif isinstance(path.leaf, Constant):
            selections.append(f"{labels} = {path.leaf.value!r}")
        else:
            selections.append(f"FETCH {labels}")
    source = next(iter(capability.query.sources()))
    return NativeQuery(source, " AND ".join(selections))


@dataclass
class Wrapper:
    """Executes instantiated capabilities against one source."""

    source: Source
    stats: WrapperStats = field(default_factory=WrapperStats)

    def execute(self, capability: PlainCapability) -> OemDatabase:
        """Run the capability's view over the source, as the source would."""
        self.stats.queries_sent += 1
        result = evaluate(capability.query, self.source.db,
                          answer_name=capability.name)
        report = result.stats()
        self.stats.objects_returned += report["objects"]
        self.stats.atoms_scanned += len(self.source.db)
        return result
