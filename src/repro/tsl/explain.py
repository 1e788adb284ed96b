"""Explain TSL evaluation: the satisfying assignments, as a table.

The meaning of a query body is its set of assignments (Section 2); this
module surfaces them for debugging -- which source objects matched, what
each variable bound to, and which head objects each assignment produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.subst import Substitution
from ..logic.terms import SetValue, Variable
from ..oem.model import OemDatabase
from .ast import Query
from .evaluator import Sources, answer_from_assignments, body_assignments
from .printer import print_query


@dataclass
class Explanation:
    """The assignments behind one evaluation, plus the answer."""

    query: Query
    assignments: list[Substitution]
    answer: OemDatabase

    @property
    def variables(self) -> list[Variable]:
        names: set[Variable] = set()
        for assignment in self.assignments:
            names.update(assignment)
        return sorted(names, key=lambda v: v.name)

    def rows(self) -> list[dict[str, str]]:
        """One row per assignment, variable name -> rendered binding."""
        out = []
        for assignment in self.assignments:
            row = {}
            for variable in self.variables:
                bound = assignment.get(variable)
                if bound is None:
                    row[variable.name] = "-"
                elif isinstance(bound, SetValue):
                    members = ", ".join(sorted(str(m)
                                               for m in bound.members))
                    row[variable.name] = "{" + members + "}"
                else:
                    row[variable.name] = str(bound)
            out.append(row)
        return out

    def render(self) -> str:
        """A fixed-width table of the assignments."""
        lines = [print_query(self.query), ""]
        variables = [v.name for v in self.variables]
        if not variables or not self.assignments:
            lines.append("(no satisfying assignments)")
            return "\n".join(lines)
        rows = self.rows()
        widths = {name: max(len(name),
                            *(len(row[name]) for row in rows))
                  for name in variables}
        header = "  ".join(name.ljust(widths[name]) for name in variables)
        lines.append(header)
        lines.append("  ".join("-" * widths[name] for name in variables))
        for row in rows:
            lines.append("  ".join(row[name].ljust(widths[name])
                                   for name in variables))
        lines.append("")
        lines.append(f"{len(rows)} assignment(s), "
                     f"{len(self.answer.roots)} answer root(s)")
        return "\n".join(lines)


def explain(query: Query, sources: OemDatabase | Sources) -> Explanation:
    """Evaluate *query* and return its assignments alongside the answer."""
    assignments = body_assignments(query, sources)
    answer = answer_from_assignments(query, assignments, sources)
    return Explanation(query, assignments, answer)
