"""Substitutions: finite mappings from variables to terms.

A :class:`Substitution` is immutable; ``bind`` returns a new substitution.
Application is *idempotent* after :meth:`Substitution.normalized` -- the
right-hand sides contain no variable that is itself bound -- which is the
form produced by unification (see :mod:`repro.logic.unify`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .terms import Term, Variable


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`."""

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Variable, Term] | None = None) -> None:
        self._mapping: dict[Variable, Term] = dict(mapping or {})

    # -- mapping protocol --------------------------------------------------

    def __contains__(self, v: Variable) -> bool:
        return v in self._mapping

    def __getitem__(self, v: Variable) -> Term:
        return self._mapping[v]

    def get(self, v: Variable, default: Term | None = None) -> Term | None:
        return self._mapping.get(v, default)

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def items(self):
        return self._mapping.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._mapping == other._mapping

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {t}" for v, t in sorted(
            self._mapping.items(), key=lambda item: item[0].name))
        return f"[{inner}]"

    # -- construction ------------------------------------------------------

    def bind(self, v: Variable, t: Term) -> "Substitution":
        """Return a new substitution with ``v -> t`` added.

        The new binding is applied to existing right-hand sides so the
        result stays normalized when the inputs were.
        """
        updated = {
            w: rhs.substitute({v: t}) for w, rhs in self._mapping.items()
        }
        updated[v] = t
        return Substitution(updated)

    def extend(self, v: Variable, t: Term) -> "Substitution":
        """Return a new substitution with ``v -> t`` added, leaving the
        right-hand sides as they are.

        Equal to :meth:`bind` whenever *v* occurs in no right-hand side,
        as when every right-hand side is ground (TSL evaluation binds
        variables to database terms only).
        """
        extended = Substitution.__new__(Substitution)
        extended._mapping = {**self._mapping, v: t}
        return extended

    def compose(self, other: "Substitution") -> "Substitution":
        """Return the composition ``self`` then ``other``.

        Applying the result equals applying ``self`` first and ``other``
        second: ``(self.compose(other))(t) == other(self(t))``.
        """
        mapping: dict[Variable, Term] = {
            v: t.substitute(other._mapping) for v, t in self._mapping.items()
        }
        for v, t in other._mapping.items():
            mapping.setdefault(v, t)
        return Substitution(mapping)

    # -- application -------------------------------------------------------

    def apply(self, term: Term) -> Term:
        """Apply the substitution to *term*."""
        return term.substitute(self._mapping)

    def as_dict(self) -> dict[Variable, Term]:
        """Return a copy of the underlying mapping."""
        return dict(self._mapping)


EMPTY_SUBSTITUTION = Substitution()
