"""Label signatures: a sound necessary condition for containment mappings.

Step 1A's containment mappings are *one-way* matches
(:mod:`repro.rewriting.mappings`): only view-side variables are bound,
so every syntactic constant in a view body path must literally reappear
in the query path it maps into --

* a constant **step label** in the view matches only an identical
  constant label at the same depth of some query path;
* a constant **leaf value** matches only an identical constant leaf
  (the set-mapping absorption of Example 3.2 explicitly refuses
  constant leaves);
* a condition's **source** must equal the target condition's source
  (:func:`~repro.rewriting.mappings.map_path_into` checks it first).

Consequently, if a view body mentions a constant label, leaf, or source
the query never mentions, *no* containment mapping from the view into
the query exists -- the view is irrelevant to the query (Lemma 5.1) and
Step 1A can skip it without enumerating anything.  That is the
:class:`ViewSignature` / :class:`QueryProfile` subset test below, and
the :class:`LabelSignatureIndex` is the per-view-set artifact the
analyzer builds and the rewriter consumes before Step 1A.

Signatures must be computed on the *chased* (prepared) view and checked
against the *chased* target query: the chase's label inference
(Section 3.3) rewrites both sides consistently, whereas a raw view may
lose or gain constants during chasing.

This module depends only on the TSL AST and path machinery, so the
rewriter can import it without dragging the analysis passes (and their
rewriting imports) into a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ...logic.terms import Constant
from ...tsl.ast import Query
from ...tsl.normalize import query_paths

__all__ = ["ViewSignature", "QueryProfile", "view_signature",
           "query_profile", "LabelSignatureIndex"]


@dataclass(frozen=True, slots=True)
class QueryProfile:
    """What a target query *offers*: its constant labels/leaves/sources."""

    labels: frozenset[str]
    leaves: frozenset[str]
    sources: frozenset[str]


@dataclass(frozen=True, slots=True)
class ViewSignature:
    """What a view body *requires* of any query it can map into."""

    labels: frozenset[str]
    leaves: frozenset[str]
    sources: frozenset[str]

    def admissible_for(self, profile: QueryProfile) -> bool:
        """False only when no containment mapping can possibly exist."""
        return (self.labels <= profile.labels
                and self.leaves <= profile.leaves
                and self.sources <= profile.sources)

    def missing_from(self, profile: QueryProfile) -> str:
        """Human-readable account of the failed subset test."""
        parts = []
        for kind, required, offered in (
                ("label", self.labels, profile.labels),
                ("leaf value", self.leaves, profile.leaves),
                ("source", self.sources, profile.sources)):
            missing = sorted(required - offered)
            if missing:
                noun = kind if len(missing) == 1 else kind + "s"
                parts.append(f"{noun} {', '.join(missing)}")
        if not parts:
            return "signature is admissible"
        return ("the query never mentions the view body's "
                + "; ".join(parts))

    def to_json(self) -> dict:
        return {"labels": sorted(self.labels),
                "leaves": sorted(self.leaves),
                "sources": sorted(self.sources)}


def _signature_parts(query: Query) -> tuple[set[str], set[str], set[str]]:
    labels: set[str] = set()
    leaves: set[str] = set()
    sources: set[str] = set()
    for path in query_paths(query):
        sources.add(path.source)
        for _oid, label in path.steps:
            if isinstance(label, Constant):
                labels.add(label.value)
        if isinstance(path.leaf, Constant):
            leaves.add(path.leaf.value)
    return labels, leaves, sources


def view_signature(view: Query) -> ViewSignature:
    """The signature of a (chased) view body."""
    labels, leaves, sources = _signature_parts(view)
    return ViewSignature(frozenset(labels), frozenset(leaves),
                         frozenset(sources))


def query_profile(query: Query) -> QueryProfile:
    """The profile of a (chased) target query body."""
    labels, leaves, sources = _signature_parts(query)
    return QueryProfile(frozenset(labels), frozenset(leaves),
                        frozenset(sources))


class LabelSignatureIndex:
    """Per-view signatures plus the label -> views inverted index.

    ``signatures`` maps each view name to the :class:`ViewSignature` of
    its *chased* body.  The inverted index answers "which views require
    this label": a view appears under every constant label its body
    demands, so a query mentioning none of a view's labels can skip it.
    """

    __slots__ = ("signatures", "_by_label")

    def __init__(self, signatures: Mapping[str, ViewSignature]) -> None:
        self.signatures: dict[str, ViewSignature] = dict(signatures)
        by_label: dict[str, set[str]] = {}
        for name, sig in self.signatures.items():
            for label in sig.labels:
                by_label.setdefault(label, set()).add(name)
        self._by_label = {label: frozenset(names)
                          for label, names in by_label.items()}

    @classmethod
    def from_views(cls, views: Mapping[str, Query], constraints=None, *,
                   budget=None) -> "LabelSignatureIndex":
        """Build the index by chasing every view under *constraints*.

        Views whose body contradicts the object-id key dependency are
        left out of the index (they are unsatisfiable; the analyzer
        reports them separately and the rewriter never prunes a view it
        has no signature for).
        """
        from ...errors import ChaseContradictionError
        from ...rewriting.chase import chase
        signatures: dict[str, ViewSignature] = {}
        for name in sorted(views):
            try:
                prepared = chase(views[name], constraints, budget=budget)
            except ChaseContradictionError:
                continue
            signatures[name] = view_signature(prepared)
        return cls(signatures)

    def signature(self, name: str) -> ViewSignature | None:
        """The signature of view *name*, or None when unknown."""
        return self.signatures.get(name)

    def admissible(self, name: str, profile: QueryProfile) -> bool:
        """False only when view *name* provably has no mapping.

        Unknown views are admissible -- the prefilter never prunes a
        view it has no signature for.
        """
        sig = self.signatures.get(name)
        return sig is None or sig.admissible_for(profile)

    def admissible_views(self, profile: QueryProfile) -> list[str]:
        """The view names that survive the prefilter, sorted."""
        return [name for name in sorted(self.signatures)
                if self.admissible(name, profile)]

    def labels(self) -> list[str]:
        """Every constant label some view requires, sorted."""
        return sorted(self._by_label)

    def to_json(self) -> dict:
        return {
            "views": {name: sig.to_json()
                      for name, sig in sorted(self.signatures.items())},
            "by_label": {label: sorted(views)
                         for label, views in sorted(self._by_label.items())},
        }

    def __len__(self) -> int:
        return len(self.signatures)
