"""Materialized views over the repository store.

"Materialized views and cached queries were the main original motivation
for relational query rewriting, and we believe they are as important for
semistructured databases."  A materialized view is a named TSL view whose
result is kept evaluated; the view manager tracks freshness against the
store version and re-evaluates lazily.

Rewriting reads only the definitions, so the manager keeps one
:class:`~repro.rewriting.session.RewriteSession` over them: each
definition is chased once, and a repeated query is served from the
session's result memo.  :meth:`ViewManager.define` and
:meth:`ViewManager.drop` keep it in step through
:meth:`~repro.rewriting.session.RewriteSession.update_views`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RepositoryError
from ..oem.model import OemDatabase
from ..rewriting.chase import StructuralConstraints
from ..rewriting.session import RewriteSession
from ..tsl.ast import Query
from ..tsl.evaluator import evaluate
from ..tsl.parser import parse_query
from .store import Store


@dataclass
class MaterializedView:
    """One named view, its data, and the store version it reflects.

    ``labels`` memoizes the constant step labels of the definition for
    incremental maintenance (see :mod:`repro.storage.maintenance`);
    ``labels_known`` distinguishes "not computed" from the legitimate
    ``None`` meaning "has a label variable".
    """

    name: str
    definition: Query
    data: OemDatabase
    as_of_version: int
    labels: frozenset | None = field(default=None, repr=False)
    labels_known: bool = field(default=False, repr=False)


@dataclass
class ViewManager:
    """Defines, materializes, and refreshes views over one store."""

    store: Store
    views: dict[str, MaterializedView] = field(default_factory=dict)
    constraints: StructuralConstraints | None = None
    #: Optional :class:`~repro.obs.MetricsRegistry` for the session's
    #: ``rewrite.*``, ``cache.*`` and ``phase.seconds`` records.
    metrics: object | None = None
    #: The rewrite session over :meth:`definitions`.
    session: RewriteSession = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.session = RewriteSession(self.definitions(), self.constraints,
                                      metrics=self.metrics)

    def define(self, name: str, definition: Query | str) -> MaterializedView:
        if isinstance(definition, str):
            definition = parse_query(definition, name=name)
        if name in self.views:
            raise RepositoryError(f"view {name!r} already defined")
        foreign = definition.sources() - {self.store.name}
        if foreign:
            raise RepositoryError(
                f"view {name!r} references sources other than the store: "
                f"{sorted(foreign)}")
        view = MaterializedView(
            name, definition,
            evaluate(definition, self.store.db, answer_name=name),
            self.store.version)
        self.views[name] = view
        self.session.update_views(self.definitions())
        return view

    def drop(self, name: str) -> None:
        if name not in self.views:
            raise RepositoryError(f"no view named {name!r}")
        del self.views[name]
        self.session.update_views(self.definitions())

    def is_fresh(self, name: str) -> bool:
        return self.views[name].as_of_version == self.store.version

    def refresh(self, name: str) -> MaterializedView:
        """Re-evaluate a stale view (full recomputation, as in Lore)."""
        view = self.views.get(name)
        if view is None:
            raise RepositoryError(f"no view named {name!r}")
        if view.as_of_version != self.store.version:
            view.data = evaluate(view.definition, self.store.db,
                                 answer_name=name)
            view.as_of_version = self.store.version
        return view

    def fresh_views(self) -> dict[str, MaterializedView]:
        """All views, refreshed to the current store version."""
        return {name: self.refresh(name) for name in sorted(self.views)}

    def apply_update(self, touched: frozenset, version: int,
                     from_version: int | None = None) -> dict:
        """Incrementally maintain the views after a store update.

        A view whose definition provably cannot match any *touched*
        label is **patched**: retagged to the new store *version* with
        its materialization kept, skipping the full re-evaluation that
        :meth:`refresh` would pay.  Every other view is left stale and
        re-evaluates lazily on its next use (the Lore recomputation
        path).  See :mod:`repro.storage.maintenance` for why the label
        test is sound.

        Patching is only sound for a view that was *fresh before* this
        update -- an already-stale view missed earlier deltas, and
        retagging it would hide that.  *from_version* (the store
        version the update started from) enforces this; ``None`` trusts
        the caller to have kept every view fresh.
        """
        from ..storage.maintenance import may_overlap, statement_labels
        patched = stale = 0
        for view in self.views.values():
            if (from_version is not None
                    and view.as_of_version != from_version):
                stale += 1
                continue
            if not view.labels_known:
                view.labels = statement_labels(view.definition)
                view.labels_known = True
            if may_overlap(view.labels, touched):
                stale += 1
            else:
                view.as_of_version = version
                patched += 1
        return {"patched": patched, "stale": stale}

    def definitions(self) -> dict[str, Query]:
        return {name: view.definition
                for name, view in sorted(self.views.items())}
