"""Whole-configuration analysis of a mediator's view set (TSL4xx).

Where :mod:`repro.analysis.analyzer` lints one query, this subpackage
analyzes the *configuration* the mediator will serve with: every
registered view, the optional DTD, and the capability records.  The
passes (see :mod:`.passes`) report views that are duplicates (TSL401),
subsumed (TSL402), unsatisfiable under the DTD (TSL403), unsafe
(TSL404), or unreachable through their capability binding patterns
(TSL405) -- the dead weight that bloats Step 1A's candidate search.

The same analysis also produces the :class:`.signature.LabelSignatureIndex`
the rewriter consumes as a sound pre-filter before Step 1A.

Exports resolve lazily (PEP 562): :mod:`repro.rewriting.rewriter`
imports :mod:`.signature` through this package, and an eager import of
:mod:`.passes` here would pull ``rewriting.contained`` -> ``rewriter``
back in as a cycle.
"""

from typing import Any

_EXPORTS = {
    "LabelSignatureIndex": ".signature",
    "QueryProfile": ".signature",
    "ViewSignature": ".signature",
    "query_profile": ".signature",
    "view_signature": ".signature",
    "ViewSetContext": ".analyzer",
    "analyze_view_set": ".analyzer",
    "MediatorConfig": ".config",
    "load_config": ".config",
    "Baseline": ".baseline",
    "fingerprint": ".baseline",
    "load_baseline": ".baseline",
    "write_baseline": ".baseline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(target, __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
