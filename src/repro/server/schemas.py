"""Wire schemas for the rewrite service: request parsing + error model.

Every POST body is a JSON object; responses are JSON stamped with
``SERVE_SCHEMA_VERSION``.  Parsing is two-layered:

* **shape validation** -- field presence and JSON types.  Violations
  raise :class:`BadRequestError` with a plain message (HTTP 400).
* **TSL parsing** -- queries/views/DTD text go through the same
  parse + validate pipeline as the CLI, and syntax/validation failures
  are rendered through the shared :mod:`repro.analysis` diagnostic
  renderer (caret excerpt in ``message``, machine-readable
  ``diagnostics``), exactly the ``repro lint``/``rewrite`` error
  surface, over HTTP 400.

The request dataclasses carry *parsed* payloads (ASTs, constraint
objects, decoded databases); the HTTP layer never re-parses.  The
views and DTD of a request are parsed once per distinct text: the last
``CONFIG_CACHE_SIZE`` parsed configurations are kept with their session
key, so a new query over a known view set skips the view parse, the
TSL003 acyclicity check and the per-view canonical keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Mapping

from ..analysis import Diagnostic, Severity, render_text
from ..errors import ReproError, TslError
from ..oem.model import OemDatabase
from ..oem.serialize import database_from_json
from ..rewriting import StructuralConstraints, parse_dtd
from ..rewriting.canon import query_key
from ..rewriting.rewriter import SearchFlags
from ..tsl import parse_query, validate
from ..tsl.ast import Query
from ..tsl.validate import check_acyclic
from .pool import config_key

#: Bumped when a response payload shape changes incompatibly.
SERVE_SCHEMA_VERSION = 1

#: Diagnostic code under which bare syntax errors are reported (shared
#: with the CLI's lint report).
SYNTAX_CODE = "TSL000"

#: Distinct (views, DTD) texts whose parse is kept (``_config``).
CONFIG_CACHE_SIZE = 64


class BadRequestError(ReproError):
    """A request failed validation; maps to HTTP 400.

    ``diagnostics`` carries the structured findings when the failure
    came from TSL parsing/validation (empty for shape errors).
    """

    def __init__(self, message: str,
                 diagnostics: list[dict] | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.diagnostics = diagnostics or []

    def to_json(self) -> dict:
        return {"error": {"message": self.message,
                          "diagnostics": self.diagnostics}}


def _tsl_error(exc: TslError, text: str, file: str) -> BadRequestError:
    """The 400 payload for a TSL parse/validation failure in *file*."""
    code = getattr(exc, "code", None) or SYNTAX_CODE
    message = getattr(exc, "message", None) or str(exc)
    diag = Diagnostic(code, Severity.ERROR, message,
                      span=getattr(exc, "span", None), file=file)
    return BadRequestError(render_text(diag, text=text),
                           diagnostics=[diag.to_dict()])


def _require_object(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise BadRequestError(f"{what} must be a JSON object, "
                              f"got {type(data).__name__}")
    return data


def _get_str(data: Mapping[str, Any], key: str) -> str:
    value = data.get(key)
    if value is None:
        raise BadRequestError(f"missing required field {key!r}")
    if not isinstance(value, str):
        raise BadRequestError(f"field {key!r} must be a string")
    return value


def _get_bool(data: Mapping[str, Any], key: str,
              default: bool = False) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise BadRequestError(f"field {key!r} must be a boolean")
    return value


def _get_number(data: Mapping[str, Any], key: str,
                integral: bool = False):
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"field {key!r} must be a number")
    if integral and not isinstance(value, int):
        raise BadRequestError(f"field {key!r} must be an integer")
    if value <= 0:
        raise BadRequestError(f"field {key!r} must be positive")
    return value


def parse_query_text(text: str, *, file: str = "query",
                     name: str | None = None,
                     validated: bool = True) -> Query:
    """Parse (and for the target query, validate) one TSL text.

    Failures map to HTTP 400 through the shared diagnostic renderer.
    Views are not validated, mirroring the CLI's ``--view NAME=FILE``
    handling, except for acyclicity (TSL003): the chase cannot saturate
    a cyclic view, so it is refused here rather than by the search.
    """
    try:
        query = parse_query(text, name=name)
        if validated:
            return validate(query)
        check_acyclic(query)
        return query
    except TslError as exc:
        raise _tsl_error(exc, text, file) from exc


@dataclass(frozen=True)
class ParsedConfig:
    """A decoded (views, DTD) configuration and its session key."""

    views: Mapping[str, Query]
    constraints: StructuralConstraints | None
    key: str


def _parse_config(views_items: tuple, dtd_text: Any) -> ParsedConfig:
    """Parse the ``views`` and ``dtd`` fields (items of the ``views``
    object, in request order, and the raw ``dtd`` value)."""
    views: dict[str, Query] = {}
    for name, text in views_items:
        if not isinstance(text, str):
            raise BadRequestError(
                f"view {name!r} must be TSL text (a string)")
        views[name] = parse_query_text(text, file=f"view:{name}",
                                       name=name, validated=False)
    # An empty view set is legal (the rewrite just finds nothing), so
    # corpus cases replay over the wire exactly as in-process.
    if dtd_text is not None and not isinstance(dtd_text, str):
        raise BadRequestError("field 'dtd' must be a string")
    constraints = None
    if dtd_text is not None:
        try:
            constraints = parse_dtd(dtd_text)
        except ReproError as exc:
            raise BadRequestError(
                f"field 'dtd' is not a valid DTD: {exc}") from exc
    return ParsedConfig(MappingProxyType(views), constraints,
                        config_key(views, dtd_text))


#: Parsed configurations kept by their text.  Failures raise, so they
#: are never kept: a broken view is re-parsed and refused every time.
_cached_config = lru_cache(maxsize=CONFIG_CACHE_SIZE)(_parse_config)


def _config(body: Mapping[str, Any]) -> ParsedConfig:
    """The request's parsed configuration, from the cache when its view
    and DTD texts were parsed before."""
    raw = body.get("views")
    if raw is None:
        raise BadRequestError("missing required field 'views'")
    texts = (tuple(_require_object(raw, "field 'views'").items()),
             body.get("dtd"))
    try:
        hash(texts)
    except TypeError:   # a non-text field: parse it to name the error
        return _parse_config(*texts)
    return _cached_config(*texts)


@dataclass
class RewriteRequest:
    """Parsed ``POST /rewrite`` (and ``POST /explain``) body."""

    query: Query
    views: Mapping[str, Query]
    constraints: StructuralConstraints | None
    #: The session key of (views, DTD): :func:`~repro.server.pool
    #: .config_key`.
    config_key: str
    total_only: bool = False
    max_candidates: int | None = None
    budget_ms: float | None = None
    max_steps: int | None = None
    explain: bool = False
    #: The canonical key of the query: :func:`~repro.rewriting.canon
    #: .query_key`.
    query_key: str = field(init=False)
    #: The search flags the session memo keys this request's result under.
    flags: SearchFlags = field(init=False)

    def __post_init__(self) -> None:
        self.query_key = query_key(self.query)
        self.flags = SearchFlags(total_only=self.total_only,
                                 max_candidates=self.max_candidates)

    @classmethod
    def from_json(cls, data: Any, *,
                  explain: bool = False) -> "RewriteRequest":
        body = _require_object(data, "request body")
        query = parse_query_text(_get_str(body, "query"))
        config = _config(body)
        return cls(
            query=query,
            views=config.views,
            constraints=config.constraints,
            config_key=config.key,
            total_only=_get_bool(body, "total_only"),
            max_candidates=_get_number(body, "max_candidates",
                                       integral=True),
            budget_ms=_get_number(body, "budget_ms"),
            max_steps=_get_number(body, "max_steps", integral=True),
            explain=explain or _get_bool(body, "explain"),
        )


@dataclass
class EvaluateRequest:
    """Parsed ``POST /evaluate`` body: one query over an inline database."""

    query: Query
    database: OemDatabase
    budget_ms: float | None = None

    @classmethod
    def from_json(cls, data: Any) -> "EvaluateRequest":
        body = _require_object(data, "request body")
        query = parse_query_text(_get_str(body, "query"))
        raw_db = body.get("database")
        if raw_db is None:
            raise BadRequestError("missing required field 'database'")
        try:
            database = database_from_json(
                dict(_require_object(raw_db, "field 'database'")))
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(
                f"field 'database' is not a valid OEM encoding: "
                f"{exc}") from exc
        return cls(query=query, database=database,
                   budget_ms=_get_number(body, "budget_ms"))
