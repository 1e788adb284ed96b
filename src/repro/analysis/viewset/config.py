"""Mediator configuration files for ``check-views``.

A configuration is one JSON file describing everything the mediator
would register -- so the analyzer sees exactly what the rewriter would::

    {
      "dtd": "people.dtd",
      "views": {
        "v_pubs": "view_pubs.tsl",
        "inline": {"text": "<v(P) name N> :- <P name N>@db"}
      },
      "capabilities": {
        "by_name": "cap_by_name.tsl",
        "c2": {"text": "<c(P) name $N> :- <P name $N>@db"}
      }
    }

File paths are resolved relative to the config file's directory and kept
relative in finding attributions (stable across checkouts, which the
baseline fingerprints rely on).  ``dtd`` may also be an object
``{"file": ..., "source": ...}`` when the constrained source is not the
default ``db``.  Inline entries are attributed to the pseudo-path
``CONFIG#views.NAME`` and their text is carried in ``texts`` so carets
still render.

Structural problems raise :class:`~repro.errors.ConfigError`; TSL syntax
errors inside an individual view become ``TSL000`` diagnostics instead,
and a view whose body pattern is cyclic a ``TSL003`` one (the rewriter
could not chase it), so one broken view does not hide the rest of the
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ...errors import ConfigError, TslError
from ...mediator.capabilities import CapabilityView, parameters_of
from ...rewriting.constraints import Dtd, parse_dtd
from ...tsl.ast import Query
from ...tsl.parser import parse_query
from ...tsl.validate import check_acyclic
from ..diagnostics import Diagnostic, Severity

#: Diagnostic code for syntax errors (mirrors repro.cli.SYNTAX_CODE,
#: which cannot be imported here without a cycle).
SYNTAX_CODE = "TSL000"


@dataclass
class MediatorConfig:
    """A loaded mediator configuration, ready for the viewset analyzer.

    ``texts`` maps every attribution string appearing in ``view_files``
    / ``capability_files`` (plus the DTD file) to its source text, for
    caret rendering.  ``diagnostics`` carries the per-view parse errors
    (``TSL000``) found while loading.
    """

    path: str
    views: dict[str, Query] = field(default_factory=dict)
    view_files: dict[str, str] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)
    dtd: Dtd | None = None
    dtd_file: str | None = None
    capabilities: dict[str, CapabilityView] = field(default_factory=dict)
    capability_files: dict[str, str] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _syntax_diagnostic(exc: TslError, file: str) -> Diagnostic:
    code = getattr(exc, "code", None) or SYNTAX_CODE
    message = getattr(exc, "message", None) or str(exc)
    return Diagnostic(code, Severity.ERROR, message,
                      span=getattr(exc, "span", None), file=file)


def _require_mapping(value, what: str, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object, "
                          f"got {type(value).__name__}")
    return value


def _load_entry(entry, name: str, section: str, base: Path,
                path: str) -> tuple[str, str]:
    """Resolve one views/capabilities entry to (attribution, text)."""
    if isinstance(entry, str):
        file = entry
        target = base / file
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"{path}: {section}.{name}: cannot read {file}: "
                f"{exc}") from exc
        return file, text
    if isinstance(entry, dict):
        text = entry.get("text")
        if not isinstance(text, str):
            raise ConfigError(
                f"{path}: {section}.{name}: inline entries need a "
                "string \"text\" field")
        return f"{path}#{section}.{name}", text
    raise ConfigError(
        f"{path}: {section}.{name} must be a file path or an object "
        f"with a \"text\" field, got {type(entry).__name__}")


def load_config(path: str) -> MediatorConfig:
    """Load and parse a mediator configuration file."""
    config_path = Path(path)
    try:
        raw = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    data = _require_mapping(data, "the configuration", path)
    unknown = set(data) - {"dtd", "views", "capabilities"}
    if unknown:
        raise ConfigError(f"{path}: unknown configuration key(s): "
                          f"{', '.join(sorted(unknown))}")

    base = config_path.parent
    config = MediatorConfig(path=path)

    dtd_spec = data.get("dtd")
    if dtd_spec is not None:
        if isinstance(dtd_spec, str):
            dtd_file, dtd_source = dtd_spec, "db"
        else:
            dtd_spec = _require_mapping(dtd_spec, "\"dtd\"", path)
            dtd_file = dtd_spec.get("file")
            dtd_source = dtd_spec.get("source", "db")
            if not isinstance(dtd_file, str):
                raise ConfigError(f"{path}: \"dtd\" needs a string "
                                  "\"file\" field")
        try:
            dtd_text = (base / dtd_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read DTD {dtd_file}: "
                              f"{exc}") from exc
        config.dtd = parse_dtd(dtd_text, source=dtd_source)
        config.dtd_file = dtd_file
        config.texts[dtd_file] = dtd_text

    views = _require_mapping(data.get("views", {}), "\"views\"", path)
    for name in sorted(views):
        attribution, text = _load_entry(views[name], name, "views",
                                        base, path)
        config.texts[attribution] = text
        try:
            view = parse_query(text, name=name)
            check_acyclic(view)
            config.views[name] = view
            config.view_files[name] = attribution
        except TslError as exc:
            config.diagnostics.append(
                _syntax_diagnostic(exc, attribution))

    capabilities = _require_mapping(data.get("capabilities", {}),
                                    "\"capabilities\"", path)
    for name in sorted(capabilities):
        attribution, text = _load_entry(capabilities[name], name,
                                        "capabilities", base, path)
        config.texts[attribution] = text
        try:
            query = parse_query(text, name=name)
        except TslError as exc:
            config.diagnostics.append(
                _syntax_diagnostic(exc, attribution))
            continue
        config.capabilities[name] = CapabilityView(
            name, query, parameters_of(query))
        config.capability_files[name] = attribution

    return config
