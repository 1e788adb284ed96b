"""Command-line interface: validate, lint, evaluate, and rewrite TSL queries.

Usage (installed as ``python -m repro``)::

    python -m repro validate QUERY.tsl
    python -m repro lint QUERY.tsl [--view NAME=V.tsl ...] [--dtd FILE] \
        [--format text|json|sarif] [--strict]
    python -m repro lint --views-only --view NAME=V.tsl ... [--dtd FILE] \
        [--format text|json|sarif] [--strict]
    python -m repro check-views CONFIG.json [--format text|json|sarif] \
        [--baseline FILE] [--update-baseline] [--strict]
    python -m repro evaluate QUERY.tsl --db DATA.json [--dot] \
        [--trace OUT] [--trace-format jsonl|chrome|text]
    python -m repro rewrite QUERY.tsl --view NAME=VIEW.tsl ... \
        [--dtd FILE.dtd] [--total] [--contained] [--format text|json] \
        [--trace OUT] [--trace-format jsonl|chrome|text] \
        [--budget-ms N] [--max-steps N] [--max-candidates N]
    python -m repro explain QUERY.tsl --view NAME=VIEW.tsl ... \
        [--dtd FILE.dtd] [--total] [--format text|json] \
        [--trace OUT] [--trace-format jsonl|chrome|text] \
        [--budget-ms N] [--max-steps N] [--max-candidates N]
    python -m repro metrics [QUERY.tsl --view NAME=VIEW.tsl ...] \
        [--dtd FILE.dtd] [--format prom|json] [--url http://HOST:PORT]
    python -m repro serve [--host H] [--port N] [--workers N] \
        [--max-pending N] [--max-sessions N] [--budget-ms N] \
        [--max-steps N] [--cache-dir ROOT] [--access-log PATH] \
        [--slow-ms N] [--recorder-capacity N] [--no-recorder]
    python -m repro top --url http://HOST:PORT [--interval S] \
        [--once] [--count N]
    python -m repro db init ROOT [--name N] [--force]
    python -m repro db ingest ROOT --db DATA.json [--compact]
    python -m repro db stats ROOT
    python -m repro db flush ROOT
    python -m repro db compact ROOT
    python -m repro import-xml DOC.xml -o DATA.json
    python -m repro fuzz [--seed N] [--iterations N] [--budget-seconds S] \
        [--oracle NAME ...] [--profile NAME ...] [--corpus DIR] \
        [--replay FILE] [--no-shrink] [--format text|json] \
        [--trace OUT] [--trace-format jsonl|chrome|text]

Queries and views are TSL text files (``%`` comments allowed); databases
are the JSON encoding of :mod:`repro.oem.serialize`; XML documents import
through :mod:`repro.xmlbridge`.

``lint`` runs the :mod:`repro.analysis` static analyzer (diagnostic
codes ``TSLxxx``, see ``docs/LINTING.md``) and exits 0 when clean, 1
when only warnings were found and ``--strict`` is set, and 2 on errors.
``validate`` and ``rewrite`` render their parse/validation failures
through the same span-aware renderer (source line + caret underline).

``check-views`` analyzes a whole mediator configuration (views +
optional DTD + capability records) with the viewset passes (``TSL4xx``:
duplicate, subsumed, DTD-unsatisfiable, unsafe, and capability-
unreachable views).  ``--baseline`` suppresses known findings by
fingerprint and gates only on new ones; ``--format sarif`` emits SARIF
2.1.0 for code-scanning upload.  Exit codes match ``lint``.

``fuzz`` runs the :mod:`repro.oracle` differential-testing campaign
(see ``docs/TESTING.md``); it exits 0 when all oracles were green, 1
when a counterexample was found, and 2 on usage/environment errors.

``rewrite`` can trace and bound the (worst-case exponential) search:
``--trace`` writes the :mod:`repro.obs` span tree, ``--budget-ms`` /
``--max-steps`` stop a runaway search and return partial results
flagged ``truncated`` (see ``docs/OBSERVABILITY.md``).  ``evaluate``
and ``fuzz`` accept the same ``--trace`` flags.

``explain`` runs the same search with the EXPLAIN decision log
attached and prints, per view, the containment mappings found or the
reason none exists, and, per enumerated candidate, its conjunction and
verdict (accepted, pruned, or where the chase / composition /
equivalence test failed).  ``metrics`` runs a workload (the paper's
Q3/Q5/Q7 over V1 by default) against a fresh registry and renders it
as Prometheus text exposition or JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (Diagnostic, Severity, analyze, analyze_view_set,
                       load_config, render_json, render_sarif, render_text)
from .errors import ReproError, TslError, TslSyntaxError
from .obs import (TRACE_FORMATS, Budget, MetricsRegistry, Tracer,
                  render_prometheus, write_trace)
from .oem.dot import to_dot
from .oem.serialize import dumps, loads
from .rewriting import (Explanation, RewriteSession,
                        maximally_contained_rewritings, parse_dtd)
from .tsl import evaluate, parse_query, print_query, validate
from .tsl.validate import check_acyclic
from .xmlbridge import dtd_from_document, xml_to_oem

#: Diagnostic code under which syntax errors appear in lint reports.
SYNTAX_CODE = "TSL000"


class RenderedError(ReproError):
    """A failure whose message is already fully rendered for the user."""


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _error_diagnostic(exc: TslError, file: str) -> Diagnostic:
    """The diagnostic form of a syntax/validation exception."""
    code = getattr(exc, "code", None) or SYNTAX_CODE
    message = getattr(exc, "message", None) or str(exc)
    return Diagnostic(code, Severity.ERROR, message,
                      span=getattr(exc, "span", None), file=file)


def _render_tsl_error(exc: TslError, text: str, path: str) -> str:
    return render_text(_error_diagnostic(exc, path), text=text)


def _load_query(path: str):
    text = _read(path)
    try:
        return validate(parse_query(text))
    except TslError as exc:
        raise RenderedError(_render_tsl_error(exc, text, path)) from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    print("ok:", print_query(query))
    return 0


def _write_trace_if_requested(tracer, args) -> None:
    if tracer is None:
        return
    write_trace(tracer, args.trace, args.trace_format)
    print(f"# trace: {len(tracer.spans)} span(s) written to "
          f"{args.trace} ({args.trace_format})", file=sys.stderr)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    db = loads(_read(args.db))
    tracer = Tracer() if args.trace else None
    answer = evaluate(query, db, tracer=tracer)
    _write_trace_if_requested(tracer, args)
    if args.dot:
        print(to_dot(answer, graph_name="answer"))
    else:
        print(dumps(answer, indent=2))
    print(f"# {len(answer.roots)} root object(s), "
          f"{answer.stats()['objects']} objects", file=sys.stderr)
    return 0


def _split_view_spec(spec: str) -> tuple[str, str]:
    if "=" not in spec:
        raise ReproError(
            f"--view expects NAME=FILE, got {spec!r}")
    name, _, path = spec.partition("=")
    return name, path


def _parse_view_spec(spec: str):
    name, path = _split_view_spec(spec)
    text = _read(path)
    try:
        view = parse_query(text, name=name)
        check_acyclic(view)
        return name, view
    except TslError as exc:
        raise RenderedError(_render_tsl_error(exc, text, path)) from exc


def _search_inputs(args: argparse.Namespace):
    """``(query, views, constraints, tracer, budget)`` from the search
    arguments ``rewrite`` and ``explain`` share."""
    query = _load_query(args.query)
    views = dict(_parse_view_spec(spec) for spec in args.view)
    constraints = parse_dtd(_read(args.dtd)) if args.dtd else None
    tracer = Tracer() if args.trace else None
    budget = None
    if args.budget_ms is not None or args.max_steps is not None:
        budget = Budget(deadline_ms=args.budget_ms,
                        max_steps=args.max_steps)
    return query, views, constraints, tracer, budget


def _cmd_rewrite(args: argparse.Namespace) -> int:
    import json as json_module

    if args.contained and args.max_candidates is not None:
        raise ReproError("--max-candidates does not apply to --contained")
    query, views, constraints, tracer, budget = _search_inputs(args)
    if args.contained:
        result = maximally_contained_rewritings(
            query, views, constraints, total_only=args.total,
            tracer=tracer, budget=budget)
        rewritings = [(r.query, "equivalent" if r.is_equivalent
                       else "contained") for r in result.rewritings]
    else:
        result = RewriteSession(views, constraints).rewrite(
            query, total_only=args.total,
            max_candidates=args.max_candidates,
            tracer=tracer, budget=budget)
        rewritings = [(r.query, "equivalent") for r in result.rewritings]
    truncated, stop_reason = result.truncated, result.stats.stop_reason

    _write_trace_if_requested(tracer, args)
    if truncated:
        print(f"warning: search truncated ({stop_reason}); "
              "the rewritings found so far are sound but the set may "
              "be incomplete", file=sys.stderr)

    if args.format == "json":
        payload = {
            "rewritings": [
                {"query": print_query(rewriting), "flavor": flavor}
                for rewriting, flavor in rewritings],
            "truncated": truncated,
            "stop_reason": stop_reason,
            "stats": result.stats.to_json(),
        }
        print(json_module.dumps(payload, indent=2))
        return 0 if rewritings else 1

    if not rewritings:
        print("no rewriting found", file=sys.stderr)
        return 1
    for rewriting, flavor in rewritings:
        print(f"% {flavor}")
        print(print_query(rewriting, multiline=True))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as json_module

    query, views, constraints, tracer, budget = _search_inputs(args)
    explanation = Explanation()
    result = RewriteSession(views, constraints).rewrite(
        query, total_only=args.total,
        max_candidates=args.max_candidates,
        tracer=tracer, budget=budget, explain=explanation)
    _write_trace_if_requested(tracer, args)
    if args.format == "json":
        print(json_module.dumps(explanation.to_json(), indent=2))
    else:
        print(explanation.render_text())
    return 0 if result.rewritings else 1


def _metrics_url(base: str) -> str:
    """Normalize --url: accept the server base or the full /metrics URL."""
    base = base.rstrip("/")
    return base if base.endswith("/metrics") else f"{base}/metrics"


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json as json_module

    if getattr(args, "url", None):
        # Scrape a live server instead of running an in-process
        # workload; shares the client helper with `repro top`.
        from .server.client import ClientError, fetch_text, \
            parse_prometheus
        if args.query or args.view or args.dtd:
            raise ReproError("metrics --url scrapes a live server; it "
                             "takes no query/--view/--dtd")
        try:
            text = fetch_text(_metrics_url(args.url))
        except ClientError as exc:
            raise ReproError(str(exc)) from exc
        if args.format == "json":
            print(json_module.dumps(parse_prometheus(text), indent=2,
                                    default=str))
        else:
            print(text, end="")
        return 0

    registry = MetricsRegistry()
    if args.query:
        if not args.view:
            raise ReproError("metrics QUERY requires at least one --view")
        query = _load_query(args.query)
        views = dict(_parse_view_spec(spec) for spec in args.view)
        constraints = parse_dtd(_read(args.dtd)) if args.dtd else None
        workload = [query]
    else:
        # Built-in workload: the paper's running example (Q3, Q5, Q7
        # over V1 with the Section 3.3 DTD).
        from .rewriting import paper_dtd
        from .workloads import query_q3, query_q5, query_q7, view_v1
        views = {"V1": view_v1()}
        constraints = paper_dtd()
        workload = [query_q3(), query_q5(), query_q7()]
    session = RewriteSession(views, constraints, metrics=registry)
    for target in workload:
        # Two passes per query: the second feeds the memo_lookup
        # histogram with a hit.
        session.rewrite(target)
        session.rewrite(target)
    if args.format == "json":
        print(json_module.dumps(registry.snapshot(), indent=2))
    else:
        print(render_prometheus(registry), end="")
    return 0


def _severity_exit(diagnostics: list[Diagnostic], strict: bool) -> int:
    """The lint-family exit code: 2 on errors, 1 on strict warnings."""
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return 2
    if strict and any(d.severity is Severity.WARNING
                      for d in diagnostics):
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.views_only:
        if args.query:
            raise ReproError("lint --views-only takes no query; pass the "
                             "view set via --view")
        if not args.view:
            raise ReproError("lint --views-only requires at least one "
                             "--view")
    elif not args.query:
        raise ReproError("lint requires a query file (or --views-only "
                         "with --view)")

    texts: dict[str, str] = {}
    diagnostics: list[Diagnostic] = []

    query = None
    if not args.views_only:
        path = args.query
        text = _read(path)
        texts[path] = text
        try:
            query = parse_query(text)
        except TslSyntaxError as exc:
            diagnostics.append(_error_diagnostic(exc, path))

    views = {}
    view_files = {}
    for spec in args.view:
        name, view_path = _split_view_spec(spec)
        view_text = _read(view_path)
        texts[view_path] = view_text
        try:
            views[name] = parse_query(view_text, name=name)
            view_files[name] = view_path
        except TslSyntaxError as exc:
            diagnostics.append(_error_diagnostic(exc, view_path))

    dtd = parse_dtd(_read(args.dtd)) if args.dtd else None

    if query is not None:
        diagnostics.extend(analyze(
            query, source_text=text, source_name=path,
            views=views, view_files=view_files, dtd=dtd))
    for name, view_query in views.items():
        view_path = view_files[name]
        diagnostics.extend(analyze(
            view_query, source_text=texts[view_path],
            source_name=view_path, dtd=dtd))
    if args.views_only:
        diagnostics.extend(analyze_view_set(
            views, view_files=view_files, dtd=dtd))

    if args.format == "json":
        print(render_json(diagnostics))
    elif args.format == "sarif":
        print(render_sarif(diagnostics), end="")
    else:
        for diag in diagnostics:
            print(render_text(diag, text=texts.get(diag.file)))
        errors = sum(d.severity is Severity.ERROR for d in diagnostics)
        warnings = sum(d.severity is Severity.WARNING for d in diagnostics)
        if diagnostics:
            print(f"{len(diagnostics)} finding(s): {errors} error(s), "
                  f"{warnings} warning(s)", file=sys.stderr)
        else:
            print("clean: no findings", file=sys.stderr)

    return _severity_exit(diagnostics, args.strict)


def _cmd_check_views(args: argparse.Namespace) -> int:
    from .analysis.viewset.baseline import load_baseline, write_baseline

    config = load_config(args.config)
    diagnostics = list(config.diagnostics)
    diagnostics.extend(analyze_view_set(
        config.views, view_files=config.view_files, dtd=config.dtd,
        capabilities=config.capabilities,
        capability_files=config.capability_files))

    if args.update_baseline:
        if not args.baseline:
            raise ReproError("--update-baseline requires --baseline FILE "
                             "(the file to rewrite)")
        write_baseline(args.baseline, diagnostics)
        print(f"baseline {args.baseline} updated: "
              f"{len(diagnostics)} suppression(s)", file=sys.stderr)
        return 0

    suppressed_count = 0
    reported = diagnostics
    if args.baseline:
        baseline = load_baseline(args.baseline)
        reported, suppressed = baseline.partition(diagnostics)
        suppressed_count = len(suppressed)

    if args.format == "json":
        print(render_json(reported))
    elif args.format == "sarif":
        print(render_sarif(reported, tool_name="repro-check-views"),
              end="")
    else:
        for diag in reported:
            print(render_text(diag, text=config.texts.get(diag.file)))
        errors = sum(d.severity is Severity.ERROR for d in reported)
        warnings = sum(d.severity is Severity.WARNING for d in reported)
        suffix = (f"; {suppressed_count} suppressed by baseline"
                  if args.baseline else "")
        noun = "new finding(s)" if args.baseline else "finding(s)"
        if reported:
            print(f"{len(reported)} {noun}: {errors} error(s), "
                  f"{warnings} warning(s){suffix}", file=sys.stderr)
        else:
            clean = "new findings" if args.baseline else "findings"
            print(f"clean: no {clean}{suffix}", file=sys.stderr)

    return _severity_exit(reported, args.strict)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json as json_module

    from .oracle import (DEFAULT_ORACLES, DEFAULT_PROFILE_ROTATION, PROFILES,
                         FuzzConfig, replay, run_fuzz)

    oracles = tuple(args.oracle) if args.oracle else DEFAULT_ORACLES
    tracer = Tracer() if args.trace else None
    if args.replay:
        if tracer is not None:
            raise ReproError("--trace is not supported with --replay "
                             "(replay runs no fuzz loop to trace)")
        report = replay(args.replay, oracles)
    else:
        profiles = tuple(args.profile) if args.profile \
            else DEFAULT_PROFILE_ROTATION
        unknown = set(profiles) - set(PROFILES)
        if unknown:
            raise ReproError(f"unknown profile(s): {sorted(unknown)}; "
                             f"available: {sorted(PROFILES)}")
        report = run_fuzz(FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            budget_seconds=args.budget_seconds,
            oracles=oracles,
            profiles=profiles,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus,
        ), tracer=tracer)
    _write_trace_if_requested(tracer, args)
    if args.format == "json":
        print(json_module.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
        for failure in report.failures:
            print(f"- [{failure.oracle}/{failure.invariant}] "
                  f"seed={failure.seed} profile={failure.profile} "
                  f"conditions={failure.conditions}")
            print(f"  {failure.message}")
            if failure.corpus_path:
                print(f"  saved: {failure.corpus_path}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .server import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_pending=args.max_pending, max_sessions=args.max_sessions,
        default_budget_ms=args.budget_ms,
        default_max_steps=args.max_steps,
        cache_dir=args.cache_dir,
        recorder=not args.no_recorder,
        recorder_capacity=args.recorder_capacity,
        slow_ms=args.slow_ms,
        access_log=args.access_log)
    server = ReproServer(config)

    async def _run() -> None:
        await server.start()
        print(f"serving on http://{config.host}:{server.port} "
              f"(workers={config.workers}, "
              f"max_pending={config.max_pending})", file=sys.stderr)
        await server.serve_forever()

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        # A supervisor stops the service with SIGTERM; route it through
        # the same graceful path as ctrl-C so warm memos still flush.
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread; signals stay with the embedder

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        # The loop died before stop() ran; persist the warm session
        # memos so the next start answers repeats as memo hits.
        server.pool.save_sessions()
        server.pool.shutdown()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll a live server's /debug + /metrics into a text dashboard."""
    import time as time_module

    from .server.client import (ClientError, gather_status,
                                render_dashboard)

    iterations = 1 if args.once else args.count
    rendered = 0
    while iterations is None or rendered < iterations:
        try:
            status = gather_status(args.url)
        except ClientError as exc:
            raise ReproError(str(exc)) from exc
        screen = render_dashboard(status)
        if not args.once and sys.stdout.isatty():
            print("\x1b[2J\x1b[H" + screen, flush=True)
        else:
            print(screen, flush=True)
        rendered += 1
        if iterations is not None and rendered >= iterations:
            break
        try:
            time_module.sleep(args.interval)
        except KeyboardInterrupt:
            break
    return 0


def _cmd_db_init(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    store = DurableStore.create(args.root, args.name, force=args.force)
    store.close()
    print(f"initialized store {args.name!r} at {args.root}",
          file=sys.stderr)
    return 0


def _cmd_db_ingest(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    db = loads(_read(args.db))
    with DurableStore.open(args.root) as store:
        records = store.ingest(db)
        if args.compact:
            store.compact()
        version = store.version
    print(f"ingested {records} records; store version {version}",
          file=sys.stderr)
    return 0


def _cmd_db_stats(args: argparse.Namespace) -> int:
    """Deterministic storage statistics (byte-stable across runs)."""
    import json

    from .storage import CacheStore, DurableStore, SessionRegistry

    with DurableStore.open(args.root) as store:
        persisted = CacheStore(store.layout.cache_file).persisted()
        payload = {"store": store.stats(),
                   "cache": {"entries": persisted["entries"]},
                   "sessions": SessionRegistry(store.layout).stats()}
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _cmd_db_flush(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    with DurableStore.open(args.root) as store:
        store.flush()
    print(f"flushed {args.root}", file=sys.stderr)
    return 0


def _cmd_db_compact(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    with DurableStore.open(args.root) as store:
        outcome = store.compact()
    print(f"compacted {args.root}: version {outcome['version']}, "
          f"{outcome['objects']} objects, "
          f"{outcome['snapshot_bytes']} snapshot bytes", file=sys.stderr)
    return 0


def _cmd_import_xml(args: argparse.Namespace) -> int:
    text = _read(args.document)
    db = xml_to_oem(text, name=args.name)
    encoded = dumps(db, indent=2)
    if args.output:
        Path(args.output).write_text(encoded, encoding="utf-8")
    else:
        print(encoded)
    dtd = dtd_from_document(text)
    if dtd is not None:
        print(f"# internal DTD found ({len(dtd.elements)} elements); "
              "pass it to rewrite via --dtd", file=sys.stderr)
    return 0


def _add_trace_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--trace", metavar="OUT",
                     help="write the pipeline span tree to this file "
                          "(see docs/OBSERVABILITY.md)")
    cmd.add_argument("--trace-format", choices=TRACE_FORMATS,
                     default="jsonl",
                     help="trace file format (default: jsonl; chrome "
                          "loads in Perfetto)")


def _add_search_args(cmd: argparse.ArgumentParser) -> None:
    """The arguments ``rewrite`` and ``explain`` share: the query, its
    views and DTD, and how the search is restricted, bounded and
    traced."""
    cmd.add_argument("query")
    cmd.add_argument("--view", action="append", default=[],
                     metavar="NAME=FILE", required=True)
    cmd.add_argument("--dtd", help="structural constraints file")
    cmd.add_argument("--total", action="store_true",
                     help="views-only (total) rewritings")
    _add_trace_flags(cmd)
    cmd.add_argument("--budget-ms", type=float, metavar="N",
                     help="wall-clock deadline; on expiry the partial "
                          "result is returned flagged truncated")
    cmd.add_argument("--max-steps", type=int, metavar="N",
                     help="step budget over all search phases")
    cmd.add_argument("--max-candidates", type=int, metavar="N",
                     help="cap on candidates tested (truncates the "
                          "search)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query rewriting for semistructured data "
                    "(SIGMOD 1999 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    validate_cmd = commands.add_parser(
        "validate", help="parse + validate a TSL query file")
    validate_cmd.add_argument("query")
    validate_cmd.set_defaults(handler=_cmd_validate)

    lint_cmd = commands.add_parser(
        "lint", help="run the TSL static analyzer over a query "
                     "(and optionally views / a DTD)")
    lint_cmd.add_argument("query", nargs="?",
                          help="query file (omit with --views-only)")
    lint_cmd.add_argument("--view", action="append", default=[],
                          metavar="NAME=FILE",
                          help="view definitions to lint alongside "
                               "the query (repeatable)")
    lint_cmd.add_argument("--views-only", action="store_true",
                          help="lint only the --view set, including the "
                               "whole-configuration TSL4xx passes")
    lint_cmd.add_argument("--dtd",
                          help="structural constraints file; enables the "
                               "TSL2xx satisfiability lints")
    lint_cmd.add_argument("--format", choices=("text", "json", "sarif"),
                          default="text")
    lint_cmd.add_argument("--strict", action="store_true",
                          help="exit 1 when warnings were found")
    lint_cmd.set_defaults(handler=_cmd_lint)

    check_views_cmd = commands.add_parser(
        "check-views", help="analyze a whole mediator view configuration "
                            "(TSL4xx: duplicate / subsumed / "
                            "unsatisfiable / unsafe / capability-"
                            "unreachable views)")
    check_views_cmd.add_argument(
        "config", help="mediator configuration JSON (views + optional "
                       "dtd / capabilities)")
    check_views_cmd.add_argument("--format",
                                 choices=("text", "json", "sarif"),
                                 default="text")
    check_views_cmd.add_argument("--baseline", metavar="FILE",
                                 help="suppression baseline: report and "
                                      "gate only on findings absent "
                                      "from it")
    check_views_cmd.add_argument("--update-baseline", action="store_true",
                                 help="rewrite --baseline to suppress "
                                      "every current finding, then "
                                      "exit 0")
    check_views_cmd.add_argument("--strict", action="store_true",
                                 help="exit 1 when new warnings were "
                                      "found")
    check_views_cmd.set_defaults(handler=_cmd_check_views)

    evaluate_cmd = commands.add_parser(
        "evaluate", help="evaluate a TSL query over a JSON OEM database")
    evaluate_cmd.add_argument("query")
    evaluate_cmd.add_argument("--db", required=True,
                              help="database JSON file")
    evaluate_cmd.add_argument("--dot", action="store_true",
                              help="emit Graphviz DOT instead of JSON")
    _add_trace_flags(evaluate_cmd)
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    rewrite_cmd = commands.add_parser(
        "rewrite", help="find rewritings of a query using views")
    _add_search_args(rewrite_cmd)
    rewrite_cmd.add_argument("--contained", action="store_true",
                             help="maximally contained instead of "
                                  "equivalent rewritings")
    rewrite_cmd.add_argument("--format", choices=("text", "json"),
                             default="text",
                             help="output format (json includes stats "
                                  "and the truncation flag)")
    rewrite_cmd.set_defaults(handler=_cmd_rewrite)

    explain_cmd = commands.add_parser(
        "explain", help="run the rewrite search with the EXPLAIN "
                        "decision log and report every mapping and "
                        "candidate verdict")
    _add_search_args(explain_cmd)
    explain_cmd.add_argument("--format", choices=("text", "json"),
                             default="text",
                             help="decision-log rendering (json is "
                                  "schema-versioned and machine-readable)")
    explain_cmd.set_defaults(handler=_cmd_explain)

    metrics_cmd = commands.add_parser(
        "metrics", help="run a rewrite workload against a fresh metrics "
                        "registry and render the instruments")
    metrics_cmd.add_argument("query", nargs="?",
                             help="query file (default: the paper's "
                                  "Q3/Q5/Q7 over V1 with its DTD)")
    metrics_cmd.add_argument("--view", action="append", default=[],
                             metavar="NAME=FILE")
    metrics_cmd.add_argument("--dtd", help="structural constraints file")
    metrics_cmd.add_argument("--url", metavar="URL",
                             help="scrape a live server's /metrics "
                                  "instead of running the in-process "
                                  "workload (base URL or full /metrics "
                                  "URL)")
    metrics_cmd.add_argument("--format", choices=("prom", "json"),
                             default="prom",
                             help="Prometheus text exposition (default) "
                                  "or the JSON snapshot")
    metrics_cmd.set_defaults(handler=_cmd_metrics)

    fuzz_cmd = commands.add_parser(
        "fuzz", help="run the differential-testing oracles on random "
                     "cases (see docs/TESTING.md)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="base seed; iteration i uses seed+i "
                               "(default: 0)")
    fuzz_cmd.add_argument("--iterations", type=int, default=100,
                          help="number of generated cases (default: 100)")
    fuzz_cmd.add_argument("--budget-seconds", type=float, default=None,
                          help="stop starting new iterations after this "
                               "many seconds")
    fuzz_cmd.add_argument("--oracle", action="append", default=[],
                          choices=("semantic", "containment", "memo",
                                   "metamorphic", "signature", "step2"),
                          help="oracle(s) to run (repeatable; default: all)")
    fuzz_cmd.add_argument("--profile", action="append", default=[],
                          metavar="NAME",
                          help="case profile(s) to rotate through "
                               "(repeatable; default: all)")
    fuzz_cmd.add_argument("--corpus", metavar="DIR",
                          help="directory to save shrunk counterexamples to")
    fuzz_cmd.add_argument("--replay", metavar="FILE",
                          help="re-run the oracles on one saved corpus case "
                               "instead of generating new ones")
    fuzz_cmd.add_argument("--no-shrink", action="store_true",
                          help="report raw failing cases without "
                               "minimization")
    fuzz_cmd.add_argument("--format", choices=("text", "json"),
                          default="text")
    _add_trace_flags(fuzz_cmd)
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)

    serve_cmd = commands.add_parser(
        "serve", help="run the concurrent rewrite-as-a-service HTTP "
                      "server (POST /rewrite /evaluate /explain, "
                      "GET /metrics /healthz; see docs/SERVING.md)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks an ephemeral one; "
                                "default: 8080)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="rewrite worker threads sharing the "
                                "session pool (default: 4)")
    serve_cmd.add_argument("--max-pending", type=int, default=64,
                           help="admitted in-flight request cap; beyond "
                                "it requests are shed with 429 "
                                "(default: 64)")
    serve_cmd.add_argument("--max-sessions", type=int, default=32,
                           help="distinct view-set sessions kept warm "
                                "(default: 32)")
    serve_cmd.add_argument("--budget-ms", type=float, metavar="N",
                           help="default per-request deadline, measured "
                                "from admission; expiry returns 408 "
                                "with the partial result")
    serve_cmd.add_argument("--max-steps", type=int, metavar="N",
                           help="default per-request step budget")
    serve_cmd.add_argument("--access-log", metavar="PATH",
                           help="append one JSON object per request "
                                "(request id, trace id, status, "
                                "duration) to PATH; '-' logs to stderr")
    serve_cmd.add_argument("--slow-ms", type=float, default=250.0,
                           metavar="N",
                           help="flight-recorder tail-capture "
                                "threshold: requests slower than N ms "
                                "retain their full trace + EXPLAIN "
                                "(default 250)")
    serve_cmd.add_argument("--recorder-capacity", type=int, default=256,
                           metavar="N",
                           help="completed requests retained in the "
                                "flight-recorder ring (default 256)")
    serve_cmd.add_argument("--no-recorder", action="store_true",
                           help="disable the always-on flight recorder "
                                "(the /debug endpoints answer with an "
                                "empty ring)")
    serve_cmd.add_argument("--cache-dir", metavar="ROOT",
                           help="persist rewrite-session memos under "
                                "this storage root (repro db init; "
                                "see docs/PERSISTENCE.md) so a "
                                "restarted server serves repeats as "
                                "memo hits")
    serve_cmd.set_defaults(handler=_cmd_serve)

    top_cmd = commands.add_parser(
        "top", help="live dashboard over a running server: latency "
                    "quantiles, shed rate, cache hit rates, and the "
                    "slowest recent requests (polls /debug + /metrics)")
    top_cmd.add_argument("--url", required=True, metavar="URL",
                         help="base URL of the server, e.g. "
                              "http://127.0.0.1:8080")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         metavar="S",
                         help="seconds between polls (default 2)")
    top_cmd.add_argument("--once", action="store_true",
                         help="render a single frame and exit "
                              "(scripts / CI)")
    top_cmd.add_argument("--count", type=int, default=None, metavar="N",
                         help="stop after N frames (default: run until "
                              "interrupted)")
    top_cmd.set_defaults(handler=_cmd_top)

    db_cmd = commands.add_parser(
        "db", help="manage a persistent store directory (snapshot + "
                   "WAL + query cache; see docs/PERSISTENCE.md)")
    db_sub = db_cmd.add_subparsers(dest="db_command", required=True)

    db_init = db_sub.add_parser(
        "init", help="initialize an empty store directory")
    db_init.add_argument("root")
    db_init.add_argument("--name", default="db",
                         help="database/source name (default: db)")
    db_init.add_argument("--force", action="store_true",
                         help="re-initialize an existing store")
    db_init.set_defaults(handler=_cmd_db_init)

    db_ingest = db_sub.add_parser(
        "ingest", help="bulk-load an OEM JSON database through the WAL")
    db_ingest.add_argument("root")
    db_ingest.add_argument("--db", required=True, metavar="DATA.json",
                           help="database file (repro import-xml output)")
    db_ingest.add_argument("--compact", action="store_true",
                           help="fold the WAL into a snapshot afterwards")
    db_ingest.set_defaults(handler=_cmd_db_ingest)

    db_stats = db_sub.add_parser(
        "stats", help="print deterministic storage statistics as JSON")
    db_stats.add_argument("root")
    db_stats.set_defaults(handler=_cmd_db_stats)

    db_flush = db_sub.add_parser(
        "flush", help="fsync the write-ahead log")
    db_flush.add_argument("root")
    db_flush.set_defaults(handler=_cmd_db_flush)

    db_compact = db_sub.add_parser(
        "compact", help="fold the WAL into a fresh snapshot")
    db_compact.add_argument("root")
    db_compact.set_defaults(handler=_cmd_db_compact)

    import_cmd = commands.add_parser(
        "import-xml", help="convert an XML document to OEM JSON")
    import_cmd.add_argument("document")
    import_cmd.add_argument("-o", "--output")
    import_cmd.add_argument("--name", default="db",
                            help="database/source name (default: db)")
    import_cmd.set_defaults(handler=_cmd_import_xml)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RenderedError as exc:
        print(f"error:\n{exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
