"""Rewrite-as-a-service: an asyncio HTTP/JSON front-end.

The paper's Section 1 deployment is a *mediator serving clients*; this
module is that front-end: a single-threaded asyncio I/O loop in front
of a :class:`~repro.server.pool.SessionPool` of worker threads driving
shared, canonically-keyed :class:`~repro.rewriting.RewriteSession`\\ s.

Endpoints (all JSON; see ``docs/SERVING.md`` for the full schemas):

* ``POST /rewrite``   -- find equivalent rewritings; ``"explain": true``
  attaches the EXPLAIN decision log, byte-identical to the in-process
  ``rewrite(..., explain=...)`` output (memo replays included).
* ``POST /explain``   -- the decision log alone (``repro explain``).
* ``POST /evaluate``  -- evaluate a query over an inline OEM database.
* ``GET /metrics``    -- Prometheus text exposition of the server
  registry (request counters, shed counter, ``phase.seconds``, and the
  runtime gauges refreshed at scrape time).
* ``GET /healthz``    -- liveness + pool occupancy.
* ``GET /debug/*``    -- flight-recorder introspection (see below).

**Flight recorder and trace propagation.**  Every request is assigned
(or accepts, via ``X-Repro-Request-Id`` / ``traceparent``) a request id
and trace context, carried through the worker threads into a
per-request :class:`~repro.obs.Tracer` so queued/rewrite/chase spans
stitch into one tree, and echoed in the response headers and the JSONL
access log.  Completed requests land in a bounded
:class:`~repro.obs.FlightRecorder` ring; slow or failed requests (and
explain requests) additionally retain their full span tree and EXPLAIN
JSON.  ``GET /debug/requests[/<id>]``, ``/debug/slow``,
``/debug/cache``, ``/debug/sessions``, and ``/debug/store`` expose the
ring, memo-table hit rates, per-session state, and the persistent
store; ``python -m repro top`` renders them as a live dashboard.

**Admission control and load shedding.**  POST requests are admitted up
to ``max_pending`` in flight (queued + executing); beyond that the
server answers ``429`` immediately and counts ``server.shed``.  Each
admitted request gets a :class:`~repro.obs.Budget` whose deadline
starts *at admission*, so time spent queued behind other requests
counts against it -- a request that waits out its deadline is answered
``408`` by the first cooperative-cancellation check without consuming a
worker.  A search truncated by its deadline or step budget also maps to
``408``, with the partial (sound but possibly incomplete) result in the
body -- the *partial-result contract*: a 408 body is trustworthy as far
as it goes.

**The hit path.**  The loop keeps the last ``DECODED_REQUESTS``
decoded ``/rewrite`` and ``/explain`` bodies, keyed by ``(path, body
bytes)`` and filled from what the workers decoded; a body that fails to
decode is never kept.  A repeated body whose configuration has a live
session and whose answer is in that session's result memo is answered
on the loop itself -- the same budget check, counters, recorder entry
and EXPLAIN replay as on a worker, without the thread hop or a second
decode.  Misses, bodies not seen before, configurations without a live
session, and ``/evaluate`` run on the pool; no search ever runs on the
loop.

The HTTP implementation is deliberately minimal (stdlib-only
HTTP/1.1 with keep-alive and Content-Length framing); the interesting
machinery is the pool behind it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import re
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import (BudgetExceededError, ChaseContradictionError,
                      ReproError, RewritingError)
from ..obs import (NULL_TRACER, Budget, FlightRecorder, MetricsRegistry,
                   Tracer, render_prometheus)
from ..obs.recorder import (DEFAULT_CAPACITY, DEFAULT_SLOW_MS,
                            RECORDER_SCHEMA_VERSION, RequestRecord,
                            aggregate_phases)
from ..obs.recorder import now as _wall_clock
from ..oem.serialize import database_to_json
from ..rewriting import Explanation
from ..rewriting.canon import query_key
from ..tsl import print_query
from .pool import DEFAULT_MAX_SESSIONS, DEFAULT_WORKERS, SessionPool
from .schemas import (SERVE_SCHEMA_VERSION, BadRequestError,
                      EvaluateRequest, RewriteRequest)

__all__ = ["ServerConfig", "ReproServer", "RequestContext", "REASONS",
           "normalize_endpoint"]

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: Request bodies whose decoded form the event loop keeps (LRU), and
#: the largest body it keeps one for.
DECODED_REQUESTS = 256
DECODED_BODY_BYTES = 64 * 1024

#: Budget stop reasons that map to the 408 partial-result contract.
_BUDGET_REASONS = ("deadline", "steps", "budget")

#: RewriteStats fields summarized into flight-recorder records.
_RECORD_COUNTERS = ("mappings", "views_pruned_signature", "index_hits",
                    "index_skips", "candidates_enumerated",
                    "candidates_tested", "rewritings")

#: The fixed endpoint label set -- everything else is folded into
#: ``<other>`` so a 404 scan cannot mint one counter per probed URL.
_KNOWN_ENDPOINTS = frozenset({
    "/healthz", "/metrics", "/rewrite", "/explain", "/evaluate",
    "/debug/requests", "/debug/slow", "/debug/cache",
    "/debug/sessions", "/debug/store"})

_REQUEST_ID_RE = re.compile(r"[A-Za-z0-9._-]{1,128}")
_HEX_RE = re.compile(r"[0-9a-f]+")


def normalize_endpoint(path: str) -> str:
    """Collapse *path* onto the bounded endpoint label set.

    Known routes keep their own label, ``/debug/requests/<id>`` becomes
    ``/debug/requests/:id``, and everything else -- including every URL
    a scanner probes -- is ``<other>``, keeping metric label
    cardinality bounded.
    """
    if path in _KNOWN_ENDPOINTS:
        return path
    if path.startswith("/debug/requests/"):
        return "/debug/requests/:id"
    return "<other>"


@dataclass
class RequestContext:
    """Per-request identity and provenance, threaded loop -> worker.

    Carries the (assigned or client-supplied) request id, the
    ``traceparent`` trace id, and the per-request tracer whose span
    tree stitches queued -> rewrite -> chase phases together.  The code
    answering the request (a worker, or the loop for a memo hit) fills
    in the provenance fields (config/query keys, memo disposition,
    truncation) that the flight recorder and access log consume.

    The tracer is single-threaded by design; the event loop and the
    worker touch it strictly sequentially (admit -> execute -> finish),
    never concurrently.
    """

    request_id: str
    trace_id: str
    span_id: str
    tracer: object
    root_span: object
    explain_requested: bool = False
    config_key: str | None = None
    query_key: str | None = None
    memo: str | None = None
    truncated: bool = False
    stop_reason: str | None = None
    counters: dict = field(default_factory=dict)
    explanation: Explanation | None = None

    def traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"


@dataclass
class ServerConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8080              # 0 picks an ephemeral port
    workers: int = DEFAULT_WORKERS
    max_pending: int = 64         # admitted in-flight cap; beyond -> 429
    max_sessions: int = DEFAULT_MAX_SESSIONS
    default_budget_ms: float | None = None
    default_max_steps: int | None = None
    max_body_bytes: int = 16 * 1024 * 1024
    cache_dir: str | None = None  # persistent session memos (repro db init)
    recorder: bool = True         # always-on flight recorder
    recorder_capacity: int = DEFAULT_CAPACITY
    slow_ms: float = DEFAULT_SLOW_MS   # tail-capture latency threshold
    access_log: str | None = None  # JSONL access log path ("-" -> stderr)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


class ReproServer:
    """One serving instance: asyncio front-end + session pool."""

    def __init__(self, config: ServerConfig | None = None, *,
                 metrics: MetricsRegistry | None = None) -> None:
        self.config = config or ServerConfig()
        self.registry = metrics if metrics is not None else MetricsRegistry()
        pool_kwargs = {"workers": self.config.workers,
                       "max_sessions": self.config.max_sessions,
                       "metrics": self.registry}
        self.layout = None
        if self.config.cache_dir is not None:
            from ..storage import SessionRegistry, StorageLayout
            from ..storage.durable import current_store_version
            self.layout = StorageLayout(self.config.cache_dir)
            if not self.layout.exists():
                self.layout.create("db")
            pool_kwargs["registry"] = SessionRegistry(self.layout)
            pool_kwargs["store_version"] = \
                current_store_version(self.layout)
        self.pool = SessionPool(**pool_kwargs)
        self.recorder = FlightRecorder(
            capacity=self.config.recorder_capacity,
            slow_ms=self.config.slow_ms,
            enabled=self.config.recorder)
        self._access_log = None
        self._in_flight = 0
        #: (path, body) -> decoded RewriteRequest; touched only by the
        #: event loop, so it needs no lock.
        self._decoded: OrderedDict[tuple[str, bytes], RewriteRequest] = \
            OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.config.access_log and self._access_log is None:
            if self.config.access_log == "-":
                self._access_log = sys.stderr
            else:
                self._access_log = open(self.config.access_log, "a",
                                        encoding="utf-8")
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.pool.save_sessions()   # durable memos survive the restart
        self.pool.shutdown()
        if self._access_log is not None and self._access_log is not sys.stderr:
            self._access_log.close()
        self._access_log = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                ctx = self._request_context(headers)
                started = time.perf_counter()
                try:
                    status, payload, content_type = await self._dispatch(
                        method, path, body, ctx)
                except Exception as exc:  # last-resort 500
                    status = 500
                    payload = _json_bytes(
                        {"error": {"message": f"internal error: {exc}"}})
                    content_type = "application/json"
                elapsed = time.perf_counter() - started
                self._observe(method, path, status, elapsed)
                self._finish_request(ctx, method, path, status, elapsed)
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                await self._write_response(
                    writer, status, payload, content_type, keep_alive,
                    extra_headers=(
                        ("X-Repro-Request-Id", ctx.request_id),
                        ("Traceparent", ctx.traceparent())))
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request, or None at end of stream."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line.strip():
            return None
        try:
            method, path, _version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line.strip():
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            return method, path, {"connection": "close"}, b"\x00toolarge"
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: bytes,
                              content_type: str,
                              keep_alive: bool,
                              extra_headers: tuple = ()) -> None:
        reason = REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers)
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extras}"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    def _observe(self, method: str, path: str, status: int,
                 seconds: float) -> None:
        endpoint = f"{method} {normalize_endpoint(path)}"
        labels = {"endpoint": endpoint, "status": str(status)}
        self.registry.increment("server.requests", labels=labels)
        self.registry.observe("server.seconds", seconds,
                              labels={"endpoint": endpoint})

    # -- request identity + flight recording ---------------------------------

    def _request_context(self, headers: dict) -> RequestContext:
        """Assign/accept the request id and trace context.

        ``X-Repro-Request-Id`` is taken verbatim when well-formed (so a
        caller can correlate its own logs), else generated.  A
        ``traceparent`` header contributes its trace id; the span id is
        always ours (we are a new span in the caller's trace).
        """
        supplied = (headers.get("x-repro-request-id") or "").strip()
        if _REQUEST_ID_RE.fullmatch(supplied):
            request_id = supplied
        else:
            request_id = os.urandom(8).hex()
        trace_id = None
        parts = (headers.get("traceparent") or "").strip().split("-")
        if len(parts) == 4 and len(parts[1]) == 32 \
                and _HEX_RE.fullmatch(parts[1]) and parts[1] != "0" * 32:
            trace_id = parts[1]
        if trace_id is None:
            trace_id = os.urandom(16).hex()
        span_id = os.urandom(8).hex()
        if self.recorder.enabled:
            tracer = Tracer()
            root = tracer.span("request", request_id=request_id,
                               trace_id=trace_id)
        else:
            tracer = NULL_TRACER
            root = tracer.span("request")
        return RequestContext(request_id=request_id, trace_id=trace_id,
                              span_id=span_id, tracer=tracer,
                              root_span=root)

    def _finish_request(self, ctx: RequestContext, method: str,
                        path: str, status: int, seconds: float) -> None:
        """Close the request span, record it, and write the access log."""
        ctx.root_span.set("status", status)
        ctx.root_span.__exit__(None, None, None)
        if self.recorder.enabled:
            slow = self.recorder.is_slow(seconds)
            error = status >= 400
            record = RequestRecord(
                request_id=ctx.request_id, trace_id=ctx.trace_id,
                method=method, path=path,
                endpoint=f"{method} {normalize_endpoint(path)}",
                status=status, ts=_wall_clock(), seconds=seconds,
                config_key=ctx.config_key, query_key=ctx.query_key,
                memo=ctx.memo, truncated=ctx.truncated,
                stop_reason=ctx.stop_reason,
                phases=aggregate_phases(ctx.tracer.spans),
                counters=dict(ctx.counters), slow=slow, error=error)
            if slow or error or ctx.explain_requested:
                # Tail-based capture: retain the full span tree (and the
                # EXPLAIN document when one was recorded) only where the
                # detail pays off.
                record.trace = [span.to_json()
                                for span in ctx.tracer.spans]
                if ctx.explanation is not None:
                    record.explain = ctx.explanation.to_json()
            self.recorder.record(record)
        self._log_access(ctx, method, path, status, seconds)

    def _log_access(self, ctx: RequestContext, method: str, path: str,
                    status: int, seconds: float) -> None:
        if self._access_log is None:
            return
        entry = {"ts": round(_wall_clock(), 6),
                 "request_id": ctx.request_id,
                 "trace_id": ctx.trace_id,
                 "method": method, "path": path, "status": status,
                 "duration_ms": round(seconds * 1e3, 3),
                 "memo": ctx.memo, "stop_reason": ctx.stop_reason}
        try:
            self._access_log.write(json.dumps(entry, sort_keys=True)
                                   + "\n")
            self._access_log.flush()
        except OSError:
            pass  # a full disk must not take the server down

    # -- routing + admission control -----------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes,
                        ctx: RequestContext) -> tuple[int, bytes, str]:
        if body == b"\x00toolarge":
            return 413, _json_bytes(
                {"error": {"message": "request body too large"}}), \
                "application/json"
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed()
            health = {"status": "ok", "sessions": len(self.pool),
                      "in_flight": self._in_flight,
                      "pool": self.pool.stats(),
                      "recorder": self.recorder.stats()}
            store = self._store_status()
            if store is not None:
                health["store"] = store
            return 200, _json_bytes(health), "application/json"
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed()
            self._refresh_gauges()
            text = render_prometheus(self.registry)
            return 200, text.encode("utf-8"), \
                "text/plain; version=0.0.4; charset=utf-8"
        if path.startswith("/debug/"):
            if method != "GET":
                return self._method_not_allowed()
            return self._debug_endpoint(path)
        if path in ("/rewrite", "/explain", "/evaluate"):
            if method != "POST":
                return self._method_not_allowed()
            return await self._admit(path, body, ctx)
        return 404, _json_bytes(
            {"error": {"message": f"no such endpoint: {path}"}}), \
            "application/json"

    # -- debug introspection -------------------------------------------------

    def _debug_endpoint(self, path: str) -> tuple[int, bytes, str]:
        """The ``/debug`` family: schema-versioned recorder + state JSON."""
        payload: dict = {"schema_version": RECORDER_SCHEMA_VERSION}
        if path == "/debug/requests":
            payload["recorder"] = self.recorder.stats()
            payload["requests"] = [r.to_json()
                                   for r in self.recorder.snapshot()]
        elif path.startswith("/debug/requests/"):
            request_id = path[len("/debug/requests/"):]
            record = self.recorder.get(request_id)
            if record is None:
                return 404, _json_bytes(
                    {"error": {"message":
                               f"no such request: {request_id}"}}), \
                    "application/json"
            payload["request"] = record.to_json(detail=True)
        elif path == "/debug/slow":
            payload["slow_ms"] = self.recorder.slow_ms
            payload["requests"] = [r.to_json(detail=True)
                                   for r in self.recorder.slow_requests()]
        elif path == "/debug/cache":
            payload["tables"] = self._cache_status()
        elif path == "/debug/sessions":
            payload["pool"] = self.pool.stats()
            payload["sessions"] = self.pool.debug_info()
        elif path == "/debug/store":
            store = self._store_status()
            payload["persistent"] = store is not None
            payload["store"] = store
        else:
            return 404, _json_bytes(
                {"error": {"message": f"no such endpoint: {path}"}}), \
                "application/json"
        return 200, _json_bytes(payload), "application/json"

    def _cache_status(self) -> dict:
        """Memo-table statistics aggregated across live sessions."""
        totals: dict[str, dict] = {}
        for info in self.pool.debug_info():
            for table, stats in info["tables"].items():
                agg = totals.setdefault(table, {
                    "size": 0, "capacity": 0, "hits": 0, "misses": 0,
                    "evictions": 0})
                for field_name in agg:
                    agg[field_name] += stats.get(field_name, 0)
        for agg in totals.values():
            lookups = agg["hits"] + agg["misses"]
            agg["hit_rate"] = (agg["hits"] / lookups) if lookups else None
        return totals

    def _refresh_gauges(self) -> None:
        """Set the point-in-time gauges a ``/metrics`` scrape reports."""
        registry = self.registry
        queue = self.pool.queue_stats()
        registry.set_gauge("server.in_flight", self._in_flight)
        registry.set_gauge("server.queue.depth", queue["pending"])
        registry.set_gauge("server.pool.active", queue["active"])
        registry.set_gauge("server.sessions.live", len(self.pool))
        recorder = self.recorder.stats()
        registry.set_gauge("recorder.requests", recorder["size"])
        tables: dict[str, int] = {}
        for info in self.pool.debug_info():
            for table, stats in info["tables"].items():
                tables[table] = tables.get(table, 0) + stats["size"]
        for table, size in sorted(tables.items()):
            registry.set_gauge("server.memo.entries", size,
                               labels={"table": table})
        if self.layout is not None:
            store = self._store_status()
            if store is not None and "cache_entries" in store:
                registry.set_gauge("store.cache.entries",
                                   store["cache_entries"])
                registry.set_gauge("store.persisted_sessions",
                                   store["persisted_sessions"])
                registry.set_gauge("store.persisted_memo_entries",
                                   store["persisted_memo_entries"])

    def _store_status(self) -> dict | None:
        """The ``store`` section of ``/healthz`` (persistent mode only).

        Everything here is read from the storage directory, so it
        reflects what a restart would find: the store version, persisted
        cache entries, persisted session memos, and the newest flush
        timestamp (the max mtime over cache/session documents).
        """
        if self.layout is None:
            return None
        from ..errors import StorageError
        from ..storage import CacheStore
        from ..storage.durable import current_store_version
        layout = self.layout
        try:
            layout.read_manifest()
            version = current_store_version(layout)
        except StorageError as exc:
            return {"root": str(layout.root), "error": str(exc)}
        cache = CacheStore(layout.cache_file).persisted()
        last_flush = cache["written"]
        sessions = self.pool.registry.stats() \
            if self.pool.registry is not None else {"sessions": 0,
                                                    "entries": {}}
        if layout.sessions_dir.exists():
            for path in layout.sessions_dir.glob("session-*.json"):
                last_flush = max(last_flush or 0.0,
                                 path.stat().st_mtime)
        return {
            "root": str(layout.root),
            "store_version": version,
            "cache_entries": cache["entries"],
            "persisted_sessions": sessions["sessions"],
            "persisted_memo_entries": sum(sessions["entries"].values()),
            "last_flush": last_flush,
        }

    def _method_not_allowed(self) -> tuple[int, bytes, str]:
        return 405, _json_bytes(
            {"error": {"message": "method not allowed"}}), \
            "application/json"

    async def _admit(self, path: str, body: bytes,
                     ctx: RequestContext) -> tuple[int, bytes, str]:
        """Load-shed, start the admission-time budget, and dispatch.

        A ``/rewrite`` or ``/explain`` body seen before is not decoded
        again: the loop keeps the decoded request by ``(path, body)``.
        When the pool holds its session and the session memo holds its
        answer, the loop answers it without a worker (a replay, never a
        search); everything else runs on the pool.
        """
        if self._in_flight >= self.config.max_pending:
            self.registry.increment("server.shed")
            return 429, _json_bytes(
                {"error": {"message":
                           f"server over capacity "
                           f"({self._in_flight} requests in flight); "
                           f"retry later"}}), "application/json"
        explain_only = path == "/explain"
        decoded_key = (path, body)
        request = self._decoded.get(decoded_key)
        if request is not None:
            self._decoded.move_to_end(decoded_key)
            budget = self._request_budget(request.budget_ms,
                                          request.max_steps)
            session = self.pool.live_session(request.config_key)
            memoized = None if session is None else session.peek_result(
                request.query, request.flags,
                need_explanation=request.explain)
            if memoized is not None:
                status, payload = self._run_rewrite(
                    request, budget, explain_only, ctx, (session, memoized))
                return status, _json_bytes(payload), "application/json"
            data = request
            handler = functools.partial(self._run_decoded,
                                        explain_only=explain_only)
        else:
            try:
                data = json.loads(body.decode("utf-8")) if body else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, _json_bytes(
                    {"error": {"message": f"request body is not valid "
                                          f"JSON: {exc}"}}), \
                    "application/json"
            raw = data if isinstance(data, dict) else {}
            budget = self._request_budget(raw.get("budget_ms"),
                                          raw.get("max_steps"))
            if path == "/evaluate":
                handler = self._do_evaluate
            else:
                handler = functools.partial(self._do_rewrite,
                                            explain_only=explain_only)
        # The queued span covers executor wait; the worker closes it the
        # moment it picks the job up, stitching loop and worker phases
        # into one tree (the tracer is only ever touched sequentially).
        queued = ctx.tracer.span("queued")
        self._in_flight += 1
        try:
            status, payload, request = await self.pool.submit(
                self._run_on_worker, handler, data, budget, ctx, queued)
        finally:
            self._in_flight -= 1
        if request is not None and len(body) <= DECODED_BODY_BYTES:
            self._decoded[decoded_key] = request
            self._decoded.move_to_end(decoded_key)
            if len(self._decoded) > DECODED_REQUESTS:
                self._decoded.popitem(last=False)
        return status, _json_bytes(payload), "application/json"

    @staticmethod
    def _run_on_worker(handler, data, budget, ctx: RequestContext,
                       queued_span) -> tuple[int, dict, object]:
        queued_span.__exit__(None, None, None)
        return handler(data, budget, ctx)

    def _request_budget(self, raw_ms, raw_steps) -> Budget | None:
        """The per-request budget, clocked from admission time.

        The deadline/step limits come from the request's ``budget_ms``
        and ``max_steps`` when given (positive numbers), else the server
        defaults.  Created *before* the request waits for a worker, so
        queueing time counts against the deadline (the
        cooperative-cancellation admission control of ``repro.obs``).
        """
        budget_ms = self.config.default_budget_ms
        max_steps = self.config.default_max_steps
        if isinstance(raw_ms, (int, float)) \
                and not isinstance(raw_ms, bool) and raw_ms > 0:
            budget_ms = float(raw_ms)
        if isinstance(raw_steps, int) \
                and not isinstance(raw_steps, bool) and raw_steps > 0:
            max_steps = raw_steps
        if budget_ms is None and max_steps is None:
            return None
        return Budget(deadline_ms=budget_ms, max_steps=max_steps)

    # -- endpoint workers (run on pool threads) ------------------------------
    #
    # Each returns ``(status, payload, decoded request or None)``; the
    # loop keeps a decoded request so the same body is not decoded again.

    def _do_rewrite(self, data, budget, ctx: RequestContext, *,
                    explain_only: bool = False):
        try:
            request = RewriteRequest.from_json(data, explain=explain_only)
        except BadRequestError as exc:
            return 400, exc.to_json(), None
        return self._run_decoded(request, budget, ctx,
                                 explain_only=explain_only)

    def _run_decoded(self, request: RewriteRequest, budget,
                     ctx: RequestContext, *, explain_only: bool):
        status, payload = self._run_rewrite(request, budget, explain_only,
                                            ctx)
        return status, payload, request

    def _run_rewrite(self, request: RewriteRequest, budget,
                     explain_only: bool, ctx: RequestContext,
                     hit=None) -> tuple[int, dict]:
        """Answer a decoded request on the pool's session for its
        configuration, or, given *hit* (the live session and the memo
        entry the loop peeked in it), on that session.  Either way the
        pool counts the session's use only past the budget check, where
        the request goes on to use it."""
        ctx.explain_requested = request.explain
        if budget is not None:
            try:
                budget.check()   # expired while queued -> 408, no search
            except BudgetExceededError as exc:
                ctx.memo = "miss"
                ctx.truncated = True
                ctx.stop_reason = exc.reason or "deadline"
                return 408, self._timeout_payload(exc)
        ctx.config_key = request.config_key
        ctx.query_key = request.query_key
        if hit is None:
            session = self.pool.session_for(
                request.views, request.constraints, request.config_key)
            # session.rewrite() performs (and counts) the one memo lookup
            # of this request; peeking only picks the EXPLAIN capture.
            memoized = session.peek_result(request.query, request.flags,
                                           need_explanation=request.explain)
        else:
            session, memoized = hit
            self.pool.reuse(request.config_key)
        memo = "hit" if memoized is not None else "miss"
        ctx.memo = memo
        # Tail-based capture wants an EXPLAIN for every recorded search,
        # not only explicit explain requests -- but never at the price
        # of demoting a memo hit whose persisted entry has no decision
        # log (restart-warmed sessions) into a recompute.
        explanation: Explanation | None = None
        if request.explain:
            explanation = Explanation()
        elif self.recorder.enabled \
                and (memoized is None or memoized[1] is not None):
            explanation = Explanation()
        ctx.explanation = explanation
        try:
            result = session.rewrite(
                request.query, **request.flags._asdict(), budget=budget,
                tracer=ctx.tracer, explain=explanation)
        except ChaseContradictionError as exc:
            return 422, {"error": {
                "message": f"the query is unsatisfiable: {exc}"}}
        except RewritingError as exc:
            return 422, {"error": {"message": str(exc)}}

        ctx.truncated = result.stats.truncated
        ctx.stop_reason = result.stats.stop_reason
        stats_json = result.stats.to_json()
        ctx.counters = {name: stats_json[name]
                        for name in _RECORD_COUNTERS
                        if name in stats_json}
        status = 200
        if result.stats.truncated \
                and result.stats.stop_reason in _BUDGET_REASONS:
            status = 408
        payload: dict = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "memo": memo,
            "truncated": result.stats.truncated,
            "stop_reason": result.stats.stop_reason,
        }
        if explain_only:
            payload["found"] = bool(result.rewritings)
            payload["explanation"] = explanation.to_json()
        else:
            payload["rewritings"] = [
                {"query": print_query(r.query), "flavor": "equivalent"}
                for r in result.rewritings]
            payload["stats"] = stats_json
            if request.explain:
                payload["explanation"] = explanation.to_json()
        return status, payload

    def _do_evaluate(self, data, budget, ctx: RequestContext):
        from ..tsl import evaluate
        try:
            request = EvaluateRequest.from_json(data)
        except BadRequestError as exc:
            return 400, exc.to_json(), None
        if budget is not None:
            try:
                budget.check()
            except BudgetExceededError as exc:
                ctx.truncated = True
                ctx.stop_reason = exc.reason or "deadline"
                return 408, self._timeout_payload(exc), None
        ctx.query_key = query_key(request.query)
        try:
            with ctx.tracer.span("evaluate"):
                answer = evaluate(request.query, request.database)
        except ReproError as exc:
            return 422, {"error": {"message": str(exc)}}, None
        return 200, {
            "schema_version": SERVE_SCHEMA_VERSION,
            "answer": database_to_json(answer),
            "roots": len(answer.roots),
            "objects": answer.stats()["objects"],
        }, None

    @staticmethod
    def _timeout_payload(exc: BudgetExceededError) -> dict:
        """The 408 body for a request that never reached the search.

        Mirrors the truncated-search shape (empty partial result), so
        clients handle both 408 flavors uniformly.
        """
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "memo": "miss",
            "truncated": True,
            "stop_reason": exc.reason or "deadline",
            "rewritings": [],
            "error": {"message": str(exc)},
        }
