"""Per-layer self times from the program's own trace spans.

The program records a span tree per request on a
:class:`repro.obs.Tracer`: the server opens one per request (root
``request``, then ``queued``), the rewriting engine adds ``rewrite``,
``prepare``, ``enumerate_mappings``, ``candidate``, ``chase``,
``compose`` and ``equivalence`` on the tracer it is handed, and the
evaluator adds ``evaluate``.  The benchmark reads those spans and adds
spans *on the same tracer* only for layers the program does not
instrument:

``worker``     the endpoint's code on a pool thread (its end marks the
               hand-off back to the event loop)
``decode``     request schema, TSL and DTD parsing
``session``    configuration key and session acquire
``memo``       result-memo lookup and store
``canon``      canonical forms, the keys of every memo table
``minimize``   query minimization
``serialize``  response JSON encoding on the event loop
``repository`` / ``views`` / ``cache`` / ``maintenance`` / ``store``
               the in-process repository facade, which has no tracer

Some callers pass no tracer to engine entry points that take one (the
repository facade calls ``rewrite`` and ``evaluate`` without one, and
the engine chases a composition without one), so the benchmark hands
those entry points the current request's tracer and they record their
own spans.  Outside the root span the server spends time
on HTTP framing and on the flight recorder (request identity before the
root opens, record-keeping after it closes); those two are timed from
outside, as intervals whose order is checked.

Each span tree is validated (every span closed, inside its parent, not
overlapping its siblings); a violation is an error, not a clipped span.
The ``install_*`` functions run only for ``--trace 1``; end-to-end
numbers come from untraced runs.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time

_now = time.perf_counter

#: The tracer of the request the current thread or asyncio task serves.
CURRENT = contextvars.ContextVar("perfbench_tracer", default=None)

#: Layer of each span name (program span names, then benchmark ones).
#: The server's root ``request`` span is the event loop's own work.
LAYER_OF = {
    "request": "loop", "queued": "queue", "rewrite": "rewrite",
    "prepare": "prepare", "enumerate_mappings": "mappings",
    "candidate": "candidate", "chase": "chase", "compose": "compose",
    "equivalence": "equivalence", "evaluate": "evaluate",
    "evaluate.rule": "evaluate",
}
for _name in ("worker", "decode", "session", "memo", "canon", "minimize",
              "serialize", "repository", "views", "cache", "maintenance",
              "store"):
    LAYER_OF[_name] = _name


def _spanned(name: str, fn):
    """*fn* inside a span *name* on the current request's tracer."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = CURRENT.get()
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _traced(fn):
    """*fn* (which takes ``tracer=``) given the current request's
    tracer when its caller passes none."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs.get("tracer") is None:
            kwargs["tracer"] = CURRENT.get()
        return fn(*args, **kwargs)
    return wrapper


def _patch(owner, name: str, make) -> None:
    """Replace method ``owner.name`` with ``make(original)``, keeping
    its kind (plain, static or class method)."""
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def _rebind(module_name: str, name: str, make) -> None:
    """Replace function ``module.name`` with ``make(original)`` in every
    loaded ``repro`` module that binds it (``from x import f`` copies
    the binding), so no caller keeps the unwrapped one."""
    original = getattr(importlib.import_module(module_name), name)
    wrapped = make(original)
    for loaded, module in list(sys.modules.items()):
        if (loaded == "repro" or loaded.startswith("repro.")) \
                and getattr(module, name, None) is original:
            setattr(module, name, wrapped)


#: Program entry points that take ``tracer=`` but are also called
#: without one (by the repository facade, or inside the engine, as when
#: a composition is prepared): (defining module, function).
_TRACED = (("repro.rewriting.rewriter", "rewrite"),
           ("repro.rewriting.chase", "chase"),
           ("repro.rewriting.composition", "compose"),
           ("repro.rewriting.equivalence", "programs_equivalent"),
           ("repro.tsl.evaluator", "evaluate"))


def _install_common() -> None:
    from repro.rewriting.session import RewriteSession
    for module_name, name in _TRACED:
        _rebind(module_name, name, _traced)
    for method in ("lookup_result", "store_result"):
        _patch(RewriteSession, method, lambda fn: _spanned("memo", fn))
    _rebind("repro.rewriting.canon", "canonicalize",
            lambda fn: _spanned("canon", fn))
    _rebind("repro.rewriting.equivalence", "minimize",
            lambda fn: _spanned("minimize", fn))


def install_library() -> None:
    """Spans for the repository facade and the engine."""
    from repro.repository.cache import QueryCache
    from repro.repository.repository import Repository
    from repro.repository.store import Store
    from repro.repository.views import ViewManager
    _install_common()
    for owner, methods in (
            (Repository, {"query_with_report": "repository",
                          "add_atomic": "repository",
                          "add_set": "repository",
                          "add_child": "repository",
                          "add_root": "repository"}),
            (ViewManager, {"fresh_views": "views",
                           "apply_update": "maintenance"}),
            (QueryCache, {"lookup": "cache", "insert": "cache",
                          "session": "cache", "apply_update": "maintenance"}),
            (Store, {"add_atomic": "store", "add_set": "store",
                     "add_child": "store", "add_root": "store"})):
        for method, layer in methods.items():
            _patch(owner, method,
                   lambda fn, layer=layer: _spanned(layer, fn))


class ServerLog:
    """What the server wrappers collect, per request id: the program's
    span tree and tracer, and the outside-the-root instants
    ``read`` (first request line arrived), ``context`` (request identity
    begun), ``finished`` (record-keeping done) and ``written`` (the
    response write begun)."""

    def __init__(self) -> None:
        self.tracers: dict = {}
        self.marks: dict = {}

    def mark(self, rid, name: str, at: float) -> None:
        self.marks.setdefault(rid, {})[name] = at


class _TimedReader:
    """Marks when the first line of a request arrives on a kept-alive
    connection, so idle time between requests is not framing time."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first: float | None = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first is None:
            self.first = _now()
        return line

    async def readexactly(self, n: int):
        return await self._reader.readexactly(n)


def install_server(log: ServerLog) -> None:
    """Spans for the server layers the program does not trace, and the
    marks around its root span."""
    from repro.server.app import ReproServer
    from repro.server.pool import SessionPool
    from repro.server.schemas import RewriteRequest
    _install_common()
    _patch(RewriteRequest, "from_json", lambda fn: _spanned("decode", fn))
    _patch(SessionPool, "session_for", lambda fn: _spanned("session", fn))
    _rebind("repro.server.pool", "config_key",
            lambda fn: _spanned("session", fn))
    _rebind("repro.server.app", "_json_bytes",
            lambda fn: _spanned("serialize", fn))

    def read_request(fn):
        @functools.wraps(fn)
        async def wrapper(self, reader):
            timed = _TimedReader(reader)
            request = await fn(self, timed)
            if request is not None and timed.first is not None:
                log.mark(request[2].get("x-repro-request-id"), "read",
                         timed.first)
            return request
        return wrapper

    def request_context(fn):
        @functools.wraps(fn)
        def wrapper(self, headers):
            start = _now()
            ctx = fn(self, headers)
            log.mark(ctx.request_id, "context", start)
            log.tracers[ctx.request_id] = ctx.tracer
            return ctx
        return wrapper

    def dispatch(fn):
        @functools.wraps(fn)
        async def wrapper(self, method, path, body, ctx):
            token = CURRENT.set(ctx.tracer)
            try:
                return await fn(self, method, path, body, ctx)
            finally:
                CURRENT.reset(token)
        return wrapper

    def run_on_worker(fn):
        @functools.wraps(fn)
        def wrapper(handler, data, budget, ctx, queued_span):
            def worker(data, budget, ctx):
                token = CURRENT.set(ctx.tracer)
                try:
                    with ctx.tracer.span("worker"):
                        return handler(data, budget, ctx)
                finally:
                    CURRENT.reset(token)
            return fn(worker, data, budget, ctx, queued_span)
        return wrapper

    def finish_request(fn):
        @functools.wraps(fn)
        def wrapper(self, ctx, *args):
            try:
                return fn(self, ctx, *args)
            finally:
                log.mark(ctx.request_id, "finished", _now())
        return wrapper

    def write_response(fn):
        @functools.wraps(fn)
        async def wrapper(self, writer, status, payload, content_type,
                          keep_alive, extra_headers=()):
            # Once the response is on the socket the caller may run on,
            # so the server's share ends as the write begins.
            log.mark(dict(extra_headers).get("X-Repro-Request-Id"),
                     "written", _now())
            return await fn(self, writer, status, payload, content_type,
                            keep_alive, extra_headers)
        return wrapper

    _patch(ReproServer, "_read_request", read_request)
    _patch(ReproServer, "_request_context", request_context)
    _patch(ReproServer, "_dispatch", dispatch)
    _patch(ReproServer, "_run_on_worker", run_on_worker)
    _patch(ReproServer, "_finish_request", finish_request)
    _patch(ReproServer, "_write_response", write_response)


# -- the waterfall --------------------------------------------------------------

class Waterfall:
    """Per-layer self time (seconds), span counts and memo outcomes,
    summed over requests, and the problems found in their trees."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.memo = {"hit": 0, "lookups": 0}
        self.problems = 0
        self.first_problem: str | None = None

    def charge(self, layer: str, seconds: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds

    def problem(self, text: str) -> None:
        self.problems += 1
        if self.first_problem is None:
            self.first_problem = text

    def add_tree(self, rid, tracer) -> list[tuple[float, float]]:
        """Charge one request's span tree; return its root intervals in
        absolute ``perf_counter`` seconds.

        A span's self time is its duration less its children's, so the
        self times of a valid tree add up to its roots' durations.
        """
        spans = {}
        for span in tracer.spans:
            if span.end is None:
                self.problem(f"{rid}: span {span.name} left open")
            elif span.name not in LAYER_OF:
                self.problem(f"{rid}: span {span.name} of no layer")
            else:
                spans[span.span_id] = span
        children: dict = {None: []}
        for span in spans.values():
            parent = spans.get(span.parent_id)
            if span.parent_id is not None and parent is None:
                self.problem(f"{rid}: {span.name} lost its parent")
                continue
            if parent is not None and not (
                    parent.start <= span.start and span.end <= parent.end):
                self.problem(f"{rid}: {span.name} outside {parent.name}")
            children.setdefault(span.parent_id, []).append(span)
        for kids in children.values():
            kids.sort(key=lambda span: span.start)
            for before, after in zip(kids, kids[1:]):
                if before.end > after.start:
                    self.problem(f"{rid}: {before.name} overlaps "
                                 f"{after.name}")
        for span in spans.values():
            kids = children.get(span.span_id, ())
            layer = LAYER_OF[span.name]
            self.charge(layer, span.duration
                        - sum(kid.duration for kid in kids))
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            if span.name == "rewrite":
                self.memo["lookups"] += 1
                self.memo["hit"] += span.attrs.get("memo") == "hit"
            if span.parent_id is not None:
                continue
            # The loop's wait from the worker's return to its own next
            # step (serialization) is the hand-off, not loop work.
            for before, after in zip(kids, kids[1:]):
                if before.name == "worker":
                    self.charge("handoff", after.start - before.end)
                    self.charge(layer, before.end - after.start)
        return [(tracer.epoch + root.start, tracer.epoch + root.end)
                for root in children[None]]


def served_waterfall(log: ServerLog, ids) -> tuple[Waterfall, dict]:
    """The waterfall of the served requests *ids* and, per request, the
    instants its server-side handling began and ended.

    Around the root span the order must be: first request line read,
    request identity begun, root opened and closed, record-keeping
    done, response written.  The flight recorder's share is the time
    from identity to root and from root to the end of record-keeping;
    the rest of the server's handling outside the root is HTTP framing.
    """
    waterfall = Waterfall()
    timeline = {}
    for rid in ids:
        tracer, marks = log.tracers.get(rid), log.marks.get(rid, {})
        if tracer is None or len(marks) != 4:
            waterfall.problem(f"{rid}: not traced by the server")
            continue
        roots = waterfall.add_tree(rid, tracer)
        if len(roots) != 1:
            waterfall.problem(f"{rid}: {len(roots)} root spans")
            continue
        (start, end), = roots
        points = [marks["read"], marks["context"], start, end,
                  marks["finished"], marks["written"]]
        if points != sorted(points):
            waterfall.problem(f"{rid}: server instants out of order")
        waterfall.charge("recorder",
                         start - marks["context"] + marks["finished"] - end)
        waterfall.charge("http", marks["written"] - marks["read"]
                         - (marks["finished"] - marks["context"]))
        timeline[rid] = (marks["read"], marks["written"])
    return waterfall, timeline
