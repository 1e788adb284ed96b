"""Hierarchical trace spans for the rewriting pipeline.

Every phase of the rewriting algorithm is worst-case exponential
(Section 5.1), so understanding *where* a run spends its time matters as
much as the result.  A :class:`Tracer` records a tree of **spans** --
named enter/exit intervals with wall-clock timing, structured attributes
(``span.set``) and counters (``span.add``) -- that the exporters in
:mod:`repro.obs.export` turn into JSON-lines, Chrome trace-event, or
human-readable tree form.

The disabled path must be free: library entry points default to
:data:`NULL_TRACER`, whose ``span()`` returns a shared no-op context
manager without allocating anything.  Hot loops can additionally guard
on ``tracer.enabled`` before building attribute dictionaries.

Tracers are single-threaded by design (one tracer per pipeline run);
use one tracer per thread when running concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["SpanRecord", "Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class SpanRecord:
    """One completed (or still-open) span.

    Times are seconds relative to the tracer's epoch; ``end`` is ``None``
    while the span is open.  Records are stored in *start* order, which
    together with ``parent_id`` fully determines the tree.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": self.start * 1e3,
            "end_ms": None if self.end is None else self.end * 1e3,
            "duration_ms": self.duration * 1e3,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
        }


class Span:
    """Context-manager handle for one live span."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, key: str, value) -> None:
        """Attach a structured attribute to the span."""
        self.record.attrs[key] = value

    def add(self, counter: str, amount: int | float = 1) -> None:
        """Bump a per-span counter."""
        counters = self.record.counters
        counters[counter] = counters.get(counter, 0) + amount

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self.record)
        return False


class Tracer:
    """Collects a tree of spans for one pipeline run."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> Span:
        """Open a span nested under the currently-open one."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start=self._clock() - self.epoch,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record.span_id)
        return Span(self, record)

    def _exit(self, record: SpanRecord) -> None:
        record.end = self._clock() - self.epoch
        # Exceptions may unwind several spans; pop through to this one.
        # A span exiting twice or out of order is no longer on the stack;
        # popping anyway would drain unrelated open spans.
        if record.span_id not in self._stack:
            return
        while self._stack:
            span_id = self._stack.pop()
            if span_id == record.span_id:
                break

    # -- tree accessors ----------------------------------------------------

    def roots(self) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, record: SpanRecord) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent_id == record.span_id]

    def walk(self) -> Iterator[tuple[SpanRecord, int]]:
        """Depth-first (record, depth) pairs in start order."""
        by_parent: dict[int | None, list[SpanRecord]] = {}
        for record in self.spans:
            by_parent.setdefault(record.parent_id, []).append(record)

        def visit(parent_id, depth):
            for record in by_parent.get(parent_id, ()):
                yield record, depth
                yield from visit(record.span_id, depth + 1)

        yield from visit(None, 0)


class _NullSpan:
    """Shared, allocation-free stand-in for a disabled span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def add(self, counter: str, amount: int | float = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead disabled tracer: every span is the same no-op."""

    __slots__ = ()
    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def roots(self) -> list:
        return []

    def children(self, record) -> list:
        return []

    def walk(self) -> Iterator:
        return iter(())


NULL_TRACER = NullTracer()
