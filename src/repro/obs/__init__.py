"""Observability for the exponential rewriting pipeline.

Every phase of the Section 3.4 algorithm -- mapping discovery, candidate
enumeration, composition, equivalence testing -- is worst-case
exponential (Section 5.1).  This package provides the three tools a
production deployment needs to live with that:

* :class:`Tracer` -- hierarchical trace **spans** (wall-clock enter/exit
  with structured attributes and counters), exported as JSON-lines,
  Chrome trace-event format, or a text tree (:mod:`repro.obs.export`).
* :class:`MetricsRegistry` -- a process-wide registry of **counters and
  histograms** with a snapshot/reset API (:data:`METRICS` is the default
  instance).
* :class:`Budget` -- **resource budgets**: a wall-clock deadline and/or a
  step budget with cooperative cancellation.  Expiry raises the typed
  :class:`BudgetExceededError`; pipeline entry points catch it and
  return partial results flagged ``truncated``.

All three are zero-overhead when unused: the library defaults to
:data:`NULL_TRACER` (an allocation-free no-op) and ``budget=None``
guards.  See ``docs/OBSERVABILITY.md``.
"""

from .budget import Budget, BudgetExceededError
from .metrics import (DEFAULT_BUCKETS, METRICS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .trace import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer
from .export import (TRACE_FORMATS, from_jsonl, render_prometheus,
                     to_chrome, to_jsonl, to_text, write_trace)
from .recorder import (RECORDER_SCHEMA_VERSION, FlightRecorder,
                       RequestRecord)

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "SpanRecord",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "METRICS",
    "DEFAULT_BUCKETS",
    "Budget", "BudgetExceededError",
    "to_jsonl", "from_jsonl", "to_chrome", "to_text", "write_trace",
    "TRACE_FORMATS", "render_prometheus",
    "FlightRecorder", "RequestRecord", "RECORDER_SCHEMA_VERSION",
]
