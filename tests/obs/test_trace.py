"""Span nesting, ordering, attributes, and the no-op tracer."""

import pytest

from repro.obs import NULL_TRACER, Tracer


class FakeClock:
    """Deterministic clock: advances by a fixed amount per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestSpanTree:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass

        root, child, grandchild, sibling = tracer.spans
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == root.span_id

    def test_spans_recorded_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]
        assert [s.span_id for s in tracer.spans] == [0, 1, 2]

    def test_walk_yields_depth_first_with_depths(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        walked = [(s.name, depth) for s, depth in tracer.walk()]
        assert walked == [("root", 0), ("child", 1),
                          ("grandchild", 2), ("sibling", 1)]

    def test_durations_are_nested_and_positive(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.duration > 0
        assert inner.duration > 0
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_attrs_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.set("detail", 42)
            span.add("items")
            span.add("items", 2)
        record = tracer.spans[0]
        assert record.attrs == {"kind": "test", "detail": 42}
        assert record.counters == {"items": 3}

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer, inner = tracer.spans
        assert inner.end is not None
        assert outer.end is not None
        assert inner.attrs["error"] == "ValueError"
        # After unwinding, new spans are roots again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_roots_and_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        (root,) = tracer.roots()
        assert root.name == "a"
        assert [c.name for c in tracer.children(root)] == ["b"]

    def test_double_exit_does_not_drain_stack(self):
        tracer = Tracer()
        root_span = tracer.span("root")
        child_span = tracer.span("child")
        child_span.__exit__(None, None, None)
        # Exiting again must not pop "root" off the stack.
        child_span.__exit__(None, None, None)
        with tracer.span("late"):
            pass
        assert tracer.spans[-1].parent_id == root_span.record.span_id
        root_span.__exit__(None, None, None)

    def test_out_of_order_exit_keeps_parent_attribution(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__exit__(None, None, None)  # unwinds inner too
        inner.__exit__(None, None, None)  # id already gone: must be a no-op
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None


class TestNullTracer:
    def test_span_is_shared_noop(self):
        first = NULL_TRACER.span("anything", key="value")
        second = NULL_TRACER.span("other")
        assert first is second  # no allocation on the disabled path

    def test_noop_span_accepts_api(self):
        with NULL_TRACER.span("x") as span:
            span.set("a", 1)
            span.add("b")
        assert NULL_TRACER.enabled is False
        assert list(NULL_TRACER.spans) == []

    def test_tree_accessors_are_empty(self):
        assert NULL_TRACER.roots() == []
        assert list(NULL_TRACER.walk()) == []
        record = NULL_TRACER.span("x")
        assert NULL_TRACER.children(record) == []
