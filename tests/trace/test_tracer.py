"""Tests for the span tracer: lifecycle, parenting, null objects."""

import pytest

from repro.sim.engine import Simulator
from repro.trace.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer


class TestSpanLifecycle:
    def test_start_and_finish(self):
        tracer = Tracer()
        span = tracer.start_span("masc.claim", layer="masc", node="M1")
        assert span.open
        assert span.status == "open"
        span.finish(status="confirmed", attempts=2)
        assert not span.open
        assert span.status == "confirmed"
        assert span.attrs == {"node": "M1", "attempts": 2}

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.finish(status="first")
        span.finish(status="second")
        assert span.status == "first"

    def test_sequential_ids(self):
        tracer = Tracer()
        spans = [tracer.start_span(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_clock_binding(self):
        sim = Simulator()
        tracer = Tracer().bind_clock(sim)
        sim.schedule(5.0, lambda: tracer.start_span("late"))
        sim.run()
        assert tracer.spans[0].start == 5.0

    def test_duration(self):
        sim = Simulator()
        tracer = Tracer().bind_clock(sim)
        span = tracer.start_span("s")
        sim.schedule(3.0, span.finish)
        sim.run()
        assert span.duration == 3.0

    def test_events_carry_time_and_attrs(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.event("collide", blocked_by="M2")
        assert span.events[0].name == "collide"
        assert span.events[0].attrs == {"blocked_by": "M2"}


class TestLexicalSpans:
    def test_with_block_finishes_ok(self):
        tracer = Tracer()
        with tracer.span("bgp.converge", layer="bgp") as span:
            assert tracer.current is span
        assert span.status == "ok"
        assert tracer.current is None

    def test_exception_marks_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s") as span:
                raise RuntimeError("boom")
        assert span.status == "error"

    def test_explicit_finish_inside_with_keeps_status(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.finish(status="converged", rounds=3)
        assert span.status == "converged"
        assert tracer.current is None

    def test_nested_spans_parent_automatically(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert tracer.children_of(outer) == [inner]

    def test_start_span_inherits_lexical_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            detached = tracer.start_span("transaction")
        assert detached.parent_id == outer.span_id
        # Non-lexical: survives the with block.
        assert detached.open

    def test_explicit_parent_wins(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("other"):
            child = tracer.start_span("child", parent=root)
        assert child.parent_id == root.span_id


class TestTracerEvents:
    def test_event_lands_on_current_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.event("round", index=1)
        assert span.events[0].name == "round"
        assert not tracer.orphan_events

    def test_event_without_span_is_orphan(self):
        tracer = Tracer()
        tracer.event("masc.claim", domain="T1")
        assert len(tracer.orphan_events) == 1
        assert not tracer.spans


class TestIntrospection:
    def test_active_and_finished(self):
        tracer = Tracer()
        open_span = tracer.start_span("a")
        done = tracer.start_span("b")
        done.finish()
        assert tracer.active_spans() == [open_span]
        assert tracer.finished_spans() == [done]

    def test_spans_named(self):
        tracer = Tracer()
        tracer.start_span("x")
        tracer.start_span("y")
        tracer.start_span("x")
        assert len(tracer.spans_named("x")) == 2

    def test_render(self):
        tracer = Tracer()
        span = tracer.start_span("masc.claim", layer="masc")
        span.finish(status="confirmed")
        assert span.render() == (
            "#1 masc.claim [masc] t=0..0 status=confirmed"
        )


class TestNullObjects:
    def test_null_tracer_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        span = tracer.start_span("s", layer="l", a=1)
        span.event("e")
        span.finish(status="whatever")
        tracer.event("orphan")
        with tracer.span("lexical"):
            pass
        assert len(tracer) == 0
        assert tracer.active_spans() == []
        assert tracer.spans_named("s") == []

    def test_null_span_is_shared_and_inert(self):
        tracer = NullTracer()
        assert tracer.start_span("a") is NULL_SPAN
        assert tracer.span("b") is NULL_SPAN
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        assert not NULL_SPAN.open
