"""Tests for the span/timer API and the runtime switch."""

from __future__ import annotations

import pytest

from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_HISTOGRAM, current_span, span
from repro.obs.trace import TraceBuffer


@pytest.fixture
def registry():
    reg = runtime.enable(registry=MetricsRegistry())
    yield reg
    runtime.disable()


class TestSpanDisabled:
    def test_disabled_span_is_shared_noop(self):
        assert not runtime.enabled()
        first = span("a")
        second = span("b", anything=1)
        assert first is second  # the shared null span, no allocation

    def test_disabled_span_nests_without_state(self):
        with span("outer"):
            with span("inner"):
                assert current_span() is None


class TestSpanEnabled:
    def test_duration_recorded_into_histogram(self, registry):
        with span("work"):
            pass
        family = registry.get(SPAN_HISTOGRAM)
        assert family is not None
        child = family.labels(span="work")
        assert child.count == 1
        assert child.sum > 0.0

    def test_nesting_tracks_parent_and_depth(self, registry):
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        assert outer.duration >= inner.duration

    def test_exception_propagates_and_still_records(self, registry):
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        child = registry.get(SPAN_HISTOGRAM).labels(span="failing")
        assert child.count == 1


class TestSpanRecords:
    def test_records_carry_parent_attrs_and_duration(self):
        buffer = TraceBuffer()
        runtime.enable(registry=MetricsRegistry(), trace=buffer)
        try:
            with span("outer", bits=64) as outer_span:
                with span("inner"):
                    pass
        finally:
            runtime.disable()
        [trace_id] = buffer.trace_ids()
        records = buffer.spans(trace_id)
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert outer.span_id == outer_span.context.span_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"bits": 64}
        assert outer.duration >= inner.duration
        assert outer.error is None
        assert outer.start > 0.0

    def test_failed_span_records_the_exception(self):
        buffer = TraceBuffer()
        runtime.enable(registry=MetricsRegistry(), trace=buffer)
        try:
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("x")
        finally:
            runtime.disable()
        [trace_id] = buffer.trace_ids()
        (record,) = buffer.spans(trace_id)
        assert record.error == "RuntimeError"


class TestRuntimeSwitch:
    def test_enable_disable_roundtrip(self):
        assert not runtime.enabled()
        reg = runtime.enable()
        assert runtime.enabled()
        assert runtime.registry() is reg
        assert runtime.disable() is reg
        assert not runtime.enabled()
        assert runtime.disable() is None  # idempotent

    def test_enable_keeps_existing_registry(self):
        reg = runtime.enable()
        try:
            assert runtime.enable() is reg
        finally:
            runtime.disable()

    def test_accessors_are_noops_when_disabled(self):
        runtime.counter("repro_ghost_total").inc()
        runtime.gauge("repro_ghost").set(4)
        runtime.histogram("repro_ghost_seconds").observe(0.1)
        reg = runtime.enable()
        try:
            assert reg.get("repro_ghost_total") is None
        finally:
            runtime.disable()
