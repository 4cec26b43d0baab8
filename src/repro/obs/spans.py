"""Timing spans: scoped wall-clock measurement of named operations.

A span times a block of work and, when observability is active,
records the duration into the ``repro_span_duration_seconds``
histogram (labelled by span name)::

    from repro.obs.spans import span

    with span("sketch.and_join", bits=m):
        ... do the join ...

Nesting is tracked per thread (:func:`current_span`).

When a :class:`~repro.obs.trace.TraceBuffer` is installed
(``obs.enable(trace=...)``), spans additionally carry distributed
trace context: a root span starts a new trace, children inherit the
trace id via a contextvar, and every closed span is recorded into the
buffer — the one sink for closed spans, served by ``/traces`` and
written by ``--trace-out``.  A ``sim.period`` span around a
measurement period shows up there as the parent of every span opened
inside it.  A span may also *link* to spans in other traces (a query
touching a record delivered by an earlier upload trace) via
:meth:`Span.add_link` / :func:`add_link`.

When observability is disabled, :func:`span` returns a shared no-op
context manager without touching the clock, so sprinkling spans on hot
paths is safe.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.obs import runtime, trace as trace_mod
from repro.obs.trace import SpanRecord, TraceContext

#: Histogram fed by every closed span, labelled span=<name>.
SPAN_HISTOGRAM = "repro_span_duration_seconds"

#: Bound duration handles per span name: names are open-ended but few,
#: so handles are created on first close and reused ever after.
_duration_handles: Dict[str, "runtime.BoundMetric"] = {}
_duration_lock = threading.Lock()


def _duration_handle(name: str) -> "runtime.BoundMetric":
    handle = _duration_handles.get(name)
    if handle is None:
        with _duration_lock:
            handle = _duration_handles.get(name)
            if handle is None:
                handle = runtime.bind_histogram(
                    SPAN_HISTOGRAM,
                    help="Wall-clock duration of instrumented spans.",
                    span=name,
                )
                _duration_handles[name] = handle
    return handle


_stacks = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_stacks, "spans", None)
    if stack is None:
        stack = []
        _stacks.spans = stack
    return stack


def current_span() -> Optional["Span"]:
    """The innermost open span on this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One timed scope.  Use via :func:`span`, not directly.

    While only metrics are collected a span costs two clock reads, two
    stack operations and one histogram observe; trace context and the
    trace buffer are touched only while tracing.
    """

    __slots__ = (
        "name",
        "attrs",
        "duration",
        "context",
        "parent_context",
        "links",
        "start_ts",
        "_started",
        "_ctx_token",
    )

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.duration: Optional[float] = None
        #: This span's trace context (None unless tracing is active).
        self.context: Optional[TraceContext] = None
        #: The context this span was opened under, if any.
        self.parent_context: Optional[TraceContext] = None
        #: Cross-trace links added via :meth:`add_link`.
        self.links: List[TraceContext] = []
        self.start_ts = 0.0
        self._ctx_token = None

    def add_link(self, context: Optional[TraceContext]) -> bool:
        """Link this span to a span in another trace.

        Used when causality crosses a data boundary rather than a call
        stack: a query span links to the upload span that delivered
        (or dead-lettered) a record it touched, a cache hit links to
        the trace that built the memoized join.  No-op (False) when
        the span carries no trace context or ``context`` is None.
        """
        if context is None or self.context is None:
            return False
        self.links.append(context)
        return True

    def __enter__(self) -> "Span":
        _stack().append(self)
        if runtime.TRACING:
            self.parent_context = trace_mod.current()
            if self.parent_context is None:
                trace_id = trace_mod.new_trace_id()
                runtime.TRACES.inc()
            else:
                trace_id = self.parent_context.trace_id
            self.context = TraceContext(trace_id, trace_mod.new_span_id())
            self._ctx_token = trace_mod.activate(self.context)
            self.start_ts = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._started
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self._ctx_token is not None:
            trace_mod.restore(self._ctx_token)
            self._ctx_token = None
        if runtime.ACTIVE:
            _duration_handle(self.name).observe(self.duration)
            if runtime.TRACING:
                self._export(exc_type)
        return False

    def _export(self, exc_type) -> None:
        """Hand the closed span to the trace buffer."""
        buffer = runtime.trace_buffer()
        if buffer is not None and self.context is not None:
            # ``attrs`` is handed over, not copied: it is the
            # span-private dict built from ``span()``'s kwargs, and
            # the span is closed.
            buffer.record(
                SpanRecord(
                    trace_id=self.context.trace_id,
                    span_id=self.context.span_id,
                    parent_id=(
                        self.parent_context.span_id
                        if self.parent_context is not None
                        else None
                    ),
                    name=self.name,
                    start=self.start_ts,
                    duration=self.duration,
                    attrs=self.attrs,
                    error=exc_type.__name__ if exc_type is not None else None,
                    links=tuple(self.links),
                )
            )


class _NullSpan:
    """Reusable do-nothing span for the disabled path."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, object] = {}
    duration = None
    context = None
    parent_context = None
    links: List[TraceContext] = []

    def add_link(self, context) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def add_link(context: Optional[TraceContext]) -> bool:
    """Link the innermost open span on this thread to ``context``.

    Convenience for call sites that hold a stored context (a cache
    entry's build context, a record binding) but not the span object.
    Returns False when there is no open span, no trace context, or
    ``context`` is None.
    """
    open_span = current_span()
    if open_span is None:
        return False
    return open_span.add_link(context)


def span(name: str, **attrs: object):
    """A context manager timing ``name`` (no-op while disabled).

    Extra keyword attributes ride along on the span's trace record
    (they do *not* become histogram labels — durations aggregate per
    span name only, keeping cardinality bounded).
    """
    if not runtime.ACTIVE:
        return _NULL_SPAN
    return Span(name, attrs)


def trace_span(name: str, **attrs: object):
    """A span only when it will be externally visible.

    Hands out a :class:`Span` while tracing, and the shared no-op
    otherwise.  For call sites whose duration histogram is fed by
    fused accounting the site already performs (e.g.
    ``CentralServer._observe_query``) — a metrics-only span there
    would duplicate both the clock reads and the histogram
    observation.
    """
    if runtime.TRACING:
        return Span(name, attrs)
    return _NULL_SPAN
