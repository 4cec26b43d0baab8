"""The process-global observability switch.

Instrumentation throughout the library funnels through this module.
By default nothing is active: :func:`enabled` returns False and the
metric accessors hand out shared no-op objects, so the hot paths
(`receive_record`, joins, expansions, encounters) pay only a guard —
one function call and a ``None`` comparison.  Tier-1 behaviour and
timings are therefore unchanged until someone opts in:

>>> from repro.obs import runtime
>>> registry = runtime.enable()
>>> runtime.counter("repro_demo_total").inc()
>>> registry.get("repro_demo_total") is not None
True
>>> _ = runtime.disable()
>>> runtime.enabled()
False

The canonical instrumentation idiom is::

    from repro.obs import runtime as obs
    ...
    if obs.enabled():
        obs.counter("repro_things_total", kind="x").inc()

The ``if`` guard keeps the disabled cost to the single ``enabled()``
call (no label kwargs are even packed); calling the accessors without
the guard is also safe — they return no-op metrics when disabled.

Hot call sites avoid even the accessor cost (name validation, label
sorting, family lookup) by *binding* a handle once at import time::

    _THINGS = obs.bind_counter("repro_things_total", kind="x")
    ...
    if obs.enabled():
        _THINGS.inc()

A :class:`BoundMetric` caches the resolved child and is re-resolved
eagerly by :func:`enable`/:func:`disable` (handles register in a weak
set), so the enabled cost of an update is a single delegation to the
child's locked add — no staleness check on the hot path.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.obs.metrics import (
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import TraceBuffer

_active: Optional[MetricsRegistry] = None
_trace_buffer: Optional[TraceBuffer] = None

#: Mode flags mirroring the private state above, refreshed by
#: :func:`enable`/:func:`disable` (the only two mode transitions).
#: The hottest guards read these as plain module attributes —
#: ``if obs.ACTIVE:`` — which is measurably cheaper in situ than a
#: function call; :func:`enabled`/:func:`tracing` stay as the stable
#: API for everything else.
ACTIVE: bool = False
TRACING: bool = False
#: ``repro_traces_total`` on the active registry while tracing, the
#: null metric otherwise: root spans count themselves through this
#: resolved child instead of a by-name lookup per trace.
TRACES = NULL_METRIC


def _refresh_flags() -> None:
    global ACTIVE, TRACING, TRACES
    ACTIVE = _active is not None
    TRACING = ACTIVE and _trace_buffer is not None
    TRACES = (
        _active.counter(
            "repro_traces_total",
            help="Traces started (root spans opened while tracing).",
        )
        if TRACING
        else NULL_METRIC
    )

#: Every live BoundMetric; enable()/disable() re-resolve them eagerly
#: so updates are a single delegation with no staleness check.
_handles: "weakref.WeakSet[BoundMetric]" = weakref.WeakSet()


def _rebind_handles() -> None:
    for handle in list(_handles):
        handle.resolve()


def enabled() -> bool:
    """Whether a live registry is collecting metrics right now."""
    return _active is not None


def tracing() -> bool:
    """Whether spans should record full trace trees right now.

    True only when collection is active *and* a :class:`TraceBuffer`
    was installed via ``enable(trace=...)`` — plain metric collection
    never pays the trace-id/contextvar cost.
    """
    return _active is not None and _trace_buffer is not None


def registry() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry, or the shared no-op one when disabled."""
    return _active if _active is not None else NULL_REGISTRY


def trace_buffer() -> Optional[TraceBuffer]:
    """The active trace ring buffer, or None when tracing is off."""
    return _trace_buffer


def enable(
    registry: Optional[MetricsRegistry] = None,
    trace: Optional[TraceBuffer] = None,
) -> MetricsRegistry:
    """Activate metrics collection (idempotent; returns the registry).

    Passing a registry replaces any active one; passing none keeps an
    already-active registry or creates a fresh one.  Passing a
    :class:`TraceBuffer` additionally turns on distributed tracing:
    spans get trace/span ids, propagate parent context, and record
    into the buffer (served by ``/traces`` and
    :func:`~repro.obs.trace.format_trace_tree`).  While tracing,
    ``repro_traces_total`` exports at zero from the start.
    """
    global _active, _trace_buffer
    if registry is not None:
        _active = registry
    elif _active is None:
        _active = MetricsRegistry()
    if trace is not None:
        _trace_buffer = trace
    _refresh_flags()
    _rebind_handles()
    return _active


def disable() -> Optional[MetricsRegistry]:
    """Deactivate collection.

    Returns the registry that was active (still readable/exportable —
    deactivation stops *collection*, not access).  A trace buffer, like
    the registry, stays readable after deactivation but receives no
    further spans.
    """
    global _active, _trace_buffer
    previous = _active
    _active = None
    _trace_buffer = None
    _refresh_flags()
    _rebind_handles()
    return previous


def counter(name: str, help: str = "", **labels: object) -> Counter:
    """Counter ``name`` on the active registry (no-op when disabled)."""
    return registry().counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels: object) -> Gauge:
    """Gauge ``name`` on the active registry (no-op when disabled)."""
    return registry().gauge(name, help, **labels)


def histogram(
    name: str,
    help: str = "",
    buckets: Optional[Sequence[float]] = None,
    **labels: object,
) -> Histogram:
    """Histogram ``name`` on the active registry (no-op when disabled)."""
    return registry().histogram(name, help, buckets, **labels)


# Kept: by-name lookups instead cost +14.2 pts of enabled slowdown (observability.md)
class BoundMetric:
    """A cached handle to one metric child, safe to create at import.

    Resolution (name validation, label sorting, family/child lookup)
    happens when the handle is created and again on every
    observability toggle — handles register in a module-level weak set
    and :func:`enable`/:func:`disable` re-resolve them eagerly — so
    hot-path updates are a plain delegation to the cached child with
    no staleness check at all.  While observability is disabled the
    cached child is the shared :data:`~repro.obs.metrics.NULL_METRIC`,
    so using a handle unconditionally is always safe — though hot
    paths keep the ``if obs.enabled():`` guard to skip even the
    delegation.
    """

    #: ``inc``/``dec``/``set``/``observe`` are *slots*, not methods:
    #: :meth:`resolve` assigns the child's bound methods directly, so a
    #: hot-path update is one call into the child with zero indirection.
    __slots__ = (
        "_kind", "_name", "_help", "_buckets", "_labels",
        "_child", "inc", "dec", "set", "observe", "observe_many",
        "__weakref__",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self._kind = kind
        self._name = name
        self._help = help
        self._buckets = buckets
        self._labels = labels or {}
        self._child = NULL_METRIC
        self.inc = NULL_METRIC.inc
        self.dec = NULL_METRIC.dec
        self.set = NULL_METRIC.set
        self.observe = NULL_METRIC.observe
        self.observe_many = NULL_METRIC.observe_many
        _handles.add(self)
        # Bind immediately so handles created while collection is
        # already active (spans, per-experiment cells) work without
        # waiting for the next toggle.
        self.resolve()

    @property
    def name(self) -> str:
        """The bound family name."""
        return self._name

    def resolve(self):
        """(Re)bind to the active registry's child and return it."""
        child = registry().bind(
            self._kind,
            self._name,
            self._help,
            buckets=self._buckets,
            labels=self._labels,
        )
        self._child = child
        # Lift the child's update methods onto the handle.  A method the
        # child lacks (a counter has no ``observe``) keeps the previous
        # no-op binding from NULL_METRIC — kinds never change, so a
        # stale binding can only ever be the null sink.
        for method in ("inc", "dec", "set", "observe", "observe_many"):
            bound = getattr(child, method, None)
            if bound is not None:
                setattr(self, method, bound)
        return child


def bind_counter(name: str, help: str = "", **labels: object) -> BoundMetric:
    """A cached counter handle (see :class:`BoundMetric`)."""
    return BoundMetric("counter", name, help, labels=labels)


def bind_gauge(name: str, help: str = "", **labels: object) -> BoundMetric:
    """A cached gauge handle (see :class:`BoundMetric`)."""
    return BoundMetric("gauge", name, help, labels=labels)


def bind_histogram(
    name: str,
    help: str = "",
    buckets: Optional[Sequence[float]] = None,
    **labels: object,
) -> BoundMetric:
    """A cached histogram handle (see :class:`BoundMetric`)."""
    return BoundMetric("histogram", name, help, buckets=buckets, labels=labels)


class LazyCounter:
    """A counter family whose children resolve on their first event.

    For hot sites with one open-ended label (upload outcomes): each
    value of ``label`` resolves its child on the active registry once
    and reuses it after, and a newly active registry starts empty.
    Unlike a :class:`BoundMetric`, no registry ever exports a value it
    did not see.  ``fixed`` labels ride on every child.
    """

    __slots__ = ("_name", "_help", "_label", "_fixed", "_registry",
                 "_children")

    def __init__(self, name: str, help: str, label: str, **fixed: object):
        self._name = name
        self._help = help
        self._label = label
        self._fixed = fixed
        self._registry: Optional[MetricsRegistry] = None
        self._children: Dict[str, Counter] = {}

    def inc(self, value: str, amount: int = 1) -> None:
        """Count ``amount`` events labelled ``value`` (no-op while disabled)."""
        active = _active
        if active is None:
            return
        if active is not self._registry:
            self._children = {}
            self._registry = active
        child = self._children.get(value)
        if child is None:
            labels = dict(self._fixed)
            labels[self._label] = value
            child = active.counter(self._name, self._help, **labels)
            self._children[value] = child
        child.inc(amount)


class BoundBank:
    """A cached handle to one :class:`~repro.obs.metrics.CounterBank`.

    The fastest instrumentation shape for sites that bump several
    series per event: ``cell()`` (rebound on every observability
    toggle, like :class:`BoundMetric`) fetches the calling thread's
    bank cell, and each series is then a plain attribute add::

        _INGEST = obs.bind_bank("server_ingest", {
            "ingested": ("counter", "repro_records_ingested_total", "...", None),
            "resident_bits": ("gauge", "repro_store_bits", "...", None),
        })
        ...
        if obs.enabled():
            cell = _INGEST.cell()
            cell.ingested += 1
            cell.resident_bits += record.size

    While disabled, ``cell()`` hands out a shared write-absorbing
    dummy, so unguarded use is safe too.
    """

    __slots__ = ("_name", "_fields", "cell", "__weakref__")

    def __init__(
        self,
        name: str,
        fields: Dict[str, Tuple[str, str, str, Optional[Dict[str, object]]]],
    ):
        self._name = name
        self._fields = dict(fields)
        _handles.add(self)
        self.resolve()

    @property
    def name(self) -> str:
        """The bank's registry key."""
        return self._name

    def resolve(self):
        """(Re)bind to the active registry's bank and return it."""
        bank = registry().bank(self._name, self._fields)
        self.cell = bank.cell
        return bank


def bind_bank(
    name: str,
    fields: Dict[str, Tuple[str, str, str, Optional[Dict[str, object]]]],
) -> BoundBank:
    """A cached multi-series bank handle (see :class:`BoundBank`)."""
    return BoundBank(name, fields)
