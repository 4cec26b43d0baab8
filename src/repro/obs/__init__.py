"""repro.obs — runtime observability for the measurement pipeline.

The paper's system measures traffic; this package measures the
measurer.  It provides:

* :mod:`repro.obs.metrics` — a dependency-free, thread-safe metrics
  registry (counters, gauges, log-bucketed histograms);
* :mod:`repro.obs.spans` — scoped timers feeding a duration histogram
  and, while tracing, the trace buffer;
* :mod:`repro.obs.export` — Prometheus text exposition, JSON
  snapshots, and a one-screen human report;
* :mod:`repro.obs.trace` — distributed tracing: trace/span ids,
  contextvar propagation, the :class:`TraceBuffer` ring, and
  :func:`format_trace_tree` critical-path rendering;
* :mod:`repro.obs.httpd` — a stdlib background HTTP server exposing
  ``/metrics``, ``/healthz``, ``/traces`` and ``/shards`` while a run
  executes;
* :mod:`repro.obs.cluster` — the distributed telemetry plane: the
  worker-side :class:`TelemetryBuffer` export queue and the
  front-door :class:`ClusterTelemetry` collector that merges shard
  spans, bindings, and metrics into one coherent domain;
* :mod:`repro.obs.runtime` — the process-global enable/disable switch
  and the :class:`~repro.obs.runtime.BoundMetric` hot-path handles.

Nothing is collected by default: instrumentation throughout the
library is guarded by :func:`~repro.obs.runtime.enabled` and costs a
single no-op check until a registry is activated, keeping the paper
reproduction paths byte- and timing-identical.

Quickstart::

    from repro import obs

    registry = obs.enable()
    ...  # run simulations, serve queries
    print(obs.format_report(registry))
    open("metrics.prom", "w").write(obs.to_prometheus(registry))
    obs.disable()

The metric catalog (names, types, labels, units) lives in
``docs/observability.md``.
"""

from repro.obs.cluster import (
    ClusterTelemetry,
    TelemetryBuffer,
    register_cluster_metrics,
)
from repro.obs.export import (
    format_report,
    parse_prometheus,
    registry_from_prometheus,
    to_json,
    to_prometheus,
)
from repro.obs.httpd import MetricsServer
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    POW2_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    log_buckets,
)
from repro.obs.runtime import (
    BoundMetric,
    bind_counter,
    bind_gauge,
    bind_histogram,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    registry,
    trace_buffer,
    tracing,
)
from repro.obs.spans import SPAN_HISTOGRAM, Span, add_link, current_span, span
from repro.obs.trace import (
    SpanRecord,
    TraceBuffer,
    TraceContext,
    format_trace_tree,
)

__all__ = [
    "BoundMetric",
    "ClusterTelemetry",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_REGISTRY",
    "NullRegistry",
    "POW2_BUCKETS",
    "SIZE_BUCKETS",
    "SPAN_HISTOGRAM",
    "Span",
    "SpanRecord",
    "TelemetryBuffer",
    "TraceBuffer",
    "TraceContext",
    "add_link",
    "bind_counter",
    "bind_gauge",
    "bind_histogram",
    "counter",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "format_report",
    "format_trace_tree",
    "gauge",
    "histogram",
    "log_buckets",
    "parse_prometheus",
    "register_cluster_metrics",
    "registry",
    "registry_from_prometheus",
    "span",
    "to_json",
    "to_prometheus",
    "trace_buffer",
    "tracing",
]
