"""Cluster telemetry: one observability domain over N shard processes.

The sharded tier (PRs 7–8) runs its observability per process: each
worker enables a private registry, and spans recorded inside a worker
die in its private :class:`~repro.obs.trace.TraceBuffer`.  This module
is the collection plane that stitches those islands together:

* :class:`TelemetryBuffer` — the trace buffer a shard worker installs.
  Besides the normal ring it keeps a bounded export queue of every
  closed span and record binding; :meth:`TelemetryBuffer.drain`
  empties the queue into a JSON-safe payload the worker ships to the
  front door on its ``MSG_STATS_REPLY``, the only drain.
* :class:`ClusterTelemetry` — the front-door collector.  It absorbs
  shipped payloads into the front door's own trace buffer (span ids,
  record bindings and cross-trace links survive verbatim, so a TCP
  upload renders as *one* :func:`~repro.obs.trace.format_trace_tree`
  tree spanning processes), pulls per-shard ``stats()`` snapshots
  with a staleness bound, folds the shard registries into one merged
  scrape view, and reports per-shard health for the ``/shards``
  endpoint.

Metric catalog (all pre-registered at zero by
:func:`register_cluster_metrics`):

* ``repro_telemetry_spans_shipped_total`` — spans drained out of a
  worker's export queue (counted worker-side only, so the cluster
  merge never double-counts).
* ``repro_telemetry_spans_dropped_total`` — spans lost to export-queue
  overflow or structurally damaged in transit.
* ``repro_cluster_scrape_staleness_seconds`` — age of the shard
  snapshots behind the most recent merged scrape.
* ``repro_query_explain_total`` — fan-out queries that requested an
  explain breakdown.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional

from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_MAX_TRACES,
    SpanRecord,
    TraceBuffer,
    TraceContext,
)

#: Spans drained out of a worker's export queue (worker-side count).
SPANS_SHIPPED_COUNTER = "repro_telemetry_spans_shipped_total"
#: Spans lost to export-queue overflow or damaged in transit.
SPANS_DROPPED_COUNTER = "repro_telemetry_spans_dropped_total"
#: Age (seconds) of the shard snapshots behind the last merged scrape.
SCRAPE_STALENESS_GAUGE = "repro_cluster_scrape_staleness_seconds"
#: Fan-out queries that asked for an explain breakdown.
QUERY_EXPLAIN_COUNTER = "repro_query_explain_total"

#: Bound of a worker's span/binding export queues (drop-oldest beyond).
DEFAULT_MAX_PENDING = 4096


def register_cluster_metrics(registry=None) -> None:
    """Pre-register the cluster telemetry series so they export at zero.

    Follows the repo's export-at-zero convention (PR 1): a fresh scrape
    shows every series the process *can* emit, so dashboards and CI
    greps never have to distinguish "zero" from "not wired".  Safe on a
    :class:`~repro.obs.metrics.NullRegistry`.
    """
    target = registry if registry is not None else runtime.registry()
    target.counter(
        SPANS_SHIPPED_COUNTER,
        help="Spans drained from a worker's telemetry export queue.",
    )
    target.counter(
        SPANS_DROPPED_COUNTER,
        help="Spans lost to telemetry queue overflow or transit damage.",
    )
    target.gauge(
        SCRAPE_STALENESS_GAUGE,
        help="Age of the shard snapshots behind the last merged scrape.",
    )
    target.counter(
        QUERY_EXPLAIN_COUNTER,
        help="Fan-out queries that requested an explain breakdown.",
    )


class TelemetryBuffer(TraceBuffer):
    """A shard worker's trace buffer with an export queue bolted on.

    Every closed span and record binding lands in the normal ring *and*
    in a bounded pending queue.  :meth:`drain` empties the queue into a
    JSON-safe payload; the queue dropping its oldest entry under
    pressure is counted (``repro_telemetry_spans_dropped_total``), never
    silent — a worker that cannot ship fast enough loses visibility,
    not correctness.
    """

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        super().__init__(max_traces)
        self._pending_lock = threading.Lock()
        self._max_pending = max(1, int(max_pending))
        self._pending_spans: "deque[SpanRecord]" = deque()
        self._pending_bindings: "deque[tuple]" = deque()

    # ------------------------------------------------------------------
    # Recording (ring + export queue)
    # ------------------------------------------------------------------

    def record(self, record: SpanRecord) -> None:
        super().record(record)
        dropped = 0
        with self._pending_lock:
            # The immutable record itself is queued; JSON-safe dicts
            # are built at drain time, keeping serialization cost off
            # the per-span ingest path.
            self._pending_spans.append(record)
            while len(self._pending_spans) > self._max_pending:
                self._pending_spans.popleft()
                dropped += 1
        if dropped and runtime.ACTIVE:
            runtime.counter(
                SPANS_DROPPED_COUNTER,
                help=(
                    "Spans lost to telemetry queue overflow or transit "
                    "damage."
                ),
            ).inc(dropped)

    def bind(
        self,
        location: int,
        period: int,
        context: TraceContext,
        kind: str = "record",
    ) -> None:
        super().bind(location, period, context, kind=kind)
        with self._pending_lock:
            self._pending_bindings.append(
                (int(location), int(period), context, kind)
            )
            # Bindings ride the span bound: one binding per delivered
            # record, so the same backpressure applies.
            while len(self._pending_bindings) > self._max_pending:
                self._pending_bindings.popleft()

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Spans currently queued for export (tests and backpressure)."""
        with self._pending_lock:
            return len(self._pending_spans)

    def drain(self) -> dict:
        """Empty the export queue into one JSON-safe payload.

        Destructive: a drained span ships exactly once.  Increments the
        worker-side ``repro_telemetry_spans_shipped_total`` counter,
        which the front door's registry merge then carries into the
        cluster total without double counting.
        """
        with self._pending_lock:
            raw_spans = list(self._pending_spans)
            raw_bindings = list(self._pending_bindings)
            self._pending_spans.clear()
            self._pending_bindings.clear()
        spans = [record.to_dict() for record in raw_spans]
        bindings = [
            {
                "location": location,
                "period": period,
                "trace_id": context.trace_id,
                "span_id": context.span_id,
                "kind": kind,
            }
            for location, period, context, kind in raw_bindings
        ]
        if spans and runtime.ACTIVE:
            runtime.counter(
                SPANS_SHIPPED_COUNTER,
                help="Spans drained from a worker's telemetry export queue.",
            ).inc(len(spans))
        return {"spans": spans, "bindings": bindings}


class ClusterTelemetry:
    """The front door's collector: merge N shard telemetry islands.

    Parameters
    ----------
    service:
        The :class:`~repro.server.sharded.service.ShardedIngestService`
        whose shards to collect from (used for backends, liveness,
        fence/hold state and restart counts).
    buffer:
        The front-door trace buffer shipped spans merge into (defaults
        to the runtime buffer at absorb time).
    registry:
        The front-door registry (defaults to the runtime registry);
        cluster metrics are pre-registered on it immediately.
    max_staleness:
        Seconds a shard snapshot may age before :meth:`refresh`
        re-pulls it (scrapes inside the bound reuse cached snapshots).
    """

    def __init__(
        self,
        service,
        buffer: Optional[TraceBuffer] = None,
        registry: Optional[MetricsRegistry] = None,
        max_staleness: float = 1.0,
    ):
        self._service = service
        self._buffer = buffer
        self._registry = registry
        self._max_staleness = float(max_staleness)
        self._lock = threading.RLock()
        self._refreshed_at = 0.0
        #: shard -> wall time the last telemetry payload was absorbed.
        self._last_seen: Dict[int, float] = {}
        #: shard -> last metrics snapshot (from ``stats()``).
        self._shard_metrics: Dict[int, dict] = {}
        #: shard -> last scalar engine stats (records, WAL depth, ...).
        self._shard_stats: Dict[int, dict] = {}
        register_cluster_metrics(self.resolve_registry())

    # ------------------------------------------------------------------
    # Resolution (explicit wiring beats the runtime globals)
    # ------------------------------------------------------------------

    def resolve_buffer(self) -> Optional[TraceBuffer]:
        """The trace buffer shipped spans merge into, or None."""
        if self._buffer is not None:
            return self._buffer
        return runtime.trace_buffer()

    def resolve_registry(self):
        """The front-door registry (falls back to the runtime one)."""
        if self._registry is not None:
            return self._registry
        return runtime.registry()

    # ------------------------------------------------------------------
    # Absorbing shipped telemetry
    # ------------------------------------------------------------------

    def absorb(self, shard: int, payload: Optional[dict]) -> int:
        """Merge one shipped telemetry payload; returns spans absorbed.

        Span/trace ids, parent links, record bindings and cross-trace
        links are preserved verbatim, so shard-side spans join the
        front-door spans of the same trace.  Structurally damaged
        entries are counted dropped, never raised — telemetry transport
        follows the same fault contract as record transport.
        """
        if not payload:
            return 0
        buffer = self.resolve_buffer()
        if buffer is None:
            return 0
        absorbed = 0
        damaged = 0
        for entry in payload.get("spans") or ():
            record = SpanRecord.from_dict(entry)
            if record is None:
                damaged += 1
                continue
            buffer.record(record)
            absorbed += 1
        for entry in payload.get("bindings") or ():
            try:
                buffer.bind(
                    int(entry["location"]),
                    int(entry["period"]),
                    TraceContext(
                        trace_id=str(entry["trace_id"]),
                        span_id=str(entry["span_id"]),
                    ),
                    kind=str(entry.get("kind", "record")),
                )
            except (KeyError, TypeError, ValueError):
                damaged += 1
        if damaged:
            self.resolve_registry().counter(
                SPANS_DROPPED_COUNTER,
                help=(
                    "Spans lost to telemetry queue overflow or transit "
                    "damage."
                ),
            ).inc(damaged)
        if absorbed:
            with self._lock:
                self._last_seen[int(shard)] = time.time()
        return absorbed

    # ------------------------------------------------------------------
    # Pulling
    # ------------------------------------------------------------------

    def _backends(self) -> Dict[int, object]:
        coordinator = getattr(self._service, "coordinator", None)
        if coordinator is None:
            return {}
        return coordinator.backends

    def refresh(self, force: bool = False) -> bool:
        """Pull every shard's stats/telemetry once per staleness bound.

        Returns True when a pull happened, False when the cached
        snapshots were still inside ``max_staleness``.  A shard that
        cannot answer keeps its previous snapshot (marked stale via
        ``last_telemetry_age_seconds``) — a scrape must never hang or
        fail because one worker is mid-restart.
        """
        now = time.time()
        with self._lock:
            if not force and now - self._refreshed_at < self._max_staleness:
                return False
            self._refreshed_at = now
        for shard, backend in sorted(self._backends().items()):
            try:
                payload = backend.stats()
            except Exception:
                # Dead, fenced or mid-restart: keep the last snapshot.
                continue
            self.absorb(shard, payload.pop("telemetry", None))
            metrics = payload.pop("metrics", {}) or {}
            with self._lock:
                if metrics:
                    self._shard_metrics[int(shard)] = metrics
                payload.pop("locations", None)
                self._shard_stats[int(shard)] = payload
        self.resolve_registry().gauge(
            SCRAPE_STALENESS_GAUGE,
            help=(
                "Age of the shard snapshots behind the last merged scrape."
            ),
        ).set(max(0.0, time.time() - now))
        return True

    def staleness(self) -> float:
        """Seconds since the last successful :meth:`refresh` pull."""
        with self._lock:
            if self._refreshed_at == 0.0:
                return float("inf")
            return max(0.0, time.time() - self._refreshed_at)

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """A fresh registry folding the front door and every shard.

        Built per call (the cached shard snapshots merge into a new
        registry each time) so repeated scrapes never compound counts.
        """
        merged = MetricsRegistry()
        live = self.resolve_registry()
        snapshot = getattr(live, "snapshot", None)
        if snapshot is not None:
            front = snapshot()
            if front:
                merged.merge(front)
        with self._lock:
            shard_snapshots = list(self._shard_metrics.values())
        for metrics in shard_snapshots:
            merged.merge(metrics)
        return merged

    def shards_payload(self) -> Dict[str, dict]:
        """Per-shard health for the ``/shards`` endpoint.

        Combines live service state (process liveness, hold/fence
        flags, restart counts, last spawn-to-port time, breaker state)
        with the cached engine stats (records, WAL depth, dead letters,
        recovery time) and the age of the last absorbed telemetry.
        """
        service = self._service
        backends = self._backends()
        now = time.time()
        out: Dict[str, dict] = {}
        fenced = getattr(service, "fenced", {})
        start_seconds = getattr(service, "start_seconds", {})
        for shard in range(service.n_shards):
            entry: Dict[str, object] = {
                "alive": bool(service.shard_alive(shard)),
                "held": bool(service.is_held(shard)),
                "fenced": bool(service.is_fenced(shard)),
                "fence_reason": fenced.get(shard),
                "restarts": int(service.restart_count(shard)),
                "start_seconds": start_seconds.get(shard),
            }
            backend = backends.get(shard)
            breaker = getattr(backend, "breaker", None)
            entry["breaker"] = (
                breaker.snapshot() if breaker is not None else None
            )
            with self._lock:
                stats = dict(self._shard_stats.get(shard, {}))
                seen = self._last_seen.get(shard)
            for key in (
                "records", "wal_entries", "dead_letters", "recover_seconds"
            ):
                entry[key] = stats.get(key)
            entry["last_telemetry_age_seconds"] = (
                round(now - seen, 3) if seen is not None else None
            )
            out[str(shard)] = entry
        supervisor = getattr(service, "supervisor", None)
        status = getattr(supervisor, "status", None)
        if status is not None:
            for shard, health in status().items():
                if str(shard) in out:
                    out[str(shard)]["supervision"] = health
        return out


__all__ = [
    "ClusterTelemetry",
    "DEFAULT_MAX_PENDING",
    "QUERY_EXPLAIN_COUNTER",
    "SCRAPE_STALENESS_GAUGE",
    "SPANS_DROPPED_COUNTER",
    "SPANS_SHIPPED_COUNTER",
    "TelemetryBuffer",
    "register_cluster_metrics",
]
