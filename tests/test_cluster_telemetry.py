"""Cluster telemetry: one observability domain over shard processes.

The unit half exercises :mod:`repro.obs.cluster` against fakes; the
socket half drives a real 2-shard tier over TCP and asserts the
acceptance criteria of the observability PR: a cross-process upload
renders as one connected trace, explain breakdowns attribute the
fan-out, and the merged ``/metrics`` scrape equals the sum of the
per-shard registries.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.faults.transport import frame_payload
from repro.obs import trace as trace_mod
from repro.obs.cluster import (
    DEFAULT_MAX_PENDING,
    QUERY_EXPLAIN_COUNTER,
    SCRAPE_STALENESS_GAUGE,
    SPANS_DROPPED_COUNTER,
    SPANS_SHIPPED_COUNTER,
    ClusterTelemetry,
    TelemetryBuffer,
    register_cluster_metrics,
)
from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.httpd import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span
from repro.obs.trace import SpanRecord, TraceBuffer, TraceContext
from repro.rsu.record import TrafficRecord
from repro.server.degradation import CoveragePolicy
from repro.server.sharded.client import ShardClient
from repro.server.sharded.engine import policy_to_payload
from repro.server.sharded.frontdoor import decode_sharded_result
from repro.server.sharded.service import ShardedIngestService
from repro.sketch.bitmap import Bitmap

_SEED = 2017
_LOCATIONS = list(range(1, 9))
_PERIODS = tuple(range(4))
_BITS = 128
_POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)


def _record(location, period):
    rng = np.random.default_rng([_SEED, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )


def _span_payload(index=0, trace_id=None, **overrides):
    payload = {
        "trace_id": trace_id or f"{index:016x}",
        "span_id": f"{index:08x}",
        "parent_id": None,
        "name": f"op-{index}",
        "ts": float(index),
        "duration_seconds": 0.01,
        "attrs": {},
        "links": [],
    }
    payload.update(overrides)
    return payload


# ----------------------------------------------------------------------
# TelemetryBuffer (worker side)
# ----------------------------------------------------------------------


class TestTelemetryBuffer:
    def test_records_land_in_ring_and_queue(self):
        buffer = TelemetryBuffer()
        record = SpanRecord.from_dict(_span_payload(1))
        buffer.record(record)
        context = TraceContext(record.trace_id, record.span_id)
        assert buffer.find_span(context) is record
        assert buffer.pending() == 1

    def test_drain_is_destructive_and_json_safe(self):
        buffer = TelemetryBuffer()
        for index in range(3):
            buffer.record(SpanRecord.from_dict(_span_payload(index)))
        buffer.bind(5, 2, TraceContext("a" * 16, "b" * 8), kind="record")
        payload = buffer.drain()
        json.dumps(payload)  # must ship over the JSON wire protocol
        assert len(payload["spans"]) == 3
        assert payload["bindings"] == [
            {
                "location": 5,
                "period": 2,
                "trace_id": "a" * 16,
                "span_id": "b" * 8,
                "kind": "record",
            }
        ]
        # A drained span ships exactly once.
        again = buffer.drain()
        assert again == {"spans": [], "bindings": []}
        # The ring keeps its copy for local rendering.
        assert len(buffer) == 3

    def test_overflow_drops_oldest_and_counts(self):
        registry = obs.enable(registry=MetricsRegistry())
        buffer = TelemetryBuffer(max_traces=4096, max_pending=10)
        for index in range(13):
            buffer.record(SpanRecord.from_dict(_span_payload(index)))
        assert buffer.pending() == 10
        names = [entry["name"] for entry in buffer.drain()["spans"]]
        assert names[0] == "op-3"  # 0..2 dropped, newest survive
        assert registry.counter(SPANS_DROPPED_COUNTER).value == 3

    def test_shipped_counter_counts_drains(self):
        registry = obs.enable(registry=MetricsRegistry())
        register_cluster_metrics(registry)
        buffer = TelemetryBuffer()
        for index in range(4):
            buffer.record(SpanRecord.from_dict(_span_payload(index)))
        buffer.drain()
        assert registry.counter(SPANS_SHIPPED_COUNTER).value == 4
        buffer.drain()  # empty drain ships nothing
        assert registry.counter(SPANS_SHIPPED_COUNTER).value == 4

    def test_default_bound(self):
        assert TelemetryBuffer()._max_pending == DEFAULT_MAX_PENDING


# ----------------------------------------------------------------------
# Pre-registration (the export-at-zero convention)
# ----------------------------------------------------------------------


class TestRegisterClusterMetrics:
    def test_fresh_scrape_shows_every_series_at_zero(self):
        registry = MetricsRegistry()
        register_cluster_metrics(registry)
        samples = parse_prometheus(to_prometheus(registry))
        for name in (
            SPANS_SHIPPED_COUNTER,
            SPANS_DROPPED_COUNTER,
            SCRAPE_STALENESS_GAUGE,
            QUERY_EXPLAIN_COUNTER,
        ):
            assert samples[(name, ())] == 0.0, name

    def test_defaults_to_runtime_registry(self):
        registry = obs.enable(registry=MetricsRegistry())
        register_cluster_metrics()
        assert registry.get(SPANS_SHIPPED_COUNTER) is not None

    def test_safe_on_null_registry(self):
        register_cluster_metrics()  # obs disabled: must not raise


# ----------------------------------------------------------------------
# ClusterTelemetry against fakes
# ----------------------------------------------------------------------


class _FakeBackend:
    def __init__(self, payload):
        self.payload = payload
        self.breaker = None

    def stats(self):
        if isinstance(self.payload, Exception):
            raise self.payload
        return json.loads(json.dumps(self.payload))


class _FakeCoordinator:
    def __init__(self, backends):
        self.backends = backends


class _FakeService:
    def __init__(self, backends, held=(), fenced=None):
        self.n_shards = len(backends)
        self.coordinator = _FakeCoordinator(backends)
        self.supervisor = None
        self._held = set(held)
        self.fenced = dict(fenced or {})

    def shard_alive(self, shard):
        return shard not in self.fenced

    def is_held(self, shard):
        return shard in self._held

    def is_fenced(self, shard):
        return shard in self.fenced

    def restart_count(self, shard):
        return 0


class TestClusterTelemetryUnit:
    def test_absorb_preserves_ids_bindings_and_links(self):
        buffer = TraceBuffer()
        collector = ClusterTelemetry(
            _FakeService({}), buffer=buffer, registry=MetricsRegistry()
        )
        link = {"trace_id": "c" * 16, "span_id": "d" * 8}
        absorbed = collector.absorb(
            0,
            {
                "spans": [
                    _span_payload(
                        1, trace_id="a" * 16, parent_id="f" * 8,
                        links=[link],
                    )
                ],
                "bindings": [
                    {
                        "location": 7,
                        "period": 3,
                        "trace_id": "a" * 16,
                        "span_id": "00000001",
                        "kind": "record",
                    }
                ],
            },
        )
        assert absorbed == 1
        record = buffer.find_span(TraceContext("a" * 16, "00000001"))
        assert record is not None
        assert record.parent_id == "f" * 8
        assert record.links == (TraceContext("c" * 16, "d" * 8),)
        bindings = buffer.bindings(7, 3)
        assert [b.context.trace_id for b in bindings] == ["a" * 16]

    def test_damaged_entries_counted_dropped_never_raised(self):
        registry = MetricsRegistry()
        collector = ClusterTelemetry(
            _FakeService({}), buffer=TraceBuffer(), registry=registry
        )
        absorbed = collector.absorb(
            0,
            {
                "spans": [_span_payload(1), {"trace_id": "x"}, "garbage"],
                "bindings": [{"location": "NaN-garbage"}],
            },
        )
        assert absorbed == 1
        assert registry.counter(SPANS_DROPPED_COUNTER).value == 3

    def test_absorb_empty_payload_is_noop(self):
        collector = ClusterTelemetry(
            _FakeService({}), buffer=TraceBuffer(), registry=MetricsRegistry()
        )
        assert collector.absorb(0, None) == 0
        assert collector.absorb(0, {}) == 0

    def test_refresh_pulls_and_respects_staleness_bound(self):
        shard_registry = MetricsRegistry()
        shard_registry.counter("repro_widgets_total", "w").inc(5)
        backend = _FakeBackend(
            {
                "records": 4,
                "wal_entries": 2,
                "dead_letters": 0,
                "metrics": shard_registry.snapshot(),
                "telemetry": {"spans": [_span_payload(1)], "bindings": []},
            }
        )
        collector = ClusterTelemetry(
            _FakeService({0: backend}),
            buffer=TraceBuffer(),
            registry=MetricsRegistry(),
            max_staleness=60.0,
        )
        assert collector.staleness() == float("inf")
        assert collector.refresh() is True
        assert collector.refresh() is False  # inside the bound
        assert collector.refresh(force=True) is True
        merged = collector.merged_registry()
        assert merged.counter("repro_widgets_total").value == 5.0
        payload = collector.shards_payload()
        assert payload["0"]["records"] == 4
        assert payload["0"]["wal_entries"] == 2
        assert payload["0"]["last_telemetry_age_seconds"] is not None

    def test_merged_registry_never_compounds_across_scrapes(self):
        shard_registry = MetricsRegistry()
        shard_registry.counter("repro_widgets_total", "w").inc(3)
        backend = _FakeBackend({"metrics": shard_registry.snapshot()})
        front = MetricsRegistry()
        front.counter("repro_widgets_total", "w").inc(2)
        collector = ClusterTelemetry(
            _FakeService({0: backend}), buffer=TraceBuffer(), registry=front
        )
        collector.refresh(force=True)
        for _ in range(3):
            merged = collector.merged_registry()
            assert merged.counter("repro_widgets_total").value == 5.0

    def test_dead_shard_keeps_previous_snapshot(self):
        good = _FakeBackend(
            {"records": 9, "metrics": {}, "telemetry": None}
        )
        collector = ClusterTelemetry(
            _FakeService({0: good}),
            buffer=TraceBuffer(),
            registry=MetricsRegistry(),
        )
        collector.refresh(force=True)
        good.payload = RuntimeError("shard mid-restart")
        collector.refresh(force=True)  # must not raise
        assert collector.shards_payload()["0"]["records"] == 9

    def test_shards_payload_reports_fence_and_hold(self):
        service = _FakeService(
            {0: _FakeBackend({}), 1: _FakeBackend({})},
            held=[0],
            fenced={1: "flapped too hard"},
        )
        collector = ClusterTelemetry(
            service, buffer=TraceBuffer(), registry=MetricsRegistry()
        )
        payload = collector.shards_payload()
        assert payload["0"]["held"] is True
        assert payload["1"]["fenced"] is True
        assert payload["1"]["fence_reason"] == "flapped too hard"
        assert payload["1"]["alive"] is False


# ----------------------------------------------------------------------
# The real thing: 2 shard processes over TCP
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    service = ShardedIngestService(
        2,
        tmp_path_factory.mktemp("cluster-tier"),
        shard_telemetry=True,
    )
    service.start()
    client = ShardClient("127.0.0.1", service.port)
    frames = [
        frame_payload(_record(loc, per).to_payload())
        for loc in _LOCATIONS
        for per in _PERIODS
    ]
    counts = client.upload_batch(frames)
    assert counts["delivered"] == len(frames)
    yield service, client
    client.close()
    service.stop()


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


class TestClusterTraceRoundTrip:
    def test_upload_renders_one_cross_process_trace(self, tier):
        service, client = tier
        buffer = TraceBuffer()
        obs.enable(registry=MetricsRegistry(), trace=buffer)
        collector = service.cluster_telemetry()
        with span("client.upload") as upload_span:
            context = trace_mod.current()
            assert context is not None
            frame = frame_payload(
                _record(90, 0).to_payload(), context=context
            )
            ack = client.upload(frame)
        assert ack["outcome"] == "delivered"
        collector.refresh(force=True)
        trace_id = context.trace_id
        names = {
            record.name
            for record in buffer.spans(trace_id)
        }
        # Front-door spans and shard-process spans in ONE trace.
        assert "client.upload" in names
        assert "server.shard" in names  # front door (this process)
        assert "shard.ingest" in names  # worker process, shipped
        assert "shard.wal_append" in names
        tree = trace_mod.format_trace_tree(buffer, trace_id)
        assert "client.upload" in tree
        assert "shard.ingest" in tree
        assert "no spans recorded" not in tree
        # The delivered record's cell is bound to the same trace.
        bindings = buffer.bindings(90, 0)
        assert any(b.context.trace_id == trace_id for b in bindings)

    def test_fanout_query_trace_spans_processes(self, tier):
        service, client = tier
        buffer = TraceBuffer()
        obs.enable(registry=MetricsRegistry(), trace=buffer)
        collector = service.cluster_telemetry()
        reply = client.query(
            {
                "kind": "multi_point_persistent",
                "locations": _LOCATIONS,
                "periods": list(_PERIODS),
                "policy": policy_to_payload(_POLICY),
            },
            explain=True,
        )
        assert reply["ok"], reply
        collector.refresh(force=True)
        trace_id = buffer.latest_trace_id()
        names = {record.name for record in buffer.spans(trace_id)}
        assert "server.fanout" in names
        assert "shard.query" in names  # shipped from the workers
        shard_labels = {
            record.attrs.get("shard")
            for record in buffer.spans(trace_id)
            if record.name == "shard.query"
        }
        assert shard_labels == {"0", "1"}  # both workers joined the trace


class TestExplainBreakdown:
    def test_explain_attributes_the_fanout(self, tier):
        _service, client = tier
        reply = client.query(
            {
                "kind": "multi_point_persistent",
                "locations": _LOCATIONS,
                "periods": list(_PERIODS),
                "policy": policy_to_payload(_POLICY),
            },
            explain=True,
        )
        assert reply["ok"], reply
        result = decode_sharded_result(reply["result"])
        explain = result.explain
        assert explain is not None
        assert explain["total_seconds"] > 0.0
        assert explain["locations"] == len(_LOCATIONS)
        assert explain["periods"] == len(_PERIODS)
        assert explain["coverage_fraction"] == 1.0
        assert set(explain["per_shard"]) == {"0", "1"}
        requested = 0
        for detail in explain["per_shard"].values():
            assert detail["answered"] == detail["locations"]
            assert detail["errors"] == 0
            assert detail["wall_seconds"] > 0.0
            assert detail["engine_seconds"] >= 0.0
            assert detail["wire_seconds"] >= 0.0
            assert detail["cache_lookups"] >= detail["cache_hits"]
            assert detail["covered_cells"] == detail["requested_cells"]
            requested += detail["requested_cells"]
        assert requested == len(_LOCATIONS) * len(_PERIODS)
        # Wire latency is attributed per shard: the engine share of the
        # round trip can never exceed the measured wall time.
        for detail in explain["per_shard"].values():
            assert detail["engine_seconds"] <= detail["wall_seconds"] + 0.05

    def test_explain_off_by_default(self, tier):
        _service, client = tier
        reply = client.query(
            {
                "kind": "multi_point_persistent",
                "locations": _LOCATIONS[:2],
                "periods": list(_PERIODS),
                "policy": policy_to_payload(_POLICY),
            }
        )
        assert reply["ok"], reply
        assert decode_sharded_result(reply["result"]).explain is None


class TestMergedEndpoints:
    def test_metrics_totals_equal_sum_of_shard_registries(self, tier):
        service, client = tier
        obs.enable(registry=MetricsRegistry(), trace=TraceBuffer())
        collector = service.cluster_telemetry()
        with MetricsServer(cluster=collector) as http:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{http.port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                samples = parse_prometheus(response.read().decode("utf-8"))
        # Ground truth: each worker's own registry, asked directly.
        per_shard = {}
        for shard in range(service.n_shards):
            direct = ShardClient("127.0.0.1", service.shard_port(shard))
            try:
                per_shard[str(shard)] = direct.stats()["metrics"]
            finally:
                direct.close()
        total_delivered = 0.0
        for shard, metrics in per_shard.items():
            family = metrics["repro_shard_uploads_total"]
            for child in family["children"]:
                labels = dict(child["labels"])
                if labels.get("outcome") != "delivered":
                    continue
                key = (
                    "repro_shard_uploads_total",
                    tuple(sorted(labels.items())),
                )
                assert samples[key] == child["value"], key
                total_delivered += child["value"]
        assert total_delivered >= len(_LOCATIONS) * len(_PERIODS)
        # The cluster series are present in the merged scrape.
        assert (SPANS_SHIPPED_COUNTER, ()) in samples
        assert (SCRAPE_STALENESS_GAUGE, ()) in samples

    def test_shards_endpoint_reports_liveness(self, tier):
        service, _client = tier
        obs.enable(registry=MetricsRegistry(), trace=TraceBuffer())
        collector = service.cluster_telemetry()
        with MetricsServer(cluster=collector) as http:
            status, payload = _get(http.port, "/shards")
        assert status == 200
        assert set(payload["shards"]) == {"0", "1"}
        assert payload["staleness_seconds"] < 60.0
        for entry in payload["shards"].values():
            assert entry["alive"] is True
            assert entry["held"] is False
            assert entry["fenced"] is False
            assert entry["breaker"]["name"] == "closed"
            assert entry["records"] is not None
            assert entry["wal_entries"] is not None

    def test_traces_endpoint_serves_shard_spans(self, tier):
        service, client = tier
        buffer = TraceBuffer()
        obs.enable(registry=MetricsRegistry(), trace=buffer)
        collector = service.cluster_telemetry()
        with span("client.upload") as _upload:
            context = trace_mod.current()
            client.upload(
                frame_payload(_record(91, 1).to_payload(), context=context)
            )
        # A scrape pulls shard telemetry at most once per staleness
        # bound (1 s), and the previous test's scrape may have pulled
        # moments ago: scrape until a pull lands, within a few bounds.
        names = set()
        deadline = time.monotonic() + 5.0
        with MetricsServer(cluster=collector) as http:
            while True:
                status, payload = _get(http.port, "/traces")
                assert status == 200
                names = {
                    entry["name"]
                    for trace in payload["traces"]
                    for entry in trace["spans"]
                }
                if "shard.ingest" in names or time.monotonic() > deadline:
                    break
                time.sleep(0.1)
        assert "shard.ingest" in names  # refreshed on scrape


class TestShardsScrapeDuringFailure:
    def test_scrape_while_fenced_and_held(self):
        service = _FakeService(
            {0: _FakeBackend({}), 1: _FakeBackend({})},
            held=[0],
            fenced={1: "restart budget exhausted"},
        )
        collector = ClusterTelemetry(
            service, buffer=TraceBuffer(), registry=MetricsRegistry()
        )
        with MetricsServer(cluster=collector) as http:
            status, payload = _get(http.port, "/shards")
        assert status == 200
        assert payload["shards"]["0"]["held"] is True
        assert payload["shards"]["1"]["fenced"] is True
        assert (
            payload["shards"]["1"]["fence_reason"]
            == "restart budget exhausted"
        )


class TestShardsEndpointWithoutCluster:
    def test_404_when_no_tier_attached(self):
        registry = MetricsRegistry()
        with MetricsServer(registry=registry) as http:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{http.port}/shards", timeout=5
                )
            assert caught.value.code == 404


class TestShardsStartAndRecovery:
    def test_restart_reports_start_and_recovery_seconds(self, tmp_path):
        service = ShardedIngestService(1, tmp_path)
        service.start()
        try:
            client = ShardClient("127.0.0.1", service.port)
            try:
                counts = client.upload_batch(
                    [
                        frame_payload(_record(loc, per).to_payload())
                        for loc in _LOCATIONS
                        for per in _PERIODS
                    ]
                )
            finally:
                client.close()
            assert counts["delivered"] == len(_LOCATIONS) * len(_PERIODS)
            service.kill_shard(0)
            service.restart_shard(0)
            collector = service.cluster_telemetry(
                buffer=TraceBuffer(), registry=MetricsRegistry()
            )
            collector.refresh(force=True)
            entry = collector.shards_payload()["0"]
        finally:
            service.stop()
        # The restarted worker replayed the WAL before binding, and its
        # spawn-to-port time includes that recovery.
        assert entry["records"] == len(_LOCATIONS) * len(_PERIODS)
        assert entry["recover_seconds"] > 0
        assert entry["start_seconds"] >= entry["recover_seconds"]
