"""Tests for the live metrics endpoint (repro.obs.httpd)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.export import parse_prometheus, registry_from_prometheus
from repro.obs.httpd import ENDPOINTS, PROMETHEUS_CONTENT_TYPE, MetricsServer
from repro.obs.trace import TraceBuffer


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return response.status, response.headers, response.read()


@pytest.fixture
def server():
    registry = obs.MetricsRegistry()
    registry.counter("repro_records_ingested_total", "Records.").inc(7)
    registry.histogram(
        "repro_estimate_latency_seconds", "Latency.", buckets=(0.01, 0.1)
    ).observe(0.05)
    traces = TraceBuffer()
    instance = MetricsServer(registry=registry, traces=traces)
    instance.start()
    yield instance
    instance.stop()


class TestEndpoints:
    def test_port_zero_binds_a_real_port(self, server):
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.start() == server.port  # idempotent

    def test_metrics_serves_parseable_prometheus(self, server):
        status, headers, body = _get(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        samples = parse_prometheus(text)
        assert samples
        assert samples[("repro_records_ingested_total", ())] == 7.0
        # The exposition round-trips through the structured parser too.
        rebuilt = registry_from_prometheus(text)
        assert rebuilt.get("repro_estimate_latency_seconds") is not None

    def test_metrics_is_live_not_a_snapshot(self, server):
        server.resolve_registry().counter(
            "repro_records_ingested_total", "Records."
        ).inc(3)
        _, _, body = _get(server.port, "/metrics")
        assert "repro_records_ingested_total 10" in body.decode("utf-8")

    def test_healthz(self, server):
        status, headers, body = _get(server.port, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0.0
        assert payload["metric_families"] >= 2
        assert payload["tracing"] is True
        assert payload["traces"] == 0

    def test_traces_endpoint_with_limit(self, server):
        from repro.obs.trace import SpanRecord

        buffer = server.resolve_traces()
        for index in range(3):
            buffer.record(
                SpanRecord(
                    trace_id=f"{index:016x}",
                    span_id=f"{index:08x}",
                    parent_id=None,
                    name="op",
                    start=0.0,
                    duration=0.001,
                )
            )
        _, _, body = _get(server.port, "/traces")
        payload = json.loads(body)
        assert [t["trace_id"] for t in payload["traces"]] == [
            f"{2:016x}", f"{1:016x}", f"{0:016x}"
        ]
        _, _, body = _get(server.port, "/traces?limit=1")
        assert len(json.loads(body)["traces"]) == 1
        _, _, body = _get(server.port, "/traces?limit=bogus")
        assert len(json.loads(body)["traces"]) == 3

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.port, "/nope")
        assert excinfo.value.code == 404

    def test_scrape_counter_counts_by_endpoint(self, server):
        registry = server.resolve_registry()
        family = registry.get("repro_httpd_scrapes_total")
        assert family is not None  # pre-registered by start()
        _get(server.port, "/metrics")
        _get(server.port, "/healthz")
        _get(server.port, "/healthz")
        assert registry.counter(
            "repro_httpd_scrapes_total", endpoint="/healthz"
        ).value == 2
        # /metrics counts its own scrape before rendering, so the
        # exposition the scraper received already includes it.
        _, _, body = _get(server.port, "/metrics")
        text = body.decode("utf-8")
        assert 'endpoint="/metrics"} 2' in text
        assert 'endpoint="/traces"} 0' in text


class TestEndpointErrorPaths:
    """Hostile query strings and concurrent writers must not 500."""

    def test_shards_404_without_cluster(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.port, "/shards")
        assert excinfo.value.code == 404
        body = excinfo.value.read()
        assert b"no sharded tier" in body

    def test_traces_under_concurrent_writers(self, server):
        import threading

        from repro.obs.trace import SpanRecord

        buffer = server.resolve_traces()
        stop = threading.Event()

        def hammer(worker):
            index = 0
            while not stop.is_set():
                buffer.record(
                    SpanRecord(
                        trace_id=f"{worker:08d}{index % 97:08d}",
                        span_id=f"{index:08x}",
                        parent_id=None,
                        name=f"op-{worker}",
                        start=float(index),
                        duration=0.001,
                    )
                )
                index += 1

        writers = [
            threading.Thread(target=hammer, args=(worker,), daemon=True)
            for worker in range(4)
        ]
        for thread in writers:
            thread.start()
        try:
            for _ in range(10):
                status, _, body = _get(server.port, "/traces?limit=16")
                assert status == 200
                payload = json.loads(body)
                for trace in payload["traces"]:
                    assert trace["spans"]  # never a torn, empty trace
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=5)


class TestRuntimeFallback:
    def test_falls_back_to_runtime_globals(self):
        with MetricsServer() as server:
            registry = obs.enable(
                registry=obs.MetricsRegistry(), trace=TraceBuffer()
            )
            registry.counter("repro_late_total", "Registered late.").inc()
            _, _, body = _get(server.port, "/metrics")
            assert "repro_late_total 1" in body.decode("utf-8")
            _, _, body = _get(server.port, "/healthz")
            assert json.loads(body)["tracing"] is True

    def test_survives_disabled_obs(self):
        # No registry anywhere: endpoints still answer, metrics empty.
        with MetricsServer() as server:
            status, _, body = _get(server.port, "/metrics")
            assert status == 200
            assert parse_prometheus(body.decode("utf-8")) == {}
            _, _, body = _get(server.port, "/traces")
            assert json.loads(body)["traces"] == []
            payload = json.loads(_get(server.port, "/healthz")[2])
            assert payload["tracing"] is False

    def test_stop_is_idempotent_and_releases_port(self):
        server = MetricsServer()
        port = server.start()
        server.stop()
        server.stop()
        with pytest.raises(urllib.error.URLError):
            _get(port, "/healthz")

    def test_endpoint_catalog(self):
        assert ENDPOINTS == (
            "/metrics",
            "/healthz",
            "/traces",
            "/shards",
        )
