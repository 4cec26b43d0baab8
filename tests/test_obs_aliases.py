"""Series that must agree: aliases and fused accounting.

* **Bank column aliases** — a bank field spec may name another field's
  cell column; the aliased child then reads that column
  (``repro_store_records`` and ``repro_volume_observations_total``
  mirror the ``ingested`` column this way).
* **Query counts** — ``repro_queries_total{kind}`` is counted next to
  the latency observation, so it always equals
  ``repro_estimate_latency_seconds_count{kind}``.

Both must survive cross-process ``merge`` without double counting,
and span fusion / ratio-1 skips must not lose or duplicate events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ObservabilityError
from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.queries import PointPersistentQuery, PointVolumeQuery
from repro.sketch.bitmap import Bitmap
from repro.sketch.join import and_join


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


def _record(location=0, period=0, size=4096, seed=1):
    rng = np.random.default_rng(seed + location * 31 + period)
    bitmap = Bitmap(size)
    bitmap.set_many(rng.integers(0, size, size=300, dtype=np.int64))
    return TrafficRecord(location=location, period=period, bitmap=bitmap)


def _exercise_server(periods=4):
    server = CentralServer()
    for period in range(periods):
        server.receive_record(_record(period=period))
    server.point_volume(PointVolumeQuery(location=0, period=0))
    server.point_persistent(
        PointPersistentQuery(location=0, periods=tuple(range(periods)))
    )
    return server


class TestBankColumnAliases:
    def test_alias_must_name_a_direct_field(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.bank(
                "bad",
                {
                    "events": ("counter", "repro_a_total", "", None),
                    "mirror": ("gauge", "repro_b", "", None, "missing"),
                },
            )

    def test_alias_of_an_alias_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.bank(
                "bad",
                {
                    "events": ("counter", "repro_a_total", "", None),
                    "mirror": ("gauge", "repro_b", "", None, "events"),
                    "echo": ("gauge", "repro_c", "", None, "mirror"),
                },
            )

    def test_server_ingest_aliases_agree(self):
        registry = obs.enable(registry=MetricsRegistry())
        _exercise_server()
        ingested = registry.get("repro_records_ingested_total").labels()
        resident = registry.get("repro_store_records").labels()
        volume = registry.get("repro_volume_observations_total").labels()
        assert ingested.value == 4.0
        assert resident.value == ingested.value
        assert volume.value == ingested.value

    def test_alias_merge_parity(self):
        """Snapshots carry alias values; merging keeps them in step."""
        parent = obs.enable(registry=MetricsRegistry())
        _exercise_server()
        worker = MetricsRegistry()
        obs.enable(registry=worker)
        _exercise_server()
        snapshot = worker.snapshot()
        obs.enable(registry=parent)
        parent.merge(snapshot)
        ingested = parent.get("repro_records_ingested_total").labels()
        resident = parent.get("repro_store_records").labels()
        assert ingested.value == 8.0
        assert resident.value == 8.0


class TestHistogramCountAliases:
    def test_queries_total_is_latency_count(self):
        registry = obs.enable(registry=MetricsRegistry())
        _exercise_server()
        samples = parse_prometheus(to_prometheus(registry))
        for kind in ("point_volume", "point_persistent"):
            key = (("kind", kind),)
            assert samples[("repro_queries_total", key)] == 1.0
            assert (
                samples[("repro_queries_total", key)]
                == samples[("repro_estimate_latency_seconds_count", key)]
            )

    def test_merge_does_not_double_count(self):
        """A merge adds each remote query to both series exactly once.

        The worker snapshot carries both the counter value and the
        histogram series; each must land once, or every remote query
        would count twice in one of them.
        """
        parent = obs.enable(registry=MetricsRegistry())
        _exercise_server()  # 2 local queries
        worker = MetricsRegistry()
        obs.enable(registry=worker)
        _exercise_server()  # 2 worker queries
        snapshot = worker.snapshot()
        obs.enable(registry=parent)
        parent.merge(snapshot)
        samples = parse_prometheus(to_prometheus(parent))
        for kind in ("point_volume", "point_persistent"):
            key = (("kind", kind),)
            assert samples[("repro_queries_total", key)] == 2.0
            assert (
                samples[("repro_estimate_latency_seconds_count", key)] == 2.0
            )

    def test_plain_registry_merge_unaffected(self):
        """Counters from a plain registry merge as-is."""
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("repro_queries_total", kind="benchmark").inc(3)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        child = parent.get("repro_queries_total").labels(kind="benchmark")
        assert child.value == 6.0


class TestSpanFusion:
    def test_query_span_not_double_counted_metrics_only(self):
        registry = obs.enable(registry=MetricsRegistry())
        _exercise_server()
        family = registry.get("repro_span_duration_seconds")
        # Query endpoints fuse their span into _observe_query: the
        # server.query series must carry exactly one duration per
        # query, via the fused path, in metrics-only mode.
        child = family.labels(span="server.query") if family else None
        count = child.count if child is not None else 0
        assert count == 2

    def test_query_span_not_double_counted_while_tracing(self):
        registry = obs.enable(
            registry=MetricsRegistry(), trace=TraceBuffer()
        )
        _exercise_server()
        child = registry.get("repro_span_duration_seconds").labels(
            span="server.query"
        )
        assert child.count == 2
        assert registry.get("repro_queries_total") is not None


class TestRatioOneSkip:
    def test_equal_size_join_records_no_expansion(self):
        registry = obs.enable(registry=MetricsRegistry())
        bitmaps = [Bitmap(1024), Bitmap(1024), Bitmap(1024)]
        for index, bitmap in enumerate(bitmaps):
            bitmap.set(index)
        and_join(bitmaps)
        family = registry.get("repro_expansion_ratio")
        assert family is None or family.labels().count == 0

    def test_mixed_size_join_counts_only_expanding_inputs(self):
        registry = obs.enable(registry=MetricsRegistry())
        small = Bitmap(512)
        small.set(1)
        large = Bitmap(1024)
        large.set(1)
        other = Bitmap(1024)
        other.set(2)
        and_join([small, large, other])
        child = registry.get("repro_expansion_ratio").labels()
        # Only the 512-bit input expands (ratio 2); the 1024-bit
        # inputs are already at the target and are passed through.
        assert child.count == 1
        assert child.sum == pytest.approx(2.0)
