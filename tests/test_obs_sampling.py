"""Histogram exactness contract.

Every observation is bucketed exactly: ``count``, ``sum`` and the
per-bucket split match a hand-computed reference to the unit, through
``merge_cumulative``, registry merges and Prometheus round-trips alike.
These tests pin that contract with seeded workloads.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest

from repro.obs.export import registry_from_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry

BUCKETS = (0.5, 1.0, 2.0, 4.0)


def _seeded_values(count=4000, seed=7):
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.gamma(2.0, 0.6, size=count)]


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestAggregateExactness:
    def test_count_and_sum_match_unsampled_reference(self, registry):
        values = _seeded_values()
        sampled = registry.histogram(
            "repro_sampled_seconds", buckets=BUCKETS
        )
        reference = registry.histogram(
            "repro_reference_seconds", buckets=BUCKETS
        )
        for value in values:
            sampled.observe(value)
            reference.observe(value)
        assert sampled.count == reference.count == len(values)
        assert sampled.sum == pytest.approx(reference.sum)
        assert sampled.sum == pytest.approx(sum(values))

    def test_per_bucket_split_stays_close(self, registry):
        """The per-bucket split is the exact distribution of the values."""
        values = _seeded_values(count=8000)
        histogram = registry.histogram(
            "repro_sampled_seconds", buckets=BUCKETS
        )
        for value in values:
            histogram.observe(value)
        expected = [0] * (len(BUCKETS) + 1)
        for value in values:
            expected[bisect_left(BUCKETS, value)] += 1
        assert histogram.bucket_counts() == expected

    def test_observe_many_unsampled_equals_repeated_observe(self, registry):
        grouped = registry.histogram("repro_grouped_seconds", buckets=BUCKETS)
        repeated = registry.histogram(
            "repro_repeated_seconds", buckets=BUCKETS
        )
        grouped.observe_many(1.5, 37)
        for _ in range(37):
            repeated.observe(1.5)
        assert grouped.count == repeated.count == 37
        assert grouped.sum == pytest.approx(repeated.sum)
        assert grouped.bucket_counts() == repeated.bucket_counts()


class TestExactThroughAggregation:
    def test_merge_cumulative_exact(self, registry):
        values = _seeded_values(count=1000, seed=11)
        worker = registry.histogram(
            "repro_worker_seconds", buckets=BUCKETS
        )
        parent = registry.histogram(
            "repro_parent_seconds", buckets=BUCKETS
        )
        for value in values:
            worker.observe(value)
        pairs = [
            ("+Inf" if le == float("inf") else le, count)
            for le, count in worker.cumulative()
        ]
        parent.merge_cumulative(pairs, worker.sum, worker.count)
        parent.merge_cumulative(pairs, worker.sum, worker.count)
        assert parent.count == 2 * len(values)
        assert parent.sum == pytest.approx(2 * sum(values))

    def test_prometheus_round_trip_exact(self):
        values = _seeded_values(count=1500, seed=3)
        source = MetricsRegistry()
        histogram = source.histogram(
            "repro_sampled_seconds", buckets=BUCKETS
        )
        for value in values:
            histogram.observe(value)
        revived = registry_from_prometheus(to_prometheus(source))
        copy = revived.get("repro_sampled_seconds").labels()
        assert copy.count == len(values)
        assert copy.sum == pytest.approx(sum(values))
        assert copy.cumulative() == histogram.cumulative()

    def test_registry_merge_snapshot_exact(self):
        values = _seeded_values(count=1200, seed=5)
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        for reg in (parent, worker):
            reg.histogram(
                "repro_sampled_seconds", buckets=BUCKETS
            )
        for value in values:
            worker.get("repro_sampled_seconds").labels().observe(value)
        parent.merge(worker.snapshot())
        merged = parent.get("repro_sampled_seconds").labels()
        assert merged.count == len(values)
        assert merged.sum == pytest.approx(sum(values))
