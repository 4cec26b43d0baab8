"""Multi-threaded stress for the metric core.

Enabled telemetry must be *exact* at the read path: every read
(scrape, snapshot, value) returns totals that are exact once writers
quiesce — and internally consistent even mid-flight.  These tests
hammer counters, gauges, histograms (one value behind one lock each)
and a counter bank (per-thread cells with column aliases) from many
threads while a scraper loops the Prometheus exposition, then assert
the totals to the last unit.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry

WRITERS = 6
ITERATIONS = 2000


@pytest.fixture
def registry():
    return MetricsRegistry()


def _run_writers(target, count=WRITERS):
    barrier = threading.Barrier(count)

    def wrapped(index):
        barrier.wait()
        target(index)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestExactTotalsUnderContention:
    def test_counter_and_gauge_totals_exact(self, registry):
        counter = registry.counter("repro_stress_total")
        gauge = registry.gauge("repro_stress_level")

        def work(index):
            for _ in range(ITERATIONS):
                counter.inc()
                gauge.inc(2.0)
                gauge.dec(1.0)

        for thread in _run_writers(work):
            thread.join()
        assert counter.value == WRITERS * ITERATIONS
        assert gauge.value == WRITERS * ITERATIONS

    def test_histogram_count_and_sum_exact(self, registry):
        histogram = registry.histogram(
            "repro_stress_seconds", buckets=(1.0, 2.0, 4.0)
        )

        def work(index):
            for iteration in range(ITERATIONS):
                histogram.observe(float(iteration % 3))

        for thread in _run_writers(work):
            thread.join()
        assert histogram.count == WRITERS * ITERATIONS
        assert histogram.sum == pytest.approx(
            WRITERS * sum(float(i % 3) for i in range(ITERATIONS))
        )
        cumulative = histogram.cumulative()
        assert cumulative[-1][1] == WRITERS * ITERATIONS

    def test_bank_with_aliases_exact(self, registry):
        bank = registry.bank(
            "stress_bank",
            {
                "events": ("counter", "repro_stress_events_total", "", None),
                "mirror": (
                    "gauge", "repro_stress_mirror", "", None, "events",
                ),
                "bits": ("counter", "repro_stress_bits_total", "", None),
            },
        )

        def work(index):
            for _ in range(ITERATIONS):
                cell = bank.cell()
                cell.events += 1
                cell.bits += 8

        for thread in _run_writers(work):
            thread.join()
        events = registry.get("repro_stress_events_total").labels()
        mirror = registry.get("repro_stress_mirror").labels()
        bits = registry.get("repro_stress_bits_total").labels()
        assert events.value == WRITERS * ITERATIONS
        # The alias reads the very same column: identical by definition.
        assert mirror.value == events.value
        assert bits.value == 8 * WRITERS * ITERATIONS


class TestLostUpdates:
    def test_short_switch_interval_loses_no_update(self, registry):
        """Locked read-modify-writes survive forced interleaving.

        A one-microsecond switch interval makes the interpreter hand
        the GIL over between the read and the write of an update, so
        an unlocked ``value += amount`` would drop increments here.
        """
        counter = registry.counter("repro_stress_total")
        gauge = registry.gauge("repro_stress_level")
        histogram = registry.histogram(
            "repro_stress_seconds", buckets=(1.0, 2.0)
        )

        def work(index):
            for iteration in range(ITERATIONS):
                counter.inc()
                gauge.inc(2.0)
                gauge.dec(1.0)
                histogram.observe(float(iteration % 3))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = _run_writers(work)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value == WRITERS * ITERATIONS
        assert gauge.value == WRITERS * ITERATIONS
        assert histogram.count == WRITERS * ITERATIONS
        assert histogram.sum == WRITERS * sum(
            float(i % 3) for i in range(ITERATIONS)
        )


class TestScrapeWhileWriting:
    def test_no_torn_exposition(self, registry):
        """Concurrent scrapes always parse and stay self-consistent.

        Mid-flight totals are allowed to lag writers, but every
        exposition must parse, every cumulative bucket series must be
        monotone with ``+Inf`` equal to ``_count``, and counters must
        never move backwards between scrapes.
        """
        counter = registry.counter("repro_stress_total")
        histogram = registry.histogram(
            "repro_stress_seconds", buckets=(1.0, 2.0)
        )
        done = threading.Event()
        first_scrape = threading.Event()

        def work(index):
            for iteration in range(ITERATIONS):
                if iteration == ITERATIONS // 2:
                    # Hold half way until one scrape has run beside the
                    # writers, so fast writers cannot finish first.
                    first_scrape.wait(timeout=10)
                counter.inc()
                histogram.observe(float(iteration % 3))

        writers = _run_writers(work)
        observed = []
        previous_count = -1.0
        while not done.is_set():
            if all(not t.is_alive() for t in writers):
                done.set()
            samples = parse_prometheus(to_prometheus(registry))
            count = samples[("repro_stress_seconds_count", ())]
            inf_bucket = samples[
                ("repro_stress_seconds_bucket", (("le", "+Inf"),))
            ]
            low = samples[("repro_stress_seconds_bucket", (("le", "1"),))]
            mid = samples[("repro_stress_seconds_bucket", (("le", "2"),))]
            assert low <= mid <= inf_bucket
            assert inf_bucket == count
            total = samples[("repro_stress_total", ())]
            assert total >= previous_count
            previous_count = total
            observed.append(total)
            first_scrape.set()
        for thread in writers:
            thread.join()
        assert len(observed) >= 2
        final = parse_prometheus(to_prometheus(registry))
        assert final[("repro_stress_total", ())] == WRITERS * ITERATIONS
        assert (
            final[("repro_stress_seconds_count", ())] == WRITERS * ITERATIONS
        )
