"""The query-plan cache: bit-exact results, strict invalidation."""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.rsu.record import TrafficRecord
from repro.server.cache import JoinCache
from repro.server.central import CentralServer
from repro.server.persistence import RecordArchive
from repro.server.planner import persistent_flow_matrix
from repro.server.queries import (
    PointPersistentQuery,
    PointToPointPersistentQuery,
)
from repro.sketch.bitmap import Bitmap
from repro.sketch.join import split_and_join
from repro.traffic.workloads import PointToPointWorkload, PointWorkload

LOCATION = 4
PERIODS = (0, 1, 2, 3)


def _point_records(location, periods=4, n_star=150, volume=4000, seed=3):
    """Fig. 4-style single-location records."""
    workload = PointWorkload(s=3, load_factor=2.0, key_seed=5)
    rng = np.random.default_rng(seed)
    result = workload.generate(
        n_star=n_star, volumes=[volume] * periods, location=location, rng=rng
    )
    return [
        TrafficRecord(location=location, period=period, bitmap=bitmap)
        for period, bitmap in enumerate(result.records)
    ]


def _p2p_records(location_a, location_b, periods=3, seed=9):
    """Fig. 5-style two-location records with real persistent flow."""
    workload = PointToPointWorkload(s=3, load_factor=2.0, key_seed=6)
    rng = np.random.default_rng(seed)
    result = workload.generate(
        n_double_prime=300,
        volumes_a=[5000] * periods,
        volumes_b=[8000] * periods,
        location_a=location_a,
        location_b=location_b,
        rng=rng,
    )
    records = []
    for period in range(periods):
        records.append(
            TrafficRecord(
                location=location_a,
                period=period,
                bitmap=result.records_a[period],
            )
        )
        records.append(
            TrafficRecord(
                location=location_b,
                period=period,
                bitmap=result.records_b[period],
            )
        )
    return records


def _server(records, cache=True, **kwargs):
    server = CentralServer(s=3, load_factor=2.0, cache=cache, **kwargs)
    for record in records:
        server.receive_record(record)
    return server


class TestJoinCacheUnit:
    def test_lru_evicts_least_recently_used(self):
        cache = JoinCache(max_entries=2)
        b = Bitmap(8, [1] * 8)
        cache.and_join(1, (0, 1), lambda: b)
        cache.and_join(2, (0, 1), lambda: b)
        cache.and_join(1, (0, 1), lambda: b)  # touch 1 -> 2 is now LRU
        cache.and_join(3, (0, 1), lambda: b)  # evicts 2
        assert cache.stats.evictions == 1
        cache.and_join(1, (0, 1), lambda: pytest.fail("1 must be cached"))
        calls = []
        cache.and_join(2, (0, 1), lambda: calls.append(1) or b)
        assert calls  # 2 was evicted and had to rebuild

    def test_and_key_is_order_free_split_key_is_not(self):
        cache = JoinCache()
        b = Bitmap(8, [1] * 8)
        cache.and_join(1, (0, 1, 2), lambda: b)
        cache.and_join(1, (2, 0, 1), lambda: pytest.fail("same AND key"))
        split_calls = []
        cache.split_join(1, (0, 1, 2), lambda: split_calls.append(1) or b)
        cache.split_join(1, (2, 0, 1), lambda: split_calls.append(1) or b)
        assert len(split_calls) == 2  # order matters for the halves

    def test_failed_build_caches_nothing(self):
        cache = JoinCache()

        def boom():
            raise DataError("missing record")

        with pytest.raises(DataError):
            cache.and_join(1, (0, 1), boom)
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            JoinCache(max_entries=0)


class TestJoinCacheThreads:
    def test_lookups_beside_invalidation_stay_consistent(self):
        """Three lookup threads and one invalidator share a small cache.

        The LRU bound evicts on most misses while entries are being
        invalidated, so an unguarded probe-then-touch, or an index
        iterated while another thread changes it, raises.  Every join
        served must still be the one a from-scratch split-and-join
        builds, and every lookup must count as one hit or one miss.
        """
        rng = np.random.default_rng(2017)
        locations = list(range(6))
        periods = list(range(4))
        windows = [(0, 1), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3), (2, 3)]
        bitmaps = {
            (location, period): Bitmap(64, rng.random(64) < 0.7)
            for location in locations
            for period in periods
        }

        def build(location, window):
            return split_and_join([bitmaps[location, p] for p in window])

        truth = {
            (location, window): build(location, window)
            for location in locations
            for window in windows
        }
        cache = JoinCache(max_entries=8)
        stop = threading.Event()
        errors, wrong = [], []
        lookups = [0, 0, 0]

        def lookup(worker):
            pick = random.Random(worker)
            try:
                while not stop.is_set():
                    location = pick.choice(locations)
                    window = pick.choice(windows)
                    joined = cache.split_join(
                        location, window, lambda: build(location, window)
                    )
                    lookups[worker] += 1
                    if joined != truth[location, window]:
                        wrong.append((location, window))
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        def invalidate():
            pick = random.Random(99)
            try:
                while not stop.is_set():
                    cache.invalidate(
                        pick.choice(locations), pick.choice([None] + periods)
                    )
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=lookup, args=(worker,))
            for worker in range(3)
        ] + [threading.Thread(target=invalidate)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        assert min(lookups) > 0
        assert cache.stats.hits + cache.stats.misses == sum(lookups)


class TestBitExactness:
    """Cached answers must equal uncached answers exactly, not nearly."""

    def test_point_persistent_identical(self):
        records = _point_records(LOCATION)
        cached = _server(records, cache=True)
        uncached = _server(records, cache=False)
        query = PointPersistentQuery(location=LOCATION, periods=PERIODS)
        for _ in range(2):  # second ask hits the cache
            assert cached.point_persistent(query) == uncached.point_persistent(
                query
            )
        assert cached.cache.stats.hits > 0

    def test_point_benchmark_identical(self):
        records = _point_records(LOCATION)
        cached = _server(records, cache=True)
        uncached = _server(records, cache=False)
        query = PointPersistentQuery(location=LOCATION, periods=PERIODS)
        assert cached.point_persistent_benchmark(
            query
        ) == uncached.point_persistent_benchmark(query)

    def test_point_to_point_identical(self):
        records = _p2p_records(1, 2)
        cached = _server(records, cache=True)
        uncached = _server(records, cache=False)
        query = PointToPointPersistentQuery(
            location_a=1, location_b=2, periods=(0, 1, 2)
        )
        for _ in range(2):
            assert cached.point_to_point_persistent(
                query
            ) == uncached.point_to_point_persistent(query)

    def test_flow_matrix_identical_with_shared_joins(self):
        locations = (1, 2, 3, 4)
        records = []
        for location in locations:
            records += _point_records(
                location, periods=3, seed=10 + location
            )
        cached = _server(records, cache=True)
        uncached = _server(records, cache=False)
        periods = (0, 1, 2)
        assert persistent_flow_matrix(
            cached, locations, periods
        ) == persistent_flow_matrix(uncached, locations, periods)
        # O(L) joins for the O(L^2) matrix: one AND-join miss per
        # location, every further use of that location is a hit.
        stats = cached.cache.stats
        assert stats.misses == len(locations)
        assert stats.hits == len(locations) * (len(locations) - 1) - len(
            locations
        )

    def test_window_series_matches_monitor(self):
        from repro.server.monitor import PersistenceMonitor

        records = _point_records(LOCATION, periods=6)
        server = _server(records)
        samples = server.point_persistent_series(
            LOCATION, range(6), window=3
        )
        naive = PersistenceMonitor(LOCATION, window=3, use_index=False)
        for record in records:
            naive.push(record)
        assert [s.estimate for s in samples] == [
            s.estimate for s in naive.samples
        ]


class TestInvalidation:
    def test_new_record_drops_only_touching_entries(self):
        records = _point_records(LOCATION)
        server = _server(records)
        query = PointPersistentQuery(location=LOCATION, periods=PERIODS)
        server.point_persistent(query)
        assert len(server.cache) == 1
        # A later period the cached entry never saw: entry survives.
        extra = _point_records(LOCATION, periods=6, seed=3)[4]
        server.receive_record(extra)
        assert len(server.cache) == 1
        assert server.cache.stats.invalidations == 0

    def test_identical_duplicate_does_not_invalidate(self):
        records = _point_records(LOCATION)
        server = _server(records)
        query = PointPersistentQuery(location=LOCATION, periods=PERIODS)
        server.point_persistent(query)
        assert server.receive_record(records[0]) is False  # absorbed
        assert len(server.cache) == 1
        assert server.cache.stats.invalidations == 0
        server.point_persistent(query)
        assert server.cache.stats.hits == 1  # still served from cache

    def test_conflicting_upload_drops_the_location(self):
        records = _point_records(LOCATION)
        server = _server(records)
        server.point_persistent(
            PointPersistentQuery(location=LOCATION, periods=PERIODS)
        )
        assert len(server.cache) == 1
        conflicting = TrafficRecord(
            location=LOCATION,
            period=0,
            bitmap=Bitmap(records[0].bitmap.size, [1] * records[0].bitmap.size),
        )
        with pytest.raises(DataError):
            server.receive_record(conflicting)
        assert len(server.cache) == 0
        assert server.cache.stats.invalidations == 1

    def test_other_locations_untouched_by_conflict(self):
        records = _point_records(1, seed=1) + _point_records(2, seed=2)
        server = _server(records)
        for location in (1, 2):
            server.point_persistent(
                PointPersistentQuery(location=location, periods=PERIODS)
            )
        assert len(server.cache) == 2
        bad = TrafficRecord(
            location=1, period=0, bitmap=Bitmap(records[0].bitmap.size)
        )
        with pytest.raises(DataError):
            server.receive_record(bad)
        assert len(server.cache) == 1  # location 2's entry survives


class TestArchiveFlush:
    def test_repair_flushes_everything(self, tmp_path):
        archive = RecordArchive(tmp_path / "archive")
        records = _point_records(LOCATION)
        server = CentralServer(s=3, load_factor=2.0, archive=archive)
        for record in records:
            server.receive_record(record)
        server.point_persistent(
            PointPersistentQuery(location=LOCATION, periods=PERIODS)
        )
        assert len(server.cache) == 1
        archive.repair()  # even a clean pass may have changed the world
        assert len(server.cache) == 0

    def test_from_archive_flushes_on_repair(self, tmp_path):
        source = RecordArchive(tmp_path / "archive")
        source.save_all(_point_records(LOCATION))
        server = CentralServer.from_archive(source)
        server.point_persistent(
            PointPersistentQuery(location=LOCATION, periods=PERIODS)
        )
        assert len(server.cache) == 1
        source.repair()
        assert len(server.cache) == 0

    def test_recovered_archive_attaches_cleanly(self, tmp_path):
        source = RecordArchive(tmp_path / "archive")
        source.save_all(_point_records(LOCATION))
        (tmp_path / "archive" / "manifest.json").write_text("not json")
        recovered, report = RecordArchive.recover(tmp_path / "archive")
        assert len(report.recovered) == len(PERIODS)
        server = CentralServer.from_archive(recovered)
        server.point_persistent(
            PointPersistentQuery(location=LOCATION, periods=PERIODS)
        )
        assert len(server.cache) == 1
        recovered.repair()
        assert len(server.cache) == 0
