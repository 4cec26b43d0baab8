"""The central server tying storage, sizing and estimation together.

This is the main server-side entry point of the library: RSUs (or the
simulation driving them) upload traffic records; transportation
engineers submit queries; the server answers them with the paper's
estimators.  The server never sees a vehicle ID — it works purely on
bitmaps, which is the privacy point of the whole design.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from repro.core.baselines import DirectAndBenchmark
from repro.core.point import PointPersistentEstimator
from repro.core.point_to_point import PointToPointPersistentEstimator
from repro.core.results import PointEstimate
from repro.exceptions import ConfigurationError, CoverageError
from repro.obs import runtime as obs
from repro.obs import trace as trace_mod
from repro.obs.spans import SPAN_HISTOGRAM, add_link, trace_span
from repro.rsu.record import TrafficRecord
from repro.server.cache import DEFAULT_MAX_ENTRIES, JoinCache
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.history import VolumeHistory, persistent_window_series
from repro.server.monitor import MonitorSample
from repro.server.queries import (
    PointPersistentQuery,
    PointToPointPersistentQuery,
    PointVolumeQuery,
)
from repro.server.store import RecordStore
from repro.sketch.join import and_join, split_and_join

#: Bound handles for the ingest/query hot paths (labels are closed
#: enums, so every child is resolvable at import time).  Ingest bumps
#: up to seven series per record — store residency, history, archive —
#: so they share one counter bank: a single per-thread cell fetch,
#: then plain attribute adds.  Resident records and volume
#: observations are *identities* of the ingest count on this path (the
#: store never evicts, and every accepted record folds exactly one
#: volume estimate into the history), so their families alias the
#: ``ingested`` column and cost the hot path nothing.
_INGEST = obs.bind_bank(
    "server_ingest",
    {
        "ingested": (
            "counter",
            "repro_records_ingested_total",
            "Traffic records accepted by the central server.",
            None,
        ),
        "duplicates": (
            "counter",
            "repro_store_duplicates_total",
            "Byte-identical re-uploads absorbed as no-ops.",
            None,
        ),
        "archive_writes": (
            "counter",
            "repro_archive_writes_total",
            "Records persisted to the attached archive.",
            None,
        ),
        "resident_records": (
            "gauge",
            "repro_store_records",
            "Traffic records resident in the in-memory store.",
            None,
            "ingested",
        ),
        "resident_bits": (
            "gauge",
            "repro_store_bits",
            "Bitmap bits resident in the in-memory store.",
            None,
        ),
        "volume_observations": (
            "counter",
            "repro_volume_observations_total",
            "Per-period volume estimates folded into the history.",
            None,
            "ingested",
        ),
        "history_locations": (
            "gauge",
            "repro_history_locations",
            "Locations with a tracked volume average.",
            None,
        ),
    },
)
_DEGRADED = obs.bind_counter(
    "repro_queries_degraded_total",
    "Queries answered over incomplete period coverage.",
)
_QUERY_KINDS = (
    "point_volume",
    "point_persistent",
    "benchmark",
    "point_to_point",
    "point_persistent_series",
)
_QUERY_LATENCY = {
    kind: obs.bind_histogram(
        "repro_estimate_latency_seconds",
        "Wall-clock latency of answering one query.",
        kind=kind,
    )
    for kind in _QUERY_KINDS
}
_QUERY_TOTAL = {
    kind: obs.bind_counter(
        "repro_queries_total", "Queries served by the central server.",
        kind=kind,
    )
    for kind in _QUERY_KINDS
}
#: In metrics-only mode :func:`~repro.obs.spans.trace_span` is a no-op
#: and the ``server.query`` span duration is fed from the elapsed time
#: ``_observe_query`` already measured — one clock pair per query
#: instead of two, no span object, no stack traffic.
#: Kept: a real span here cost +2.6 pts of enabled slowdown (observability.md).
_QUERY_SPAN_DURATION = obs.bind_histogram(
    SPAN_HISTOGRAM,
    "Wall-clock duration of instrumented spans.",
    span="server.query",
)


class CentralServer:
    """Collects traffic records and answers persistent-traffic queries.

    Parameters
    ----------
    s:
        The system-wide representative-bit parameter the deployed
        vehicles use (needed by the point-to-point estimator).
    load_factor:
        The system-wide load factor ``f`` used when sizing RSU bitmaps
        from historical volume (Eq. 2).
    archive:
        Optional :class:`~repro.server.persistence.RecordArchive`;
        when given, every ingested record is also persisted to disk
        (month-scale queries need durable records).
    cache:
        ``True`` (default) memoizes per-location joins in a
        :class:`~repro.server.cache.JoinCache` sized by
        ``cache_entries``; ``False`` recomputes every join from raw
        bitmaps (the historical behaviour); or pass a ready
        :class:`~repro.server.cache.JoinCache` to share/size one
        explicitly.  Results are bit-identical either way.
    cache_entries:
        LRU bound when the server builds its own cache.
    """

    def __init__(
        self,
        s: int = 3,
        load_factor: float = 2.0,
        archive=None,
        cache: Union[bool, JoinCache] = True,
        cache_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        if s < 1:
            raise ConfigurationError(f"s must be >= 1, got {s}")
        self._store = RecordStore()
        self._history = VolumeHistory(load_factor=load_factor)
        self._point_estimator = PointPersistentEstimator()
        self._p2p_estimator = PointToPointPersistentEstimator(s)
        self._benchmark = DirectAndBenchmark()
        self._s = int(s)
        if cache is True:
            self._cache: Optional[JoinCache] = JoinCache(max_entries=cache_entries)
        elif cache:
            self._cache = cache
        else:
            self._cache = None
        self._store.add_listener(self._on_store_change)
        self._archive = None
        if archive is not None:
            self._attach_archive(archive)

    @classmethod
    def from_archive(cls, archive, s: int = 3, load_factor: float = 2.0):
        """Restore a server from an on-disk archive.

        Verifies and re-ingests every archived record, rebuilding the
        volume history with everything resident in RAM.  The archive
        stays attached so new records keep being persisted.
        """
        server = cls(s=s, load_factor=load_factor)
        for record in archive.load_all():
            server.receive_record(record)
        server._attach_archive(archive)
        return server

    def _attach_archive(self, archive) -> None:
        self._archive = archive
        archive.add_repair_listener(self._on_archive_repair)

    # ------------------------------------------------------------------
    # Query-plan cache plumbing
    # ------------------------------------------------------------------

    def _on_store_change(self, event: str, location: int, period: int) -> None:
        """Strict invalidation: adds drop touched joins, conflicts a site."""
        if self._cache is None:
            return
        if event == "added":
            self._cache.invalidate(location, period, reason="add")
        elif event == "conflict":
            self._cache.invalidate(location, reason="conflict")

    def _on_archive_repair(self, report) -> None:
        """An archive repair ran: every memoized join is suspect."""
        if self._cache is not None:
            self._cache.flush(reason="flush")

    def _and_join_for(self, location: int, periods) -> "Bitmap":
        """The (possibly cached) AND-join of one location's records."""
        def build():
            records = self._store.records_for(location, periods)
            return and_join([r.bitmap for r in records])

        if self._cache is None:
            return build()
        return self._cache.and_join(location, periods, build)

    def _point_estimate_for(self, location: int, periods) -> PointEstimate:
        """The (possibly cached) Eq. 12 estimate, split in request order.

        Eq. 12 reads only three fractions off the split-join, so the
        cache keeps the frozen estimate itself and a hit counts no
        bits.  An estimate that raises caches nothing.
        """
        def build():
            records = self._store.records_for(location, periods)
            split = split_and_join([r.bitmap for r in records])
            return self._point_estimator.estimate_from_split(
                split, len(periods)
            )

        if self._cache is None:
            return build()
        return self._cache.split_join(location, periods, build)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def s(self) -> int:
        """The representative-bit parameter of the deployment."""
        return self._s

    @property
    def store(self) -> RecordStore:
        """The underlying record store."""
        return self._store

    @property
    def history(self) -> VolumeHistory:
        """The per-location volume history used for sizing."""
        return self._history

    @property
    def cache(self) -> Optional[JoinCache]:
        """The query-plan cache, or None when caching is disabled."""
        return self._cache

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def receive_record(self, record: TrafficRecord) -> bool:
        """Ingest one traffic record and update the volume history.

        Returns whether the record was newly stored.  A byte-identical
        re-upload (retried or duplicated transmission) is an idempotent
        no-op returning False — history and archive are not touched
        again, so degraded transports can re-send safely.
        """
        if not self._store.add(record):
            if obs.ACTIVE:
                _INGEST.cell().duplicates += 1
            return False
        new_location = self._history.observe(
            record.location, max(record.point_estimate(), 1.0)
        )
        if self._archive is not None:
            self._archive.save(record)
        if obs.ACTIVE:
            # Resident records and volume observations alias the
            # ``ingested`` column (see the bank spec), so two adds and
            # two branches cover seven exported series.
            cell = _INGEST.cell()
            cell.ingested += 1
            cell.resident_bits += record.size
            if new_location:
                cell.history_locations += 1
            if self._archive is not None:
                cell.archive_writes += 1
            if obs.TRACING:
                # Remember which upload trace produced this cell, so a
                # later query over it can link back to the transport
                # spans (retries included) that delivered it.
                context = trace_mod.current()
                buffer = obs.trace_buffer()
                if context is not None and buffer is not None:
                    buffer.bind(
                        record.location, record.period, context, kind="record"
                    )
        return True

    def receive_payload(self, payload: bytes) -> TrafficRecord:
        """Ingest a serialized upload from an RSU."""
        record = TrafficRecord.from_payload(payload)
        self.receive_record(record)
        return record

    def recommend_bitmap_size(self, location: int) -> int:
        """Bitmap size the RSU at ``location`` should use next (Eq. 2)."""
        return self._history.recommend_size(location)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _observe_query(kind: str, started: float) -> None:
        """Account one served query (only called while obs is enabled).

        The latency observe and the per-kind query count sit side by
        side, so ``repro_queries_total`` always equals the latency
        histogram's ``_count``.  The ``server.query`` span duration is
        fused in here too — unless a real
        :class:`~repro.obs.spans.Span` is open (tracing active), which
        records the duration itself on exit.
        """
        elapsed = time.perf_counter() - started
        _QUERY_LATENCY[kind].observe(elapsed)
        _QUERY_TOTAL[kind].inc()
        if not obs.TRACING:
            _QUERY_SPAN_DURATION.observe(elapsed)

    @staticmethod
    def _trace_links(locations, periods) -> None:
        """Link the open query span to the uploads behind its cells.

        Every ``(location, period)`` the query *requested* is looked up
        in the trace buffer's binding table — stored records and
        dead-lettered uploads alike — so a degraded query's trace
        shows both the uploads it consumed and the one whose loss
        degraded it.  No-op unless tracing is active.
        """
        if not obs.TRACING:
            return
        buffer = obs.trace_buffer()
        if buffer is None:
            return
        for location in locations:
            for period in periods:
                for binding in buffer.bindings(location, period):
                    add_link(binding.context)

    def point_volume(self, query: PointVolumeQuery) -> float:
        """Single-period traffic volume estimate (Eq. 1)."""
        started = time.perf_counter()
        with trace_span("server.query", kind="point_volume"):
            self._trace_links([query.location], [query.period])
            record = self._store.require(query.location, query.period)
            estimate = record.point_estimate()
        if obs.ACTIVE:
            self._observe_query("point_volume", started)
        return estimate

    def _resolve_coverage(
        self, locations, periods, policy: CoveragePolicy
    ) -> CoverageReport:
        """Apply a coverage policy to a query's requested periods.

        A period survives only when *every* involved location holds a
        record for it (a point-to-point join needs both sides).  When
        the surviving set fails the policy, raises
        :class:`~repro.exceptions.CoverageError` carrying the report;
        otherwise counts the query as degraded (if it is) and returns
        the report.
        """
        requested = tuple(periods)
        covered = tuple(
            p
            for p in requested
            if all(self._store.get(loc, p) is not None for loc in locations)
        )
        report = CoverageReport(requested=requested, covered=covered)
        if not policy.permits(report):
            raise CoverageError(
                f"coverage {report.fraction:.0%} over periods {requested} "
                f"(covered {covered}) falls below the policy floor "
                f"(min_coverage={policy.min_coverage:g}, "
                f"min_periods={policy.min_periods})",
                coverage=report,
            )
        if report.degraded and obs.ACTIVE:
            _DEGRADED.inc()
        return report

    def point_persistent(
        self,
        query: PointPersistentQuery,
        policy: Optional[CoveragePolicy] = None,
    ):
        """Point persistent traffic estimate (Eq. 12).

        Without a policy this is the strict paper behaviour: any
        missing period raises :class:`~repro.exceptions.DataError`.
        With a :class:`~repro.server.degradation.CoveragePolicy` the
        estimate runs over the surviving periods and comes back
        wrapped in a :class:`~repro.server.degradation.DegradedResult`
        (raising :class:`~repro.exceptions.CoverageError` only below
        the policy floor).
        """
        started = time.perf_counter()
        with trace_span("server.query", kind="point_persistent"):
            self._trace_links([query.location], query.periods)
            if policy is None:
                estimate = self._point_estimate_for(
                    query.location, query.periods
                )
                if obs.ACTIVE:
                    self._observe_query("point_persistent", started)
                return estimate
            report = self._resolve_coverage(
                [query.location], query.periods, policy
            )
            estimate = self._point_estimate_for(
                query.location, report.covered
            )
            if obs.ACTIVE:
                self._observe_query("point_persistent", started)
            return DegradedResult(value=estimate, coverage=report)

    def point_persistent_benchmark(
        self,
        query: PointPersistentQuery,
        policy: Optional[CoveragePolicy] = None,
    ):
        """The direct AND-join benchmark on the same query (Fig. 4)."""
        started = time.perf_counter()
        with trace_span("server.query", kind="benchmark"):
            self._trace_links([query.location], query.periods)
            if policy is None:
                joined = self._and_join_for(query.location, query.periods)
                estimate = self._benchmark.estimate_from_join(
                    joined, len(query.periods)
                )
                if obs.ACTIVE:
                    self._observe_query("benchmark", started)
                return estimate
            report = self._resolve_coverage(
                [query.location], query.periods, policy
            )
            joined = self._and_join_for(query.location, report.covered)
            estimate = self._benchmark.estimate_from_join(
                joined, len(report.covered)
            )
            if obs.ACTIVE:
                self._observe_query("benchmark", started)
            return DegradedResult(value=estimate, coverage=report)

    def point_to_point_persistent(
        self,
        query: PointToPointPersistentQuery,
        policy: Optional[CoveragePolicy] = None,
    ):
        """Point-to-point persistent traffic estimate (Eq. 21).

        With a policy, a period survives only when *both* locations
        hold its record, and the result is wrapped in a
        :class:`~repro.server.degradation.DegradedResult`.
        """
        started = time.perf_counter()
        with trace_span("server.query", kind="point_to_point"):
            self._trace_links(
                [query.location_a, query.location_b], query.periods
            )
            if policy is None:
                estimate = self._p2p_from_cache(
                    query.location_a, query.location_b, query.periods
                )
                if obs.ACTIVE:
                    self._observe_query("point_to_point", started)
                return estimate
            report = self._resolve_coverage(
                [query.location_a, query.location_b], query.periods, policy
            )
            estimate = self._p2p_from_cache(
                query.location_a, query.location_b, report.covered
            )
            if obs.ACTIVE:
                self._observe_query("point_to_point", started)
            return DegradedResult(value=estimate, coverage=report)

    def _p2p_from_cache(self, location_a: int, location_b: int, periods):
        """Eq. 21 from two (possibly cached) per-location AND-joins.

        The second level (expand the smaller side, OR, linear-count)
        is cheap; the per-location joins dominate and are shared
        across every pair that involves the location — this is what
        drops a flow matrix from O(L²) to O(L) join computations.
        """
        if len(periods) == 0:
            # Preserve the estimator's own empty-input diagnostics.
            return self._p2p_estimator.estimate([], [])
        joined_a = self._and_join_for(location_a, periods)
        joined_b = self._and_join_for(location_b, periods)
        return self._p2p_estimator.estimate_from_joins(
            joined_a, joined_b, len(periods)
        )

    def point_persistent_series(
        self,
        location: int,
        periods: Sequence[int],
        window: int,
    ) -> List[MonitorSample]:
        """Sliding-window point-persistence over a period sequence.

        Answers "how did persistence evolve" retrospectively: one
        Eq. 12 estimate per full window position, computed through an
        interval-join index so each step costs O(1) cached joins
        instead of re-joining the whole window
        (:func:`repro.server.history.persistent_window_series`).
        """
        started = time.perf_counter()
        with trace_span("server.query", kind="point_persistent_series"):
            self._trace_links([location], periods)
            records = self._store.records_for(location, periods)
            samples = persistent_window_series(
                records, window, estimator=self._point_estimator
            )
        if obs.ACTIVE:
            self._observe_query("point_persistent_series", started)
        return samples
