"""Historical views: volume averages for sizing, window series.

Eq. 2 sizes each RSU's bitmap from "the expected traffic volume at the
RSU during the measurement period based on historical average at the
same location and the same time".  :class:`VolumeHistory` keeps an
exponentially-weighted average of per-period volume estimates (from
single-record linear counting) per location, and recommends the next
period's bitmap size.

:func:`persistent_window_series` is the retrospective companion to the
live :class:`~repro.server.monitor.PersistenceMonitor`: one Eq. 12
estimate per full window position over an already-collected record
sequence, computed through an
:class:`~repro.sketch.interval.IntervalJoinIndex` so sweeping a window
across ``t`` records costs O(t log w) joins instead of O(t·w).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.point import PointPersistentEstimator, RecordLike
from repro.exceptions import ConfigurationError
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.sketch.interval import IntervalJoinIndex, split_range_join
from repro.sketch.sizing import bitmap_size_for_volume

#: Bound handles for the non-ingest paths.  Per-ingest accounting
#: (volume observations, the location gauge) is recorded by
#: :meth:`~repro.server.central.CentralServer.receive_record` through
#: its fused counter bank; the location gauge accumulates +1 on first
#: sight of a location (the map never shrinks).
_HISTORY_LOCATIONS = obs.bind_gauge(
    "repro_history_locations",
    "Locations with a tracked volume average.",
)
_SIZING_RECOMMENDATIONS = obs.bind_counter(
    "repro_sizing_recommendations_total",
    "Eq. 2 bitmap-size recommendations issued.",
)


class VolumeHistory:
    """Tracks expected traffic volume ``n̄`` per location.

    Parameters
    ----------
    load_factor:
        The system-wide load factor ``f`` of Eq. 2.
    smoothing:
        Weight of the newest observation in the exponentially-weighted
        average (1.0 = always use the latest estimate).
    default_volume:
        Volume assumed for a location with no history yet (a freshly
        deployed RSU needs *some* initial bitmap size).
    """

    def __init__(
        self,
        load_factor: float = 2.0,
        smoothing: float = 0.3,
        default_volume: float = 10000.0,
    ):
        if load_factor <= 0:
            raise ConfigurationError(f"load factor must be positive, got {load_factor}")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must lie in (0, 1], got {smoothing}"
            )
        if default_volume <= 0:
            raise ConfigurationError(
                f"default volume must be positive, got {default_volume}"
            )
        self._load_factor = float(load_factor)
        self._smoothing = float(smoothing)
        self._default_volume = float(default_volume)
        self._averages: Dict[int, float] = {}

    @property
    def load_factor(self) -> float:
        """The system-wide load factor ``f``."""
        return self._load_factor

    def expected_volume(self, location: int) -> float:
        """Current expectation ``n̄`` for a location."""
        return self._averages.get(int(location), self._default_volume)

    def observe(self, location: int, volume_estimate: float) -> bool:
        """Fold a new per-period volume estimate into the average.

        Returns True when this is the first observation for the
        location (the caller accounts the location-gauge bump along
        with its other ingest metrics).
        """
        if volume_estimate < 0:
            raise ConfigurationError(
                f"volume estimate must be non-negative, got {volume_estimate}"
            )
        key = int(location)
        if key not in self._averages:
            self._averages[key] = float(volume_estimate)
            return True
        previous = self._averages[key]
        self._averages[key] = (
            self._smoothing * float(volume_estimate)
            + (1.0 - self._smoothing) * previous
        )
        return False

    def recommend_size(self, location: int) -> int:
        """Bitmap size for the location's next period (Eq. 2)."""
        if obs.ACTIVE:
            _SIZING_RECOMMENDATIONS.inc()
        return bitmap_size_for_volume(self.expected_volume(location), self._load_factor)

    def set_expected_volume(self, location: int, volume: float) -> None:
        """Override the expectation (e.g. seeded from planning data)."""
        if volume <= 0:
            raise ConfigurationError(f"expected volume must be positive, got {volume}")
        key = int(location)
        if key not in self._averages and obs.ACTIVE:
            _HISTORY_LOCATIONS.inc(1)
        self._averages[key] = float(volume)


def persistent_window_series(
    records: Sequence[RecordLike],
    window: int,
    estimator: Optional[PointPersistentEstimator] = None,
):
    """Sliding-window Eq. 12 estimates over a collected record sequence.

    Returns one :class:`~repro.server.monitor.MonitorSample` per full
    window position, oldest first (empty when fewer than ``window``
    records).  ``records`` may be traffic records or raw bitmaps (raw
    bitmaps get their position as ``latest_period``) and must already
    be in period order.

    Each estimate is bit-identical to feeding the same records through
    a :class:`~repro.server.monitor.PersistenceMonitor` — the shared
    interval-join index just avoids re-joining ``window`` bitmaps at
    every step.  Degenerate windows raise the same typed errors the
    monitor raises (:class:`~repro.exceptions.EstimationError` etc.).
    """
    from repro.server.monitor import MonitorSample

    if int(window) < 2:
        raise ConfigurationError(
            f"the split-join estimator needs a window >= 2, got {window}"
        )
    window = int(window)
    estimator = estimator if estimator is not None else PointPersistentEstimator()
    index = IntervalJoinIndex()
    samples: List[MonitorSample] = []
    for position, record in enumerate(records):
        is_record = isinstance(record, TrafficRecord)
        index.append(record.bitmap if is_record else record)
        if position + 1 < window:
            continue
        start = position + 1 - window
        split = split_range_join(index, start, position + 1)
        estimate = estimator.estimate_from_split(split, window)
        samples.append(
            MonitorSample(
                latest_period=record.period if is_record else position,
                window=window,
                estimate=estimate,
            )
        )
        index.evict_before(start + 1)
    return samples
