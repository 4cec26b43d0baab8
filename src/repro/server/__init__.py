"""The central server: record collection, sizing, and queries.

All RSUs upload their per-period traffic records here (Section II-A).
The server:

* stores records keyed by (location, period)
  (:mod:`repro.server.store`);
* tracks historical traffic volume per location and sets each RSU's
  bitmap size for the next period via Eq. 2
  (:mod:`repro.server.history`);
* answers point and point-to-point persistent-traffic queries using
  the core estimators (:mod:`repro.server.central`,
  :mod:`repro.server.queries`), memoizing per-location joins in a
  query-plan cache (:mod:`repro.server.cache`) so repeated and
  overlapping queries — a flow matrix above all — never recompute a
  join that is still valid.
"""

from repro.server.cache import CacheStats, JoinCache
from repro.server.central import CentralServer
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.history import VolumeHistory, persistent_window_series
from repro.server.monitor import MonitorSample, PersistenceMonitor
from repro.server.persistence import RecordArchive, RepairReport
from repro.server.planner import (
    RankedSource,
    persistent_flow_matrix,
    rank_persistent_sources,
)
from repro.server.queries import (
    PointPersistentQuery,
    PointToPointPersistentQuery,
    PointVolumeQuery,
)
from repro.server.store import RecordStore

__all__ = [
    "CacheStats",
    "CentralServer",
    "CoveragePolicy",
    "CoverageReport",
    "DegradedResult",
    "JoinCache",
    "MonitorSample",
    "PersistenceMonitor",
    "RepairReport",
    "PointPersistentQuery",
    "PointToPointPersistentQuery",
    "PointVolumeQuery",
    "RankedSource",
    "RecordArchive",
    "RecordStore",
    "VolumeHistory",
    "persistent_flow_matrix",
    "persistent_window_series",
    "rank_persistent_sources",
]
