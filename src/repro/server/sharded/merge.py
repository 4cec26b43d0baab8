"""Cross-shard coverage merging: one honest answer from N shards.

A multi-location query sends each owning shard one request carrying
all of its locations.  A surviving shard answers each location with
the same :class:`~repro.server.degradation.DegradedResult` a
single-process server would produce for it, or refuses that location
alone; a dead shard answers nothing.  This module folds those
per-location outcomes into a single result that never overstates
coverage:

* every ``(location, period)`` the query requested is attributed
  either to a shard answer (covered or explicitly missing) or to a
  dead shard (entirely uncovered);
* the merged coverage fraction counts *cells*, not locations, so one
  dead shard out of four degrades the answer by exactly the share of
  cells it owned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.server.degradation import DegradedResult


@dataclass(frozen=True)
class LocationOutcome:
    """What one location's owning shard said about it.

    Attributes
    ----------
    location:
        The queried location.
    shard:
        The shard that owns it.
    result:
        The shard's answer, or None when the shard was unreachable or
        refused the location (coverage floor, missing data, deadline).
    error:
        Human-readable reason when ``result`` is None.
    """

    location: int
    shard: int
    result: Optional[DegradedResult]
    error: str = ""

    @property
    def answered(self) -> bool:
        """True when the shard produced an estimate for this location."""
        return self.result is not None


@dataclass(frozen=True)
class ShardedQueryResult:
    """The merged answer to a multi-location persistent-traffic query.

    Attributes
    ----------
    outcomes:
        One :class:`LocationOutcome` per requested location, in
        request order.
    requested_periods:
        The periods the query asked for (same for every location).
    explain:
        Optional timing/attribution breakdown (populated when the
        query was issued with ``explain=True``): total and per-shard
        wall/engine/wire latency, cache hit/miss deltas, coverage
        contribution per shard, and deadline budget consumed.  JSON-
        safe, carried verbatim across the wire.
    """

    outcomes: Tuple[LocationOutcome, ...]
    requested_periods: Tuple[int, ...]
    explain: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(
            self, "requested_periods", tuple(self.requested_periods)
        )

    def outcome_for(self, location: int) -> LocationOutcome:
        """The outcome of one requested location."""
        for outcome in self.outcomes:
            if outcome.location == int(location):
                return outcome
        raise KeyError(f"location {location} was not part of this query")

    @property
    def uncovered(self) -> Tuple[Tuple[int, int], ...]:
        """Exact ``(location, period)`` cells the answer did not see.

        A dead or refusing shard contributes every requested period of
        each of its locations; an answering shard contributes exactly
        its result's missing periods.  Ordered by request order of
        locations, then periods.
        """
        cells = []
        for outcome in self.outcomes:
            if outcome.result is None:
                cells.extend(
                    (outcome.location, period)
                    for period in self.requested_periods
                )
            else:
                cells.extend(
                    (outcome.location, period)
                    for period in outcome.result.coverage.missing
                )
        return tuple(cells)

    @property
    def covered_cells(self) -> int:
        """Requested ``(location, period)`` cells an estimate saw."""
        return self.requested_cells - len(self.uncovered)

    @property
    def requested_cells(self) -> int:
        """Total requested ``(location, period)`` cells."""
        return len(self.outcomes) * len(self.requested_periods)

    @property
    def coverage_fraction(self) -> float:
        """Covered share of requested cells, in [0, 1]."""
        if not self.requested_cells:
            return 1.0
        return self.covered_cells / self.requested_cells

    @property
    def degraded(self) -> bool:
        """True when any requested cell went unanswered."""
        return bool(self.uncovered)

    @property
    def dead_locations(self) -> Tuple[int, ...]:
        """Locations whose shard produced no estimate at all."""
        return tuple(
            outcome.location
            for outcome in self.outcomes
            if outcome.result is None
        )
