"""Multi-location query planning: ranked persistent-flow studies.

The paper's motivating use case (Section I): "if a location is
consistently congested, we can find the sources of the traffic ...
the persistent point-to-point traffic measurement tells us the minimum
amount of traffic contribution that we can always expect from each of
those sources.  This information helps in determining the priority
order for planning measures of traffic relief."

This module turns that paragraph into an API: given a central server
holding records, rank candidate source locations by their estimated
persistent contribution toward a target, or build the full pairwise
persistent-flow matrix for a set of locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.results import PointToPointEstimate
from repro.exceptions import ConfigurationError, EstimationError
from repro.obs import runtime as obs
from repro.obs.spans import span
from repro.server.central import CentralServer
from repro.server.queries import PointToPointPersistentQuery


def _pair_counters():
    """``(evaluated, skipped)`` pair counters, resolved once per study.

    Resolving registers both, so exports carry zeros from the start;
    while obs is disabled both are no-op metrics.
    """
    return (
        obs.counter(
            "repro_flow_pairs_total",
            "Location pairs evaluated by planner studies.",
        ),
        obs.counter(
            "repro_flow_pairs_skipped_total",
            "Planner pairs skipped because their estimate degenerated.",
        ),
    )


@dataclass(frozen=True)
class RankedSource:
    """One candidate source's persistent contribution to the target."""

    location: int
    estimate: PointToPointEstimate

    @property
    def volume(self) -> float:
        """The clamped persistent-volume estimate."""
        return self.estimate.clamped


def rank_persistent_sources(
    server: CentralServer,
    target: int,
    candidates: Sequence[int],
    periods: Sequence[int],
) -> List[RankedSource]:
    """Rank candidate locations by persistent traffic toward a target.

    Returns the candidates sorted by estimated point-to-point
    persistent volume with ``target``, largest first — the paper's
    "priority order for planning measures of traffic relief".

    Candidates whose estimate degenerates (saturated joins) are
    skipped rather than failing the whole study — but not silently:
    each skip increments ``repro_flow_pairs_skipped_total``.  An empty
    candidate list is a configuration error.
    """
    if not candidates:
        raise ConfigurationError("at least one candidate source is required")
    if int(target) in {int(c) for c in candidates}:
        raise ConfigurationError("the target cannot be its own source")
    pairs, skips = _pair_counters()
    ranked: List[RankedSource] = []
    with span("planner.rank_sources", target=target, candidates=len(candidates)):
        for candidate in candidates:
            query = PointToPointPersistentQuery(
                location_a=int(candidate),
                location_b=int(target),
                periods=tuple(periods),
            )
            try:
                estimate = server.point_to_point_persistent(query)
            except EstimationError:
                pairs.inc()
                skips.inc()
                continue
            pairs.inc()
            ranked.append(
                RankedSource(location=int(candidate), estimate=estimate)
            )
    ranked.sort(key=lambda source: source.volume, reverse=True)
    return ranked


def persistent_flow_matrix(
    server: CentralServer,
    locations: Sequence[int],
    periods: Sequence[int],
) -> Dict[Tuple[int, int], float]:
    """Pairwise persistent-flow estimates for a set of locations.

    Returns ``{(a, b): volume}`` for every unordered pair (keyed with
    ``a < b``; the estimator is symmetric in its two locations).
    Degenerate pairs are omitted from the result but counted in
    ``repro_flow_pairs_skipped_total``.  Every evaluated pair bumps
    ``repro_flow_pairs_total`` as it completes, so a long study over
    many locations shows its progress on a live ``/metrics`` scrape.

    With the server's query-plan cache enabled each location's
    AND-join is computed once and shared across its ``L-1`` pairs —
    O(L) join computations for the O(L²) matrix entries.
    """
    distinct = sorted({int(loc) for loc in locations})
    if len(distinct) < 2:
        raise ConfigurationError("a flow matrix needs at least two locations")
    pairs, skips = _pair_counters()
    total = len(distinct) * (len(distinct) - 1) // 2
    matrix: Dict[Tuple[int, int], float] = {}
    with span("planner.flow_matrix", locations=len(distinct), pairs=total):
        for index, location_a in enumerate(distinct):
            for location_b in distinct[index + 1:]:
                query = PointToPointPersistentQuery(
                    location_a=location_a,
                    location_b=location_b,
                    periods=tuple(periods),
                )
                try:
                    estimate = server.point_to_point_persistent(query)
                except EstimationError:
                    skips.inc()
                else:
                    matrix[(location_a, location_b)] = estimate.clamped
                pairs.inc()
    return matrix
