"""Point persistent traffic estimation (Section III, Eq. 12).

Given ``t`` traffic records from one location, the estimator:

1. expands every bitmap to the maximum size ``m`` (powers of two, so
   replication preserves the common vehicles' bits — Section III-A);
2. splits the expanded records into two halves Π_a and Π_b and
   AND-joins each half into ``E_a`` and ``E_b`` (Section III-B);
3. AND-joins the halves into ``E_*``;
4. abstracts each half as an independent population of
   ``n_a = ln V_a0 / ln(1-1/m)`` (resp. ``n_b``) vehicles that contains
   the common vehicles, and solves the resulting occupancy equation for
   the number of common vehicles:

       n̂* = [ln V_a0 + ln V_b0 − ln(V*_1 + V_a0 + V_b0 − 1)]
            / ln(1 − 1/m)                                      (Eq. 12)

The derivation models each bit of ``E_*`` as set either by a common
vehicle (probability ``P_* = 1-(1-1/m)^{n*}``) or by independent
transient collisions in both halves, giving
``E(V*_1) = 1 - V_a0 - V_b0 + V_a0·V_b0·(1-1/m)^{-n*}`` (Eq. 10),
which Eq. 12 inverts.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

from repro.core.results import PointEstimate
from repro.exceptions import EstimationError, SaturatedBitmapError
from repro.rsu.record import TrafficRecord
from repro.sketch.batch import BitmapBatch, split_and_join_batch
from repro.sketch.bitmap import Bitmap
from repro.sketch.join import SplitJoinResult, split_and_join

RecordLike = Union[TrafficRecord, Bitmap]


def _as_bitmaps(records: Sequence[RecordLike]) -> list:
    """Accept traffic records or raw bitmaps interchangeably."""
    bitmaps = []
    for record in records:
        bitmaps.append(record.bitmap if isinstance(record, TrafficRecord) else record)
    return bitmaps


def point_estimate_from_statistics(
    v_a0: float, v_b0: float, v_star1: float, size: int
) -> float:
    """Evaluate Eq. 12 from measured bitmap statistics.

    Split out so tests can probe the formula directly and the analysis
    layer can study its sensitivity without building bitmaps.
    """
    if v_a0 <= 0.0:
        raise SaturatedBitmapError(
            "E_a is saturated (no zero bits); increase the load factor f"
        )
    if v_b0 <= 0.0:
        raise SaturatedBitmapError(
            "E_b is saturated (no zero bits); increase the load factor f"
        )
    argument = v_star1 + v_a0 + v_b0 - 1.0
    if argument <= 0.0:
        raise EstimationError(
            "inconsistent join statistics: V*_1 + V_a0 + V_b0 - 1 = "
            f"{argument:.6g} <= 0; the joined bitmap has fewer ones than "
            "independent-half collisions alone would produce"
        )
    return (math.log(v_a0) + math.log(v_b0) - math.log(argument)) / math.log(
        1.0 - 1.0 / size
    )


class PointPersistentEstimator:
    """Estimates the persistent traffic volume at a single location.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crypto.keys import KeyGenerator
    >>> from repro.sketch import Bitmap
    >>> from repro.vehicle import VehicleEncoder, VehiclePopulation
    >>> keygen = KeyGenerator(master_seed=7, s=3)
    >>> encoder = VehicleEncoder()
    >>> rng = np.random.default_rng(42)
    >>> common = VehiclePopulation.random(500, keygen, rng)
    >>> records = []
    >>> for period in range(4):
    ...     transient = VehiclePopulation.random(4000, keygen, rng)
    ...     bitmap = Bitmap(16384)
    ...     common.encode_into(bitmap, location=1, encoder=encoder)
    ...     transient.encode_into(bitmap, location=1, encoder=encoder)
    ...     records.append(bitmap)
    >>> estimate = PointPersistentEstimator().estimate(records)
    >>> abs(estimate.estimate - 500) < 150
    True
    """

    def estimate(self, records: Sequence[RecordLike]) -> PointEstimate:
        """Estimate the number of common vehicles across ``records``.

        Parameters
        ----------
        records:
            At least two traffic records (or raw bitmaps) from the
            same location, one per measurement period of interest.
            Sizes may differ but must all be powers of two.

        Raises
        ------
        EstimationError
            When the join statistics are inconsistent (see
            :func:`point_estimate_from_statistics`) or a joined bitmap
            is saturated.
        SketchError
            When fewer than two records are supplied or sizes are not
            powers of two.
        """
        bitmaps = _as_bitmaps(records)
        return self.estimate_from_split(split_and_join(bitmaps), len(bitmaps))

    def estimate_from_split(
        self, split: SplitJoinResult, periods: int
    ) -> PointEstimate:
        """Evaluate Eq. 12 on a precomputed split-and-join.

        The interval-join index hands over memoized
        :class:`~repro.sketch.join.SplitJoinResult` objects, and the
        query-plan cache memoizes the estimate made here on a miss;
        this produces the identical :class:`PointEstimate` that
        :meth:`estimate` would compute from the raw records (the split
        carries the same bitmaps, so the same IEEE doubles fall out).
        ``periods`` is the record count the split was built from.
        """
        v_a0 = split.half_a.zero_fraction()
        v_b0 = split.half_b.zero_fraction()
        v_star1 = split.joined.one_fraction()
        estimate = point_estimate_from_statistics(v_a0, v_b0, v_star1, split.size)
        return PointEstimate(
            estimate=estimate,
            v_a0=v_a0,
            v_b0=v_b0,
            v_star1=v_star1,
            size=split.size,
            periods=int(periods),
        )


    def estimate_batch(
        self, batches: Sequence[BitmapBatch]
    ) -> List[PointEstimate]:
        """Estimate every stacked run of a cell at once.

        ``batches[p]`` holds period ``p``'s bitmaps for all runs; the
        result list has one :class:`PointEstimate` per run, each
        bit-identical to :meth:`estimate` on that run's scalar records
        (the joins are boolean reductions and the final formula is
        evaluated per run on the same IEEE doubles).

        Degenerate runs (saturated halves, inconsistent join
        statistics) raise exactly the same typed
        :class:`~repro.exceptions.EstimationError` /
        :class:`~repro.exceptions.SaturatedBitmapError` the scalar
        path raises, prefixed with the failing run's index.
        """
        split = split_and_join_batch(batches)
        v_a0 = split.half_a.zero_fractions().tolist()
        v_b0 = split.half_b.zero_fractions().tolist()
        v_star1 = split.joined.one_fractions().tolist()
        size = split.joined.size
        periods = len(batches)
        results = []
        for run, (a, b, v) in enumerate(zip(v_a0, v_b0, v_star1)):
            try:
                value = point_estimate_from_statistics(a, b, v, size)
            except EstimationError as exc:
                raise type(exc)(f"run {run}: {exc}") from exc
            results.append(
                PointEstimate(
                    estimate=value,
                    v_a0=a,
                    v_b0=b,
                    v_star1=v,
                    size=size,
                    periods=periods,
                )
            )
        return results


def estimate_point_persistent(records: Sequence[RecordLike]) -> PointEstimate:
    """Convenience function: one-shot point persistent estimate."""
    return PointPersistentEstimator().estimate(records)
