"""Generalized k-way split estimator (extension of Section III-B).

The paper divides the records into *two* subsets and notes: "While
dividing Π into more than two sets is possible, we find the two-set
solution is not only simple but works effectively."  This module
implements the general k-way construction so that remark can be
checked quantitatively (see ``benchmarks/test_ablation_split.py``).

Derivation.  Split the expanded records into k groups and AND-join
each into ``E_g`` with zero fraction ``V_g0``; AND the groups into
``E_*`` with one fraction ``V*_1``.  Write ``x = (1 - 1/m)^{n*}`` (the
probability no common vehicle covers a given bit).  Each group's
transient-only collision probability is ``q_g = 1 - V_g0 / x`` (the
exact abstraction identity used in Section III-B), and a bit of
``E_*`` is one iff a common vehicle covers it or every group collides
transiently:

    E(V*_1) = (1 - x) + x · Π_g (1 - V_g0 / x)

For k = 2 this solves in closed form to the paper's Eq. 12.  For
k >= 3 the polynomial in ``1/x`` has no tidy inverse, so the estimator
solves for ``x`` numerically (Brent's method) on the bracket
``[max_g V_g0, 1]``; ``f`` is guaranteed non-negative at the left end
because ``E_* ⊆ E_g`` forces ``V*_1 <= 1 - V_g0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.point import RecordLike, _as_bitmaps
from repro.exceptions import ConfigurationError, EstimationError, SketchError
from repro.sketch.bitmap import Bitmap
from repro.sketch.expansion import expand_to
from repro.sketch.join import and_join


@dataclass(frozen=True)
class MultiSplitEstimate:
    """Result of the k-way split estimator."""

    estimate: float
    group_zero_fractions: List[float]
    v_star1: float
    size: int
    periods: int
    k: int

    @property
    def clamped(self) -> float:
        """The estimate floored at zero."""
        return max(self.estimate, 0.0)

    def relative_error(self, actual: float) -> float:
        """The paper's accuracy metric ``|n̂* - n*| / n*``."""
        if actual <= 0:
            raise ValueError(f"actual volume must be positive, got {actual}")
        return abs(self.estimate - actual) / actual


def multi_split_estimate_from_statistics(
    group_zero_fractions: Sequence[float], v_star1: float, size: int
) -> float:
    """Solve the k-factor occupancy equation for ``n*``.

    Falls back to the closed form for k = 2 (bit-for-bit the paper's
    Eq. 12); uses Brent's method otherwise.
    """
    fractions = [float(v) for v in group_zero_fractions]
    if len(fractions) < 2:
        raise ConfigurationError("the split needs at least 2 groups")
    if any(v <= 0.0 for v in fractions):
        raise EstimationError(
            "a group's AND-join is saturated; increase the load factor f"
        )
    log_base = math.log(1.0 - 1.0 / size)

    if len(fractions) == 2:
        v_a0, v_b0 = fractions
        argument = v_star1 + v_a0 + v_b0 - 1.0
        if argument <= 0.0:
            raise EstimationError(
                "inconsistent join statistics (V*_1 + V_a0 + V_b0 <= 1)"
            )
        return (math.log(v_a0) + math.log(v_b0) - math.log(argument)) / log_base

    lower = max(fractions)

    def objective(x: float) -> float:
        product = 1.0
        for v in fractions:
            product *= 1.0 - v / x
        return (1.0 - x) + x * product - v_star1

    at_lower = objective(lower)
    at_one = objective(1.0)
    if at_lower < 0.0:
        # Only possible through measurement noise (V*_1 > 1 - max V_g0
        # cannot happen for genuine AND-joins).
        raise EstimationError(
            "inconsistent join statistics: E_* has more ones than its "
            "fullest component group allows"
        )
    if at_one > 0.0:
        # Fewer ones than pure transient independence predicts: the
        # best (least-squares at the boundary) answer is "no common
        # traffic".
        return 0.0
    if at_lower == 0.0:
        x = lower
    else:
        # Here, not at module level: only k >= 3 needs SciPy.
        from scipy.optimize import brentq

        x = brentq(objective, lower, 1.0, xtol=1e-15)
    if x <= 0.0:
        raise EstimationError("numeric inversion produced a non-positive root")
    return math.log(x) / log_base


class MultiSplitPointEstimator:
    """Point persistent estimation with a k-way record split.

    Parameters
    ----------
    k:
        Number of groups to split the records into.  ``k = 2``
        reproduces :class:`~repro.core.point.PointPersistentEstimator`
        exactly.  Requires at least ``k`` records.
    """

    def __init__(self, k: int = 2):
        if k < 2:
            raise ConfigurationError(f"k must be >= 2, got {k}")
        self._k = int(k)

    @property
    def k(self) -> int:
        """The number of split groups."""
        return self._k

    def _split(self, bitmaps: List[Bitmap]) -> List[List[Bitmap]]:
        count = len(bitmaps)
        base, remainder = divmod(count, self._k)
        groups: List[List[Bitmap]] = []
        start = 0
        for g in range(self._k):
            length = base + (1 if g < remainder else 0)
            groups.append(bitmaps[start:start + length])
            start += length
        return groups

    def estimate(self, records: Sequence[RecordLike]) -> MultiSplitEstimate:
        """Estimate the common-vehicle count across ``records``."""
        bitmaps = _as_bitmaps(records)
        if len(bitmaps) < self._k:
            raise SketchError(
                f"a {self._k}-way split needs at least {self._k} records, "
                f"got {len(bitmaps)}"
            )
        size = max(b.size for b in bitmaps)
        expanded = [expand_to(b, size) for b in bitmaps]
        group_joins = [and_join(group) for group in self._split(expanded)]
        joined = and_join(group_joins)
        fractions = [g.zero_fraction() for g in group_joins]
        v_star1 = joined.one_fraction()
        estimate = multi_split_estimate_from_statistics(fractions, v_star1, size)
        return MultiSplitEstimate(
            estimate=estimate,
            group_zero_fractions=fractions,
            v_star1=v_star1,
            size=size,
            periods=len(bitmaps),
            k=self._k,
        )
