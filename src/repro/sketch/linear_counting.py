"""Linear probabilistic counting (Whang, Vander-Zanden & Taylor, 1990).

Eq. 1 of the paper estimates the number of distinct vehicles encoded in
a traffic record from the fraction of zero bits:

    n̂ = -m · ln V_0

The paper also uses the exact finite-``m`` form (Eq. 3):

    n̂ = ln V_0 / ln(1 - 1/m)

Both are provided; the exact form is what the persistent-traffic
estimators build on, and the classic ``-m ln V_0`` form is its
large-``m`` limit.  The standard deviation formula from the original
linear-counting paper is included so callers can reason about expected
accuracy and pick load factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SaturatedBitmapError, SketchError
from repro.sketch.bitmap import Bitmap


def zero_fraction_expectation(n: float, m: int) -> float:
    """Expected fraction of zero bits after encoding ``n`` items.

    Each of ``n`` independent items leaves a given bit zero with
    probability ``(1 - 1/m)``, so E[V_0] = (1 - 1/m)^n.
    """
    if m <= 0:
        raise SketchError(f"bitmap size must be positive, got {m}")
    return (1.0 - 1.0 / m) ** n


def linear_counting_estimate(zero_fraction: float, size: int, exact: bool = True) -> float:
    """Estimate distinct items from the zero fraction of a bitmap.

    Parameters
    ----------
    zero_fraction:
        Measured fraction ``V_0`` of zero bits, in (0, 1].
    size:
        Bitmap size ``m``.
    exact:
        When True (default), use the exact geometric form
        ``ln V_0 / ln(1 - 1/m)`` (Eq. 3 of the paper).  When False, use
        the classic large-``m`` approximation ``-m ln V_0`` (Eq. 1).

    Raises
    ------
    SaturatedBitmapError
        If ``zero_fraction`` is 0 — a saturated bitmap carries no
        counting information (``ln 0`` diverges).
    """
    if size <= 0:
        raise SketchError(f"bitmap size must be positive, got {size}")
    if not 0.0 <= zero_fraction <= 1.0:
        raise SketchError(f"zero fraction must lie in [0, 1], got {zero_fraction}")
    if zero_fraction == 0.0:
        raise SaturatedBitmapError(
            f"bitmap of size {size} is saturated; the linear-counting "
            "estimate diverges (increase the load factor f)"
        )
    if zero_fraction == 1.0:
        return 0.0
    if exact:
        return math.log(zero_fraction) / math.log(1.0 - 1.0 / size)
    return -size * math.log(zero_fraction)


def linear_counting_stddev(n: float, m: int) -> float:
    """Standard deviation of the linear-counting estimator.

    From Whang et al. (1990): for ``n`` items in ``m`` bits with load
    ``t = n/m``,

        StDev(n̂) ≈ sqrt(m · (e^t - t - 1))

    This is used by the analysis layer to sanity-check measured errors
    against theory.
    """
    if m <= 0:
        raise SketchError(f"bitmap size must be positive, got {m}")
    t = n / m
    return math.sqrt(max(m * (math.exp(t) - t - 1.0), 0.0))


@dataclass(frozen=True)
class LinearCountingResult:
    """Outcome of a single linear-counting estimate."""

    estimate: float
    zero_fraction: float
    size: int

    @property
    def load(self) -> float:
        """Estimated load ``n̂ / m``."""
        return self.estimate / self.size


class LinearCounting:
    """Object-style wrapper for estimating counts from bitmaps.

    Useful when the same configuration (exact vs approximate form) is
    applied to many bitmaps, e.g. by the central server summarizing a
    day of traffic records.

    Examples
    --------
    >>> from repro.sketch import Bitmap
    >>> counter = LinearCounting()
    >>> b = Bitmap.from_indices(1024, range(100))
    >>> round(counter.estimate(b).estimate)
    105
    """

    def __init__(self, exact: bool = True):
        self._exact = exact

    @property
    def exact(self) -> bool:
        """Whether the exact geometric form is used."""
        return self._exact

    def estimate(self, bitmap: Bitmap) -> LinearCountingResult:
        """Estimate the number of distinct items encoded in ``bitmap``.

        ``V_0`` comes from :meth:`Bitmap.zero_fraction`: a popcount
        over the packed words (hardware ``np.bitwise_count`` where
        available), or a count over a staged bitmap's bool buffer, so
        estimation never forces packing.
        """
        v0 = bitmap.zero_fraction()
        value = linear_counting_estimate(v0, bitmap.size, exact=self._exact)
        return LinearCountingResult(estimate=value, zero_fraction=v0, size=bitmap.size)

    def estimate_value(self, bitmap: Bitmap) -> float:
        """Like :meth:`estimate` but returns just the number."""
        return self.estimate(bitmap).estimate
