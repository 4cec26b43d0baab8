"""Bitmap joins (Sections III-A and IV-A of the paper).

* :func:`and_join` — expand a group of bitmaps to a common (maximum)
  size and AND them.  Used within a single location to isolate bits
  that were one in *every* measurement period.
* :func:`split_and_join` — the two-subset construction of Section
  III-B: split the records into Π_a and Π_b, AND within each half to
  get ``E_a`` and ``E_b``, and AND those to get ``E_*``.
* :func:`or_join` — expand to a common size and OR.  Used at the second
  level between two locations (Section IV-A), where OR admits a
  closed-form estimator and AND does not.
* :func:`two_level_join` — the full point-to-point pipeline: AND per
  location, then expand the smaller result and OR across locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import SketchError
from repro.obs import runtime as obs
from repro.sketch import backends
from repro.sketch.bitmap import Bitmap
from repro.sketch.expansion import (
    apply_expanded_words,
    expand_to,
    expansion_factor,
    observe_expansion_group,
)


def _sizes(bitmaps: Sequence[Bitmap]) -> List[int]:
    if not bitmaps:
        raise SketchError("cannot join an empty collection of bitmaps")
    return [b.size for b in bitmaps]


def _common_size(sizes: Sequence[int], size: Optional[int] = None) -> int:
    largest = max(sizes)
    if size is None:
        return largest
    if int(size) < largest:
        raise SketchError(
            f"requested join size {size} is smaller than the largest "
            f"input bitmap ({largest})"
        )
    return int(size)


#: One bound bank for the join accounting (the op label is a closed
#: enum): each join bumps its per-op series and the shared bits series
#: through a single per-thread cell fetch.  ``and``/``or`` joins
#: performed inside ``split``/``two_level`` pipelines are counted
#: under their own op as well — the counters measure work done, not
#: top-level API calls.
_JOIN_HELP = "Bitmap joins performed."
_JOINS = obs.bind_bank(
    "sketch_joins",
    {
        "op_and": ("counter", "repro_joins_total", _JOIN_HELP, {"op": "and"}),
        "op_or": ("counter", "repro_joins_total", _JOIN_HELP, {"op": "or"}),
        "op_split": (
            "counter", "repro_joins_total", _JOIN_HELP, {"op": "split"},
        ),
        "op_two_level": (
            "counter", "repro_joins_total", _JOIN_HELP, {"op": "two_level"},
        ),
        "bits": (
            "counter",
            "repro_join_bits_processed_total",
            "Bitmap bits streamed through joins (size x inputs).",
            None,
        ),
    },
)


def _accumulate_join(
    op: np.ufunc, bitmaps: Sequence[Bitmap], size: int
) -> Bitmap:
    """AND/OR ``bitmaps`` into one freshly-allocated word accumulator.

    The first bitmap seeds the accumulator (word-tiled when smaller
    than ``size``); every further input is folded in place through the
    broadcast view of :func:`apply_expanded_words`, so no per-input
    expansion is ever materialized, no defensive copies are chained,
    and nothing round-trips through a bool array — every fold touches
    1/8th the bytes the seed's bool accumulator did.
    """
    first = bitmaps[0]
    factor = expansion_factor(first.size, size)
    # tile_words copies even at factor 1 — the one unavoidable copy.
    out = backends.tile_words(first._packed_words(), first.size, factor)
    for bitmap in bitmaps[1:]:
        apply_expanded_words(out, size, bitmap._packed_words(), bitmap.size, op)
    return Bitmap._adopt_words(size, out)


def and_join(bitmaps: Sequence[Bitmap], size: Optional[int] = None) -> Bitmap:
    """Expand all bitmaps to a common size and AND them together.

    This is the join of Section III-A: a one bit in the result means
    the aligned bit was one in every input bitmap, i.e. the bit *may*
    encode a common vehicle (or colliding transients).

    ``size`` optionally forces a larger (power-of-two) target than the
    inputs' maximum — callers composing joins at an outer common size
    (e.g. :func:`split_and_join`) use it to skip re-expansion.
    """
    sizes = _sizes(bitmaps)
    size = _common_size(sizes, size)
    if obs.ACTIVE:
        cell = _JOINS.cell()
        cell.op_and += 1
        cell.bits += size * len(sizes)
        if min(sizes) != size:
            observe_expansion_group(sizes, size)
    return _accumulate_join(np.bitwise_and, bitmaps, size)


def or_join(bitmaps: Sequence[Bitmap], size: Optional[int] = None) -> Bitmap:
    """Expand all bitmaps to a common size and OR them together."""
    sizes = _sizes(bitmaps)
    size = _common_size(sizes, size)
    if obs.ACTIVE:
        cell = _JOINS.cell()
        cell.op_or += 1
        cell.bits += size * len(sizes)
        if min(sizes) != size:
            observe_expansion_group(sizes, size)
    return _accumulate_join(np.bitwise_or, bitmaps, size)


@dataclass(frozen=True)
class SplitJoinResult:
    """The three bitmaps of Section III-B.

    Attributes
    ----------
    half_a:
        ``E_a`` — AND of the first ``ceil(t/2)`` expanded records.
    half_b:
        ``E_b`` — AND of the remaining records.
    joined:
        ``E_*`` — AND of ``E_a`` and ``E_b``.
    """

    half_a: Bitmap
    half_b: Bitmap
    joined: Bitmap

    @property
    def size(self) -> int:
        """The common (maximum) bitmap size ``m``."""
        return self.joined.size


def split_and_join(bitmaps: Sequence[Bitmap]) -> SplitJoinResult:
    """Perform the two-subset split-and-join of Section III-B.

    The records are split into Π_a (first ``ceil(t/2)``) and Π_b (the
    rest); each half is AND-joined after expansion to the global
    maximum size, and the two halves are AND-joined into ``E_*``.

    Requires at least two bitmaps so that both halves are non-empty.
    """
    if len(bitmaps) < 2:
        raise SketchError(
            f"split-and-join needs at least 2 traffic records, got {len(bitmaps)}"
        )
    sizes = _sizes(bitmaps)
    size = _common_size(sizes)
    if obs.ACTIVE:
        # Fused accounting for the split and both half-joins: one cell
        # fetch and one ratio group instead of three guarded blocks.
        # ``bits`` counts the split pass plus each half's AND work —
        # the same 2·size·t the two inner ``and_join`` calls would add.
        cell = _JOINS.cell()
        cell.op_split += 1
        cell.op_and += 2
        cell.bits += 2 * size * len(bitmaps)
        if min(sizes) != size:
            observe_expansion_group(sizes, size)
    midpoint = (len(bitmaps) + 1) // 2  # ceil(t/2), as in the paper
    half_a = _accumulate_join(np.bitwise_and, bitmaps[:midpoint], size)
    half_b = _accumulate_join(np.bitwise_and, bitmaps[midpoint:], size)
    return SplitJoinResult(half_a=half_a, half_b=half_b, joined=half_a & half_b)


@dataclass(frozen=True)
class TwoLevelJoinResult:
    """The bitmaps of the point-to-point pipeline (Section IV-A).

    Attributes
    ----------
    location_a:
        ``E_*`` — AND-join of the records at the first location
        (size ``m``, the smaller of the two).
    location_b:
        ``E'_*`` — AND-join of the records at the second location
        (size ``m'``, with ``m <= m'``).
    expanded_a:
        ``S_*`` — ``E_*`` expanded to ``m'``.
    joined:
        ``E''_*`` — OR of ``S_*`` and ``E'_*``.
    swapped:
        True when the caller's argument order was (larger, smaller)
        and the roles were swapped to satisfy ``m <= m'``.
    """

    location_a: Bitmap
    location_b: Bitmap
    expanded_a: Bitmap
    joined: Bitmap
    swapped: bool

    @property
    def size(self) -> int:
        """The larger bitmap size ``m'`` (size of the OR-join)."""
        return self.joined.size


def two_level_join(
    records_a: Sequence[Bitmap], records_b: Sequence[Bitmap]
) -> TwoLevelJoinResult:
    """Run the two-level expansion-and-join of Section IV-A.

    First level: AND-join the records within each location (after
    intra-location expansion).  Second level: expand the smaller
    AND-join to the larger size and OR the two together.

    The paper assumes w.l.o.g. ``m <= m'``; this function swaps the
    locations internally when needed and reports it via ``swapped`` so
    the estimator can keep its parameters straight.
    """
    if obs.ACTIVE:
        cell = _JOINS.cell()
        cell.op_two_level += 1
        cell.bits += max(
            _common_size(_sizes(records_a)), _common_size(_sizes(records_b))
        ) * (len(records_a) + len(records_b))
    return _assemble_two_level(and_join(records_a), and_join(records_b))


def two_level_join_from_joined(
    joined_a: Bitmap, joined_b: Bitmap
) -> TwoLevelJoinResult:
    """Second level only: OR two precomputed per-location AND-joins.

    The query-plan cache memoizes each location's first-level AND-join
    (``E_*``); this entry point runs just the cross-location expansion
    and OR on those, producing a result bit-identical to
    :func:`two_level_join` on the underlying records.
    """
    if obs.ACTIVE:
        cell = _JOINS.cell()
        cell.op_two_level += 1
        cell.bits += max(joined_a.size, joined_b.size) * 2
    return _assemble_two_level(joined_a, joined_b)


def _assemble_two_level(
    joined_a: Bitmap, joined_b: Bitmap
) -> TwoLevelJoinResult:
    swapped = joined_a.size > joined_b.size
    if swapped:
        joined_a, joined_b = joined_b, joined_a
    expanded_a = expand_to(joined_a, joined_b.size)
    return TwoLevelJoinResult(
        location_a=joined_a,
        location_b=joined_b,
        expanded_a=expanded_a,
        joined=expanded_a | joined_b,
        swapped=swapped,
    )
