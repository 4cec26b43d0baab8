"""Bit-level sketch substrate.

This package implements the probabilistic data structures that the
paper's traffic records are built from:

* :class:`~repro.sketch.bitmap.Bitmap` — a fixed-size bit array held
  as packed ``uint64`` words, with vectorized set/count operations (the
  paper's traffic record ``B``).
* :mod:`~repro.sketch.linear_counting` — the linear probabilistic
  counting estimator of Whang et al. (Eq. 1 of the paper) together with
  its variance analysis.
* :mod:`~repro.sketch.sizing` — the power-of-two bitmap sizing rule
  (Eq. 2 of the paper).
* :mod:`~repro.sketch.expansion` — replication-based bitmap expansion
  (Section III-A / Fig. 2).
* :mod:`~repro.sketch.join` — AND/OR joins over groups of bitmaps,
  including the two-level join of Section IV-A.
* :mod:`~repro.sketch.interval` — a doubling table resolving any
  contiguous period window in ≤2 cached AND-joins (sliding-window
  queries).
* :mod:`~repro.sketch.batch` — :class:`~repro.sketch.batch.BitmapBatch`
  matrices joining whole Monte-Carlo cells as single numpy reductions.
* :mod:`~repro.sketch.serial` — compact serialization of traffic
  records for RSU-to-server uploads: a 16-byte header and the packed
  words, plus a reader for the seed's version-1 payloads.
* :mod:`~repro.sketch.backends` — the packed ``uint64`` word kernels
  (pack/unpack, popcount, scatter, tiling) behind
  :class:`~repro.sketch.bitmap.Bitmap` (see docs/performance.md,
  "Packed-word bitmaps").
"""

from repro.sketch.batch import (
    BitmapBatch,
    and_join_batch,
    or_join_batch,
    split_and_join_batch,
    two_level_join_batch,
)
from repro.sketch.bitmap import Bitmap
from repro.sketch.expansion import expand_to, expansion_factor
from repro.sketch.interval import IntervalJoinIndex, split_range_join
from repro.sketch.join import (
    and_join,
    or_join,
    split_and_join,
    two_level_join,
)
from repro.sketch.linear_counting import (
    LinearCounting,
    linear_counting_estimate,
    linear_counting_stddev,
    zero_fraction_expectation,
)
from repro.sketch.serial import (
    deserialize_bitmap,
    parse_header,
    serialize_bitmap,
    serialize_bitmap_legacy,
)
from repro.sketch.sizing import (
    bitmap_size_for_volume,
    is_power_of_two,
    next_power_of_two,
)

__all__ = [
    "Bitmap",
    "BitmapBatch",
    "IntervalJoinIndex",
    "LinearCounting",
    "and_join",
    "and_join_batch",
    "bitmap_size_for_volume",
    "deserialize_bitmap",
    "expand_to",
    "expansion_factor",
    "is_power_of_two",
    "linear_counting_estimate",
    "linear_counting_stddev",
    "next_power_of_two",
    "or_join",
    "or_join_batch",
    "parse_header",
    "serialize_bitmap",
    "serialize_bitmap_legacy",
    "split_and_join",
    "split_and_join_batch",
    "split_range_join",
    "two_level_join",
    "two_level_join_batch",
    "zero_fraction_expectation",
]
