"""Batched bitmaps: whole Monte-Carlo cells as single numpy reductions.

The experiment harness evaluates every estimator over many independent
runs per cell (the paper uses 1000).  Joining each run's ``t`` records
one :class:`~repro.sketch.bitmap.Bitmap` at a time leaves most of the
wall clock in Python call overhead.  A :class:`BitmapBatch` stacks the
same-period records of all runs into one ``(runs, words)`` packed
``uint64`` matrix so the AND/OR joins of Sections III and IV run as
word-wise numpy operations over the whole cell — 1/8th the bytes of
the seed's bool matrices — and the zero/one accounting of Eq. 1 is a
per-row popcount.

Joins across different bitmap sizes use the same broadcast trick as
:func:`repro.sketch.expansion.apply_expanded_words`: the ``(runs,
m/64)`` accumulator is viewed as ``(runs, m/l, l/64)`` and the smaller
batch's words are broadcast in, which the paper's power-of-two
alignment property makes bit-identical to joining tiled expansions.

Every operation here is bit-for-bit equivalent to its scalar
counterpart in :mod:`repro.sketch.join`; ``tests/test_sketch_batch.py``
and ``tests/test_batch_equivalence.py`` pin that down.
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
    _EXPANSION_RATIO,
    apply_expanded_words,
    expansion_factor,
    observe_expansion_group,
)


class BitmapBatch:
    """A stack of ``runs`` same-size bitmaps in one packed word matrix.

    Row ``r`` is run ``r``'s bitmap for one measurement period.  The
    batch is the unit the batched estimators operate on: one
    :class:`BitmapBatch` per period, all sharing the same run count.
    Construction accepts ``(runs, size)`` bool matrices (the workload
    generators' native scatter target) and packs them once.
    """

    __slots__ = ("_words", "_size")

    def __init__(self, bits: np.ndarray, copy: bool = True):
        arr = np.asarray(bits, dtype=np.bool_)
        if arr.ndim != 2:
            raise SketchError(
                f"a bitmap batch must be a (runs, size) matrix, "
                f"got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise SketchError(
                f"a bitmap batch needs at least one run and one bit, "
                f"got shape {arr.shape}"
            )
        # Packing copies regardless, so ``copy`` is honoured for free.
        self._size = int(arr.shape[1])
        self._words = backends.pack_bool_matrix(arr)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, runs: int, size: int) -> "BitmapBatch":
        """An all-zero batch (start of a measurement period, all runs)."""
        if runs < 1 or size < 1:
            raise SketchError(
                f"runs and size must be positive, got ({runs}, {size})"
            )
        return cls._adopt_words(
            int(size),
            np.zeros((int(runs), backends.word_count(size)), dtype=np.uint64),
        )

    @classmethod
    def from_bitmaps(cls, bitmaps: Sequence[Bitmap]) -> "BitmapBatch":
        """Stack one same-size bitmap per run into a batch."""
        if not bitmaps:
            raise SketchError("cannot build a batch from zero bitmaps")
        sizes = {b.size for b in bitmaps}
        if len(sizes) != 1:
            raise SketchError(
                f"all bitmaps in a batch must share one size, got {sorted(sizes)}"
            )
        return cls._adopt_words(
            bitmaps[0].size, np.stack([b._packed_words() for b in bitmaps])
        )

    @classmethod
    def _adopt(cls, bits: np.ndarray) -> "BitmapBatch":
        """Pack a freshly-scattered ``(runs, size)`` bool matrix.

        The workload generators scatter vehicle hashes into a bool
        matrix (byte-per-bit scatters beat word read-modify-writes by
        ~5x) and hand it over here; the one ``packbits`` pass per
        period is the entire conversion cost.
        """
        batch = cls.__new__(cls)
        batch._size = int(bits.shape[1])
        batch._words = backends.pack_bool_matrix(bits)
        return batch

    @classmethod
    def _adopt_words(cls, size: int, words: np.ndarray) -> "BitmapBatch":
        """Wrap a ``(runs, words)`` uint64 matrix *without* copying.

        Internal: the caller transfers ownership and guarantees the
        tail-bit invariant (bits beyond ``size`` in each row's last
        word are zero).
        """
        batch = cls.__new__(cls)
        batch._size = int(size)
        batch._words = words
        return batch

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def runs(self) -> int:
        """Number of stacked bitmaps (Monte-Carlo runs)."""
        return int(self._words.shape[0])

    @property
    def size(self) -> int:
        """Bits per bitmap ``m`` (shared by every run)."""
        return self._size

    @property
    def words(self) -> np.ndarray:
        """Read-only ``(runs, words)`` view of the packed matrix."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    @property
    def bits(self) -> np.ndarray:
        """Read-only ``(runs, size)`` bool matrix, unpacked on demand."""
        view = backends.unpack_words_matrix(self._words, self._size)
        view.flags.writeable = False
        return view

    def row(self, run: int) -> Bitmap:
        """Materialize run ``run``'s bitmap as a scalar :class:`Bitmap`."""
        return Bitmap._adopt_words(self._size, np.array(self._words[run]))

    def to_bitmaps(self) -> List[Bitmap]:
        """Materialize every run as a scalar :class:`Bitmap`."""
        return [self.row(run) for run in range(self.runs)]

    # ------------------------------------------------------------------
    # Mutation (workload generation hot path)
    # ------------------------------------------------------------------

    def set_row_indices(self, run: int, indices: np.ndarray) -> None:
        """Set the given (already range-reduced) bits of one run."""
        backends.set_bits_in_words(self._words[run], indices)

    # ------------------------------------------------------------------
    # Accounting — per-run vectors of the scalar Bitmap accessors
    # ------------------------------------------------------------------

    def ones(self) -> np.ndarray:
        """Per-run count of one bits, shape ``(runs,)``."""
        return backends.popcount_rows(self._words)

    def zeros_count(self) -> np.ndarray:
        """Per-run count of zero bits, shape ``(runs,)``."""
        return self._size - self.ones()

    def one_fractions(self) -> np.ndarray:
        """Per-run ``V_1`` vector."""
        return self.ones() / self._size

    def zero_fractions(self) -> np.ndarray:
        """Per-run ``V_0`` vector."""
        return self.zeros_count() / self._size

    # ------------------------------------------------------------------
    # Combination / expansion
    # ------------------------------------------------------------------

    def expand(self, target_size: int) -> "BitmapBatch":
        """Tile every run's bitmap up to ``target_size`` (Fig. 2)."""
        factor = expansion_factor(self._size, target_size)
        if factor == 1:
            return self
        return BitmapBatch._adopt_words(
            int(target_size),
            backends.tile_words_rows(self._words, self._size, factor),
        )

    def _check_runs(self, other: "BitmapBatch", op: str) -> None:
        if not isinstance(other, BitmapBatch):
            raise SketchError(
                f"cannot {op} a BitmapBatch with {type(other).__name__}"
            )
        if other.runs != self.runs:
            raise SketchError(
                f"cannot {op} batches with different run counts "
                f"({self.runs} vs {other.runs})"
            )

    def _combine(self, other: "BitmapBatch", op: np.ufunc) -> "BitmapBatch":
        big, small = (self, other) if self.size >= other.size else (other, self)
        if big.size != small.size and obs.ACTIVE:
            _EXPANSION_RATIO.observe(float(big.size // small.size))
        out = np.array(big._words)
        apply_expanded_words(out, big.size, small._words, small.size, op)
        return BitmapBatch._adopt_words(big.size, out)

    def __and__(self, other: "BitmapBatch") -> "BitmapBatch":
        self._check_runs(other, "AND")
        return self._combine(other, np.bitwise_and)

    def __or__(self, other: "BitmapBatch") -> "BitmapBatch":
        self._check_runs(other, "OR")
        return self._combine(other, np.bitwise_or)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitmapBatch):
            return NotImplemented
        return self._size == other._size and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:  # pragma: no cover - batches are mutable
        raise TypeError("BitmapBatch is mutable and unhashable")

    def __repr__(self) -> str:
        return f"BitmapBatch(runs={self.runs}, size={self.size})"


def _common_size(batches: Sequence[BitmapBatch], size: Optional[int]) -> int:
    if not batches:
        raise SketchError("cannot join an empty collection of batches")
    runs = {batch.runs for batch in batches}
    if len(runs) != 1:
        raise SketchError(
            f"all batches in a join must share one run count, got {sorted(runs)}"
        )
    largest = max(batch.size for batch in batches)
    if size is None:
        return largest
    if int(size) < largest:
        raise SketchError(
            f"requested join size {size} is smaller than the largest "
            f"batch ({largest})"
        )
    return int(size)


def _observe_batch_join(op: str, size: int, batches: Sequence[BitmapBatch]) -> None:
    """Mirror the scalar join counters, scaled by the run count."""
    runs = batches[0].runs
    obs.counter(
        "repro_joins_total", "Bitmap joins performed.", op=op
    ).inc(runs)
    obs.counter(
        "repro_join_bits_processed_total",
        "Bitmap bits streamed through joins (size x inputs).",
    ).inc(size * len(batches) * runs)


def _accumulate_batch_join(
    op: np.ufunc, batches: Sequence[BitmapBatch], size: int
) -> BitmapBatch:
    first = batches[0]
    factor = expansion_factor(first.size, size)
    # tile_words_rows copies even at factor 1 — the accumulator seed.
    out = backends.tile_words_rows(first._words, first.size, factor)
    for batch in batches[1:]:
        apply_expanded_words(out, size, batch._words, batch.size, op)
    return BitmapBatch._adopt_words(size, out)


def and_join_batch(
    batches: Sequence[BitmapBatch], size: Optional[int] = None
) -> BitmapBatch:
    """Per-run :func:`repro.sketch.join.and_join` across period batches.

    ``batches[p]`` holds period ``p``'s bitmaps for all runs; the
    result's row ``r`` equals ``and_join([batches[0].row(r), ...])``.
    """
    size = _common_size(batches, size)
    if obs.ACTIVE:
        _observe_batch_join("and", size, batches)
        observe_expansion_group([b.size for b in batches], size)
    return _accumulate_batch_join(np.bitwise_and, batches, size)


def or_join_batch(
    batches: Sequence[BitmapBatch], size: Optional[int] = None
) -> BitmapBatch:
    """Per-run :func:`repro.sketch.join.or_join` across period batches."""
    size = _common_size(batches, size)
    if obs.ACTIVE:
        _observe_batch_join("or", size, batches)
        observe_expansion_group([b.size for b in batches], size)
    return _accumulate_batch_join(np.bitwise_or, batches, size)


@dataclass(frozen=True)
class SplitJoinBatchResult:
    """Batched :class:`~repro.sketch.join.SplitJoinResult` (Sec. III-B)."""

    half_a: BitmapBatch
    half_b: BitmapBatch
    joined: BitmapBatch

    @property
    def size(self) -> int:
        """The common (maximum) bitmap size ``m``."""
        return self.joined.size


def split_and_join_batch(batches: Sequence[BitmapBatch]) -> SplitJoinBatchResult:
    """Per-run split-and-join: batched Section III-B construction."""
    if len(batches) < 2:
        raise SketchError(
            f"split-and-join needs at least 2 traffic records, got {len(batches)}"
        )
    size = _common_size(batches, None)
    if obs.ACTIVE:
        _observe_batch_join("split", size, batches)
    midpoint = (len(batches) + 1) // 2  # ceil(t/2), as in the paper
    half_a = and_join_batch(batches[:midpoint], size=size)
    half_b = and_join_batch(batches[midpoint:], size=size)
    return SplitJoinBatchResult(
        half_a=half_a, half_b=half_b, joined=half_a & half_b
    )


@dataclass(frozen=True)
class TwoLevelJoinBatchResult:
    """Batched :class:`~repro.sketch.join.TwoLevelJoinResult` (Sec. IV-A)."""

    location_a: BitmapBatch
    location_b: BitmapBatch
    expanded_a: BitmapBatch
    joined: BitmapBatch
    swapped: bool

    @property
    def size(self) -> int:
        """The larger bitmap size ``m'`` (size of the OR-join)."""
        return self.joined.size


def two_level_join_batch(
    batches_a: Sequence[BitmapBatch], batches_b: Sequence[BitmapBatch]
) -> TwoLevelJoinBatchResult:
    """Per-run two-level join: batched Section IV-A pipeline."""
    if obs.ACTIVE:
        _observe_batch_join(
            "two_level",
            max(_common_size(batches_a, None), _common_size(batches_b, None)),
            list(batches_a) + list(batches_b),
        )
    joined_a = and_join_batch(batches_a)
    joined_b = and_join_batch(batches_b)
    swapped = joined_a.size > joined_b.size
    if swapped:
        joined_a, joined_b = joined_b, joined_a
    expanded_a = joined_a.expand(joined_b.size)
    return TwoLevelJoinBatchResult(
        location_a=joined_a,
        location_b=joined_b,
        expanded_a=expanded_a,
        joined=expanded_a | joined_b,
        swapped=swapped,
    )
