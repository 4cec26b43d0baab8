"""Interval-join index: contiguous AND-joins in ≤2 cached joins.

Bitwise AND is associative *and idempotent*, which admits the classic
sparse-table (doubling) decomposition used for range-minimum queries:
level ``k`` of the table holds the AND-join of the ``2^k`` consecutive
bitmaps starting at each position, and any contiguous range ``[l, r)``
is the AND of just two (overlapping) power-of-two entries —
overlapping is harmless precisely because ``x AND x = x``.

The paper's sliding-window workloads (a monitor re-estimating "the
last ``w`` periods" on every arrival, a retrospective history sweeping
a window across a month of records) re-join almost the same records on
every step.  :class:`IntervalJoinIndex` turns each step from an
``O(w)``-record rebuild into ≤2 lookups plus ``O(log w)`` amortized
new table entries, all bit-identical to the from-scratch join:

* expansion composes — tiling to ``m₁`` then to ``m`` equals tiling
  straight to ``m`` (Section III-A's power-of-two replication);
* AND commutes with tiling elementwise, so joining two partial joins
  (each at its own sub-range maximum size) and expanding equals the
  one-shot join at the range maximum.

Entries are memoized lazily: nothing is computed until a range needs
it, so a monitor that only ever asks one window width pays only that
width's levels.  :meth:`IntervalJoinIndex.evict_before` releases
positions that have slid out of every future window.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.exceptions import SketchError
from repro.obs import runtime as obs
from repro.sketch.backends import word_count
from repro.sketch.bitmap import Bitmap
from repro.sketch.expansion import expand_to
from repro.sketch.join import _JOINS, SplitJoinResult, and_join

#: Recycled combine buffers kept per size (enough for a w=64 window's
#: levels; beyond this the allocator can have them back).
_POOL_LIMIT = 96


class IntervalJoinIndex:
    """A doubling table of AND-joins over an append-only bitmap sequence.

    Positions are absolute: the first appended bitmap is position 0
    forever, even after old positions are evicted.  Ranges are
    half-open ``[start, stop)``.

    Examples
    --------
    >>> from repro.sketch.bitmap import Bitmap
    >>> index = IntervalJoinIndex()
    >>> for i in range(4):
    ...     _ = index.append(Bitmap(8, [1, 1, 1, 1, 0, 0, 1, i % 2]))
    >>> index.range_join(0, 4).ones()
    3
    """

    def __init__(self) -> None:
        self._base = 0
        self._bitmaps: List[Bitmap] = []
        self._table: Dict[Tuple[int, int], Bitmap] = {}
        # Buffer recycling: evicted entries' packed-word arrays, keyed
        # by bitmap size, reused as combine outputs.  A sliding window
        # evicts about as many entries as it creates per step, so
        # steady-state combines write into recently-hot buffers instead
        # of faulting in fresh pages — that, not the AND itself,
        # dominates at 2^19 bits.  Word buffers are 8x smaller than the
        # seed's bool buffers, so the pool's cap costs 1/8th the RAM.
        self._pools: Dict[int, List[np.ndarray]] = {}
        # Entries handed to callers by range_join: their buffers must
        # never be recycled (the caller may still hold the bitmap).
        self._escaped: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def start(self) -> int:
        """The oldest position still resident."""
        return self._base

    @property
    def stop(self) -> int:
        """One past the newest appended position."""
        return self._base + len(self._bitmaps)

    def __len__(self) -> int:
        """Number of resident positions."""
        return len(self._bitmaps)

    @property
    def cached_joins(self) -> int:
        """Memoized table entries above level 0 (for tests/benchmarks)."""
        return len(self._table)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def append(self, bitmap: Bitmap) -> int:
        """Append the next period's bitmap; returns its position."""
        if not bitmap.is_power_of_two_sized:
            raise SketchError(
                f"interval index requires power-of-two bitmap sizes, "
                f"got {bitmap.size}"
            )
        self._bitmaps.append(bitmap)
        return self.stop - 1

    def evict_before(self, position: int) -> int:
        """Release bitmaps and table entries before ``position``.

        Positions below ``position`` become unqueryable; returns how
        many level-0 bitmaps were dropped.  Call this as a window
        slides so memory stays O(window · log window).
        """
        drop = min(int(position), self.stop) - self._base
        if drop <= 0:
            return 0
        del self._bitmaps[:drop]
        self._base += drop
        kept: Dict[Tuple[int, int], Bitmap] = {}
        for key, value in self._table.items():
            if key[1] >= self._base:
                kept[key] = value
                continue
            if key in self._escaped:
                self._escaped.discard(key)
                continue
            # Entries above level 0 are join outputs, always packed.
            pool = self._pools.setdefault(value.size, [])
            if len(pool) < _POOL_LIMIT:
                pool.append(value._words)
        self._table = kept
        return drop

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def _combine(self, left: Bitmap, right: Bitmap) -> Bitmap:
        """AND two table entries, bit-identical to ``and_join``.

        Equal-size pairs — every pair in a same-sized-records window,
        i.e. the production monitoring case — take one bulk
        ``np.bitwise_and`` over the backing arrays: a single vectorized
        pass, with none of the general join path's size normalization,
        tiling-factor checks, or accumulator seeding copy.  The output
        lands in a buffer recycled from an evicted entry when one is
        available (see :meth:`evict_before`) — at production sizes the
        page faults of a fresh kept-alive allocation cost several
        times the AND itself.  Accounting matches :func:`and_join`
        exactly (one ``and`` op, ``2·size`` bits, and no expansion
        group since the sizes agree).  Mixed-size pairs fall back to
        the general join.
        """
        if left.size != right.size:
            return and_join([left, right])
        if obs.ACTIVE:
            cell = _JOINS.cell()
            cell.op_and += 1
            cell.bits += left.size * 2
        pool = self._pools.get(left.size)
        out = (
            pool.pop()
            if pool
            else np.empty(word_count(left.size), dtype=np.uint64)
        )
        np.bitwise_and(left._packed_words(), right._packed_words(), out=out)
        return Bitmap._adopt_words(left.size, out)

    def _entry(self, level: int, start: int) -> Bitmap:
        """The AND-join of the ``2^level`` bitmaps from ``start`` on."""
        if level == 0:
            return self._bitmaps[start - self._base]
        key = (level, start)
        cached = self._table.get(key)
        if cached is None:
            half = 1 << (level - 1)
            cached = self._combine(
                self._entry(level - 1, start),
                self._entry(level - 1, start + half),
            )
            self._table[key] = cached
        return cached

    def range_join(self, start: int, stop: int) -> Bitmap:
        """AND-join of the bitmaps at positions ``[start, stop)``.

        Resolved as at most two (possibly overlapping) table entries —
        idempotence makes the overlap exact — and bit-identical to
        ``and_join(bitmaps[start:stop])``.
        """
        start, stop = int(start), int(stop)
        if start < self._base or stop > self.stop:
            raise SketchError(
                f"range [{start}, {stop}) outside resident positions "
                f"[{self._base}, {self.stop})"
            )
        if start >= stop:
            raise SketchError(f"empty join range [{start}, {stop})")
        span = stop - start
        level = span.bit_length() - 1
        left = self._entry(level, start)
        if span == 1 << level:
            if level:
                # The caller now holds this table entry; its buffer
                # must survive eviction un-recycled.
                self._escaped.add((level, start))
            return left
        right = self._entry(level, stop - (1 << level))
        return self._combine(left, right)


def split_range_join(
    index: IntervalJoinIndex, start: int, stop: int
) -> SplitJoinResult:
    """Section III-B's split-and-join over a contiguous indexed range.

    Bit-identical to ``split_and_join(bitmaps[start:stop])``: the two
    halves come out of the index at their own sub-range maximum sizes
    and are expanded to the range maximum, which equals joining each
    half directly at that size (expansion composes and AND commutes
    with tiling).
    """
    span = int(stop) - int(start)
    if span < 2:
        raise SketchError(
            f"split-and-join needs at least 2 traffic records, got {span}"
        )
    midpoint = (span + 1) // 2  # ceil(t/2), as in split_and_join
    half_a = index.range_join(start, start + midpoint)
    half_b = index.range_join(start + midpoint, stop)
    size = max(half_a.size, half_b.size)
    if obs.ACTIVE:
        cell = _JOINS.cell()
        cell.op_split += 1
        cell.bits += size * span
    half_a = expand_to(half_a, size)
    half_b = expand_to(half_b, size)
    return SplitJoinResult(half_a=half_a, half_b=half_b, joined=half_a & half_b)
