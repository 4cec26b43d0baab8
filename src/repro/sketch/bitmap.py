"""The bitmap data structure underlying every traffic record.

The paper's traffic record is "a bitmap ``B`` of ``m`` bits" whose bits
are set by passing vehicles (Section II-D).  This module provides a
:class:`Bitmap` with the operations the rest of the system needs:
single and bulk bit setting, zero/one accounting, bitwise AND/OR
combination, and replication-based expansion.

A bitmap holds its bits as packed ``uint64`` words (see
:mod:`repro.sketch.backends`): AND/OR/XOR run as word ops over 1/8th
the bytes of the seed's bool arrays, and counting uses hardware
popcount where numpy offers it.

Freshly-constructed empty bitmaps first *stage* in a mutable bool
array: scattering vehicle hashes into a byte-per-bit array is several
times faster than read-modify-write word scatters, so the RSU encoding
hot path mutates the stage, and the bitmap packs itself into words on
its first use as an operand (``words``, joins, bitwise operators).
Serialization, expansion and equality pack a copy and leave the stage
in place.  Either way the bit string is the same, so every estimator
is bit-for-bit unaffected by staging.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.exceptions import SketchError
from repro.sketch import backends
from repro.sketch.sizing import is_power_of_two


class Bitmap:
    """A fixed-size bit array, the paper's traffic-record ``B``.

    Parameters
    ----------
    size:
        Number of bits ``m``.  Must be a positive integer.  The paper's
        sizing rule always produces powers of two; the class accepts any
        positive size but the expansion/join machinery requires powers
        of two and will raise :class:`SketchError` otherwise.
    bits:
        Optional initial content — anything convertible to a boolean
        numpy array of length ``size``.  When omitted, all bits start
        at zero (the state of a traffic record at the beginning of a
        measurement period).

    Examples
    --------
    >>> b = Bitmap(8)
    >>> b.set(3)
    >>> b.ones()
    1
    >>> b.zero_fraction()
    0.875
    """

    __slots__ = ("_size", "_words", "_stage")

    def __init__(self, size: int, bits: Union[np.ndarray, Iterable[int], None] = None):
        if int(size) <= 0:
            raise SketchError(f"bitmap size must be positive, got {size}")
        size = int(size)
        self._size = size
        self._words: Optional[np.ndarray] = None
        self._stage: Optional[np.ndarray] = None
        if bits is None:
            self._stage = np.zeros(size, dtype=np.bool_)
        else:
            arr = np.asarray(bits, dtype=np.bool_)
            if arr.ndim != 1 or arr.shape[0] != size:
                raise SketchError(
                    f"initial bits must be a flat array of length {size}, "
                    f"got shape {arr.shape}"
                )
            self._words = backends.pack_bool(arr)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "Bitmap":
        """Wrap an existing boolean array (copied) into a bitmap."""
        arr = np.asarray(bits, dtype=np.bool_)
        return cls(arr.shape[0], arr)

    @classmethod
    def _adopt_words(cls, size: int, words: np.ndarray) -> "Bitmap":
        """Wrap a freshly-allocated word array *without* copying.

        Internal: ``words`` must be a ``uint64`` array of exactly
        ``word_count(size)`` words whose bits beyond ``size`` are zero
        (the tail invariant every producer in this package maintains).
        Used by the join accumulators, the interval-index pools and
        the deserializer.
        """
        bitmap = cls.__new__(cls)
        bitmap._size = int(size)
        bitmap._words = words
        bitmap._stage = None
        return bitmap

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "Bitmap":
        """Create a bitmap of ``size`` bits with the given indices set.

        This is the bulk equivalent of an RSU processing a whole
        measurement period of vehicle encodings at once.
        """
        bitmap = cls(size)
        bitmap.set_many(indices)
        return bitmap

    def copy(self) -> "Bitmap":
        """Return an independent copy (a staged bitmap stays staged)."""
        bitmap = Bitmap.__new__(Bitmap)
        bitmap._size = self._size
        bitmap._words = None if self._words is None else self._words.copy()
        bitmap._stage = None if self._stage is None else self._stage.copy()
        return bitmap

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of bits ``m`` in the bitmap."""
        return self._size

    @property
    def bits(self) -> np.ndarray:
        """Read-only boolean array of the bitmap's content.

        For staged bitmaps this is a view of the live stage; packed
        bitmaps unpack on demand.  Either way it is not writable —
        mutation goes through :meth:`set`/:meth:`set_many`.
        """
        if self._stage is not None:
            view = self._stage.view()
        else:
            view = backends.unpack_words(self._words, self._size)
        view.flags.writeable = False
        return view

    @property
    def words(self) -> np.ndarray:
        """Read-only packed ``uint64`` words (little-endian bit order).

        Accessing this on a staged bitmap packs it in place first, so
        repeated word consumers pay the packing once.
        """
        view = self._packed_words().view()
        view.flags.writeable = False
        return view

    @property
    def is_power_of_two_sized(self) -> bool:
        """Whether ``size`` is a power of two (required for joining)."""
        return is_power_of_two(self._size)

    def _packed_words(self) -> np.ndarray:
        """The packed words, dropping the staging buffer if there is one."""
        if self._stage is not None:
            self._words = backends.pack_bool(self._stage)
            self._stage = None
        return self._words

    def _words_view(self) -> np.ndarray:
        """Packed words, leaving a staged bitmap staged."""
        if self._stage is not None:
            return backends.pack_bool(self._stage)
        return self._words

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to one (the paper's ``B[h_v] = 1``)."""
        idx = int(index)
        if not 0 <= idx < self._size:
            raise SketchError(f"bit index {idx} out of range for size {self._size}")
        if self._stage is not None:
            self._stage[idx] = True
        else:
            self._words[idx >> 6] |= np.uint64(1) << np.uint64(idx & 63)

    def set_many(
        self, indices: Iterable[int], *, assume_in_range: bool = False
    ) -> None:
        """Set every bit whose index appears in ``indices``.

        Duplicate indices are harmless (setting a set bit is a no-op),
        exactly as hash collisions are in the paper's encoding.

        ``assume_in_range=True`` skips the min/max range scan — an
        internal fast path for callers (the population encoder) whose
        indices are already reduced modulo ``size``.  Out-of-range
        indices then raise ``IndexError`` from numpy instead of
        :class:`SketchError`; negative ones silently wrap, so only pass
        it when the guarantee actually holds.
        """
        if isinstance(indices, np.ndarray):
            idx = indices
        else:
            # One-pass conversion; no intermediate Python list.
            idx = np.fromiter(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if not assume_in_range:
            idx = idx.astype(np.int64, copy=False)
            if idx.min() < 0 or idx.max() >= self._size:
                raise SketchError(
                    f"bit indices must lie in [0, {self._size}), "
                    f"got range [{idx.min()}, {idx.max()}]"
                )
        if self._stage is not None:
            self._stage[idx] = True
        else:
            backends.set_bits_in_words(self._words, idx)

    def clear(self) -> None:
        """Reset every bit to zero (start of a new measurement period)."""
        if self._stage is not None:
            self._stage[:] = False
        else:
            self._words = np.zeros(
                backends.word_count(self._size), dtype=np.uint64
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def get(self, index: int) -> bool:
        """Return the value of the bit at ``index``."""
        idx = int(index)
        if not 0 <= idx < self._size:
            raise SketchError(f"bit index {idx} out of range for size {self._size}")
        if self._stage is not None:
            return bool(self._stage[idx])
        return bool((int(self._words[idx >> 6]) >> (idx & 63)) & 1)

    def ones(self) -> int:
        """Number of bits that are one (popcount over the words)."""
        if self._stage is not None:
            return int(np.count_nonzero(self._stage))
        return backends.popcount_words(self._words)

    def zeros(self) -> int:
        """Number of bits that are zero."""
        return self._size - self.ones()

    def one_fraction(self) -> float:
        """Fraction of bits that are one (the paper's ``V_1``)."""
        return self.ones() / self._size

    def zero_fraction(self) -> float:
        """Fraction of bits that are zero (the paper's ``V_0``)."""
        return self.zeros() / self._size

    def is_saturated(self) -> bool:
        """True when every bit is one — no counting information left."""
        return self.ones() == self._size

    def is_empty(self) -> bool:
        """True when every bit is zero."""
        return self.ones() == 0

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    def _check_same_size(self, other: "Bitmap", op: str) -> None:
        if not isinstance(other, Bitmap):
            raise SketchError(f"cannot {op} a Bitmap with {type(other).__name__}")
        if other.size != self._size:
            raise SketchError(
                f"cannot {op} bitmaps of different sizes "
                f"({self._size} vs {other.size}); expand first"
            )

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_size(other, "AND")
        return Bitmap._adopt_words(
            self._size, self._packed_words() & other._packed_words()
        )

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_size(other, "OR")
        return Bitmap._adopt_words(
            self._size, self._packed_words() | other._packed_words()
        )

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_size(other, "XOR")
        return Bitmap._adopt_words(
            self._size, self._packed_words() ^ other._packed_words()
        )

    def __invert__(self) -> "Bitmap":
        inverted = ~self._packed_words()
        inverted[-1] &= backends.tail_mask(self._size)
        return Bitmap._adopt_words(self._size, inverted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        # Via the word view, so comparing never unstages a bitmap.
        return self._size == other.size and bool(
            np.array_equal(self._words_view(), other._words_view())
        )

    def __hash__(self) -> int:  # pragma: no cover - bitmaps are mutable
        raise TypeError("Bitmap is mutable and unhashable")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def expand(self, target_size: int) -> "Bitmap":
        """Replicate this bitmap until it reaches ``target_size`` bits.

        This is the paper's bitmap expansion (Fig. 2): the bitmap is
        tiled whole, which requires ``target_size`` to be an exact
        multiple (and, for correctness of the alignment property, both
        sizes to be powers of two).
        """
        from repro.sketch.expansion import expand_to

        return expand_to(self, target_size)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[bool]:
        return (bool(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"Bitmap(size={self._size}, ones={self.ones()})"
