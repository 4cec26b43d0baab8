"""Packed-word kernels behind every bitmap.

The seed stored every traffic record as a ``numpy.bool_`` array, one
full byte per bit.  Records are now ``uint64`` words, 64 bits per word
(8x smaller): AND/OR/XOR run as ``np.bitwise_*`` over words and touch
1/8th the bytes the bool arrays did, and zero counting uses the
hardware popcount (``np.bitwise_count``) when the installed numpy has
it, falling back to a byte lookup table.  At the paper's load factor
f = 2, Eq. 2 sizes a record so that about 22-39% of its bits are set,
where packed words are already the smallest form, so there is no other.

Bit layout is little-endian throughout: bit ``i`` of the bitmap is bit
``i % 64`` of word ``i // 64``, matching ``np.packbits(...,
bitorder="little")`` viewed as native uint64 on a little-endian host
(the only hosts the project targets; the serialization layer pins
``<u8`` on disk and on the wire).

Everything here is pure array plumbing on word arrays and word
matrices; :class:`~repro.sketch.bitmap.Bitmap` owns the words and the
RSU staging buffer in front of them.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def word_count(size: int) -> int:
    """Words needed to hold ``size`` bits."""
    return (int(size) + WORD_BITS - 1) >> 6


def tail_mask(size: int) -> np.uint64:
    """Mask of the valid bits in the (possibly partial) last word."""
    rem = int(size) & 63
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


# ----------------------------------------------------------------------
# bool <-> words
# ----------------------------------------------------------------------


def pack_bool(bits: np.ndarray) -> np.ndarray:
    """Pack a flat bool array into little-endian-bit uint64 words.

    Bits past ``len(bits)`` in the final word are zero — the invariant
    every word array in the system maintains, so popcounts and
    equality never see garbage tail bits.
    """
    size = int(bits.shape[0])
    packed = np.packbits(bits, bitorder="little")
    needed = word_count(size) * 8
    if packed.shape[0] != needed:
        padded = np.zeros(needed, dtype=np.uint8)
        padded[: packed.shape[0]] = packed
        packed = padded
    return packed.view(np.uint64)


def unpack_words(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_bool`: words back to a flat bool array."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        count=int(size),
        bitorder="little",
    ).view(np.bool_)


def pack_bool_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(runs, size)`` bool matrix into ``(runs, words)`` uint64."""
    runs, size = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    needed = word_count(size) * 8
    if packed.shape[1] != needed:
        padded = np.zeros((runs, needed), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_words_matrix(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`."""
    rows = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(rows, axis=1, bitorder="little")[
        :, : int(size)
    ].view(np.bool_)


# ----------------------------------------------------------------------
# Popcount: hardware ufunc when numpy has it, byte LUT otherwise
# ----------------------------------------------------------------------

HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Set-bit count of every byte value — the fallback popcount kernel for
#: numpy < 2.0 (``np.bitwise_count`` landed in 2.0).
_POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint16
)


def _popcount_words_lut(words: np.ndarray) -> int:
    return int(
        _POPCOUNT_LUT[np.ascontiguousarray(words).view(np.uint8)].sum()
    )


def _popcount_rows_lut(words: np.ndarray) -> np.ndarray:
    per_byte = _POPCOUNT_LUT[np.ascontiguousarray(words).view(np.uint8)]
    return per_byte.sum(axis=1, dtype=np.int64)


if HAVE_BITWISE_COUNT:

    def popcount_words(words: np.ndarray) -> int:
        """Total set bits across a word array."""
        return int(np.bitwise_count(words).sum(dtype=np.int64))

    def popcount_rows(words: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a ``(runs, words)`` matrix."""
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - exercised on numpy < 2.0 runners
    popcount_words = _popcount_words_lut
    popcount_rows = _popcount_rows_lut


# ----------------------------------------------------------------------
# Scatter / tiling kernels
# ----------------------------------------------------------------------


def set_bits_in_words(words: np.ndarray, indices: np.ndarray) -> None:
    """OR the given bit indices into a word array (duplicates fine)."""
    idx = indices.astype(np.uint64, copy=False)
    np.bitwise_or.at(
        words,
        (idx >> np.uint64(6)).astype(np.intp),
        np.left_shift(np.uint64(1), idx & np.uint64(63)),
    )


def _replicate_multiplier(pattern_bits: int, target_bits: int) -> np.uint64:
    """Multiplier replicating a sub-word pattern across ``target_bits``.

    A value below ``2**pattern_bits`` times this constant tiles the
    pattern ``target_bits // pattern_bits`` times with no carries —
    the in-word analogue of ``np.tile`` for the paper's power-of-two
    expansion at sizes under one word.
    """
    return np.uint64(
        sum(1 << (rep * pattern_bits) for rep in range(target_bits // pattern_bits))
    )


def tile_words(words: np.ndarray, size: int, factor: int) -> np.ndarray:
    """Expand ``size`` bits of words to ``size * factor`` by replication.

    Always returns a freshly-allocated array (callers use it to seed
    join accumulators, so ``factor == 1`` is a copy, not a view).
    """
    factor = int(factor)
    if factor == 1:
        return np.array(words)
    size = int(size)
    target = size * factor
    if size % WORD_BITS == 0:
        return np.tile(words, factor)
    if size < WORD_BITS and size & (size - 1) == 0:
        pattern = words[0]
        if target <= WORD_BITS:
            return np.array(
                [pattern * _replicate_multiplier(size, target)], dtype=np.uint64
            )
        full = pattern * _replicate_multiplier(size, WORD_BITS)
        return np.full(target >> 6, full, dtype=np.uint64)
    # Irregular sizes (non-power-of-two sub-word) take the slow road.
    return pack_bool(np.tile(unpack_words(words, size), factor))


def tile_words_rows(words: np.ndarray, size: int, factor: int) -> np.ndarray:
    """Row-wise :func:`tile_words` for a ``(runs, words)`` matrix."""
    factor = int(factor)
    if factor == 1:
        return np.array(words)
    size = int(size)
    target = size * factor
    if size % WORD_BITS == 0:
        return np.tile(words, (1, factor))
    if size < WORD_BITS and size & (size - 1) == 0:
        if target <= WORD_BITS:
            return words * _replicate_multiplier(size, target)
        full = words * _replicate_multiplier(size, WORD_BITS)
        return np.tile(full, (1, target >> 6))
    return pack_bool_matrix(
        np.tile(unpack_words_matrix(words, size), (1, factor))
    )


def apply_expanded_words(
    out: np.ndarray,
    out_size: int,
    src: np.ndarray,
    src_size: int,
    op: np.ufunc,
) -> None:
    """Fold ``src`` into ``out`` as if ``src`` were tile-expanded.

    The word-level counterpart of
    :func:`repro.sketch.expansion.apply_expanded`: ``out`` (last axis
    words, ``out_size`` bits) is combined in place with the replication
    of ``src`` (``src_size`` bits, ``out_size = k * src_size``) without
    materializing the expansion.  ``op`` is ``np.bitwise_and`` /
    ``np.bitwise_or``.  Works on 1-D word arrays and on ``(runs,
    words)`` matrices (``src`` then ``(words,)`` or ``(runs, words)``).
    """
    out_size, src_size = int(out_size), int(src_size)
    if src_size == out_size:
        op(out, src, out=out)
        return
    if src_size < WORD_BITS:
        if out_size <= WORD_BITS:
            op(out, src * _replicate_multiplier(src_size, out_size), out=out)
            return
        src = src * _replicate_multiplier(src_size, WORD_BITS)
        src_size = WORD_BITS
    factor = out_size // src_size
    nwords = src_size >> 6
    view = out.reshape(out.shape[:-1] + (factor, nwords))
    if src.ndim > 1:
        src = src[..., np.newaxis, :]
    op(view, src, out=view)
