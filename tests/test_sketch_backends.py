"""Unit tests for repro.sketch.backends (packed-word primitives)."""

import numpy as np
import pytest

from repro.sketch import backends
from repro.sketch.backends import (
    apply_expanded_words,
    pack_bool,
    pack_bool_matrix,
    popcount_rows,
    popcount_words,
    set_bits_in_words,
    tail_mask,
    tile_words,
    tile_words_rows,
    unpack_words,
    unpack_words_matrix,
    word_count,
)


def random_bits(rng, size, fill=0.3):
    return rng.random(size) < fill


class TestPackUnpack:
    @pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 1000, 4096])
    def test_roundtrip(self, rng, size):
        bits = random_bits(rng, size)
        words = pack_bool(bits)
        assert words.dtype == np.uint64
        assert len(words) == word_count(size)
        assert np.array_equal(unpack_words(words, size), bits)

    def test_bit_layout_is_little_endian_within_words(self):
        bits = np.zeros(128, dtype=bool)
        bits[0] = bits[65] = True
        words = pack_bool(bits)
        assert int(words[0]) == 1
        assert int(words[1]) == 2

    def test_tail_bits_are_zero(self, rng):
        for size in (1, 63, 65, 100):
            words = pack_bool(np.ones(size, dtype=bool))
            assert int(words[-1]) & ~int(tail_mask(size)) == 0

    def test_matrix_roundtrip(self, rng):
        bits = rng.random((5, 100)) < 0.4
        words = pack_bool_matrix(bits)
        assert words.shape == (5, word_count(100))
        assert np.array_equal(unpack_words_matrix(words, 100), bits)


class TestPopcount:
    @pytest.mark.parametrize("size", [1, 64, 100, 4096])
    def test_matches_bool_sum(self, rng, size):
        bits = random_bits(rng, size)
        assert popcount_words(pack_bool(bits)) == int(bits.sum())

    def test_rows_match_per_row_sums(self, rng):
        bits = rng.random((7, 200)) < 0.5
        counts = popcount_rows(pack_bool_matrix(bits))
        assert np.array_equal(counts, bits.sum(axis=1))

    def test_lut_fallback_agrees_with_ufunc(self, rng):
        """The LUT path must agree with np.bitwise_count where both
        exist (CI's numpy 1.x runs the LUT in production)."""
        words = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert backends._popcount_words_lut(words) == expected
        assert popcount_words(words) == expected


class TestSetBits:
    def test_scatter_matches_bool_scatter(self, rng):
        size = 2048
        indices = rng.integers(0, size, size=500)
        words = np.zeros(word_count(size), dtype=np.uint64)
        set_bits_in_words(words, indices)
        bits = np.zeros(size, dtype=bool)
        bits[indices] = True
        assert np.array_equal(unpack_words(words, size), bits)

    def test_duplicate_indices_are_idempotent(self):
        words = np.zeros(1, dtype=np.uint64)
        set_bits_in_words(words, np.array([3, 3, 3]))
        assert int(words[0]) == 8


class TestTiling:
    @pytest.mark.parametrize("size,factor", [(64, 4), (128, 2), (16, 4), (8, 8), (32, 2), (1024, 16)])
    def test_matches_bool_tile(self, rng, size, factor):
        bits = random_bits(rng, size)
        tiled = tile_words(pack_bool(bits), size, factor)
        assert np.array_equal(
            unpack_words(tiled, size * factor), np.tile(bits, factor)
        )

    def test_factor_one_returns_a_copy(self, rng):
        words = pack_bool(random_bits(rng, 64))
        out = tile_words(words, 64, 1)
        assert out is not words
        out[0] = np.uint64(0)
        assert int(words[0]) != 0 or int(out[0]) == 0

    def test_rows_match_per_row_tiling(self, rng):
        bits = rng.random((3, 32)) < 0.5
        tiled = tile_words_rows(pack_bool_matrix(bits), 32, 4)
        assert np.array_equal(
            unpack_words_matrix(tiled, 128), np.tile(bits, (1, 4))
        )


class TestApplyExpandedWords:
    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    @pytest.mark.parametrize("out_size,src_size", [(256, 64), (256, 16), (1024, 1024), (128, 8)])
    def test_matches_bool_reference(self, rng, op, out_size, src_size):
        out_bits = random_bits(rng, out_size)
        src_bits = random_bits(rng, src_size)
        words = pack_bool(out_bits)
        apply_expanded_words(words, out_size, pack_bool(src_bits), src_size, op)
        bool_op = np.logical_and if op is np.bitwise_and else np.logical_or
        expected = bool_op(
            out_bits, np.tile(src_bits, out_size // src_size)
        )
        assert np.array_equal(unpack_words(words, out_size), expected)
