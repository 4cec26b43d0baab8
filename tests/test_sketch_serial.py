"""Unit tests for repro.sketch.serial."""

import pytest

from repro.exceptions import SketchError
from repro.sketch.bitmap import Bitmap
from repro.sketch.serial import HEADER_SIZE, deserialize_bitmap, serialize_bitmap


class TestRoundTrip:
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 64, 1000, 4096])
    def test_roundtrip_preserves_bits(self, size, rng):
        bitmap = Bitmap(size)
        count = max(size // 3, 1)
        bitmap.set_many(rng.integers(0, size, size=count))
        assert deserialize_bitmap(serialize_bitmap(bitmap)) == bitmap

    def test_empty_bitmap_roundtrip(self):
        bitmap = Bitmap(128)
        assert deserialize_bitmap(serialize_bitmap(bitmap)) == bitmap

    def test_saturated_bitmap_roundtrip(self):
        bitmap = Bitmap.from_indices(32, range(32))
        assert deserialize_bitmap(serialize_bitmap(bitmap)) == bitmap

    def test_payload_size_is_compact(self):
        """16-byte header + the packed words, 1 bit per bit."""
        bitmap = Bitmap(2**20)
        payload = serialize_bitmap(bitmap)
        assert len(payload) == HEADER_SIZE + 2**20 // 8


class TestMalformedPayloads:
    def test_too_short_header(self):
        with pytest.raises(SketchError):
            deserialize_bitmap(b"\x01\x02")

    def test_truncated_body(self):
        payload = serialize_bitmap(Bitmap(64))
        with pytest.raises(SketchError):
            deserialize_bitmap(payload[:-1])

    def test_oversized_body(self):
        payload = serialize_bitmap(Bitmap(64))
        with pytest.raises(SketchError):
            deserialize_bitmap(payload + b"\x00")

    def test_zero_bit_payload(self):
        payload = (0).to_bytes(8, "little")
        with pytest.raises(SketchError):
            deserialize_bitmap(payload)

    @pytest.mark.parametrize(
        "kind, body",
        [
            (1, (5).to_bytes(4, "little")),
            (2, (5).to_bytes(4, "little") + (1).to_bytes(4, "little")),
            (3, bytes(8)),
        ],
        ids=["retired-sparse", "retired-rle", "unknown"],
    )
    def test_unknown_kind_byte(self, kind, body):
        """Only kind 0 (packed words) is read, even when the body is a
        well-formed retired sparse-index or run-length one."""
        header = bytearray(serialize_bitmap(Bitmap(64))[:HEADER_SIZE])
        header[4] = kind
        with pytest.raises(SketchError):
            deserialize_bitmap(bytes(header) + body)
