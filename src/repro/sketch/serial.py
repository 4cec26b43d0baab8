"""Compact serialization of bitmaps for RSU-to-server uploads.

At the end of each measurement period the RSU "sends the content of
the bitmap B as its traffic record to the central server" (Section
II-D).  This module packs a :class:`~repro.sketch.bitmap.Bitmap` into a
small byte payload and back.

Wire format (version 2, magic ``RBW2``)::

    offset  size  field
    0       4     magic  b"RBW2"
    4       1     kind   0 = packed words
    5       3     padding (zero) — keeps the body 8-byte aligned
    8       8     bit count m, little-endian uint64
    16      ...   body: the packed uint64 words, little-endian,
                  8 * ceil(m/64) bytes

Because a bitmap already holds packed words, serialization is a header
plus ``tobytes()`` and deserialization a ``frombuffer`` copy: the
seed's per-upload ``np.packbits``/``np.unpackbits`` round-trip is gone.
Kinds 1 and 2 once carried sparse-index and run-length bodies; the
reader rejects them (and any other kind) with
:class:`~repro.exceptions.SketchError`, so a shard quarantines such a
frame as undecodable.

The 16-byte header is exactly the :class:`~repro.rsu.record` payload's
bitmap offset alignment: a record payload is 16 bytes of
location/period followed by this serialization, so a record's words
begin at byte 32 of the record file, 8-byte aligned.

The seed's version-1 format (8-byte size header + big-bit-order
``np.packbits`` body, no magic) is still read transparently:
:func:`deserialize_bitmap` detects the magic and falls back.  A
version-1 size header would need a bit count whose low four bytes
spell ``"RBW2"`` little-endian (≈843 M bits) *and* a matching body
length to collide — and :func:`serialize_bitmap_legacy` keeps the old
writer available for compatibility tests and tooling.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.exceptions import SketchError
from repro.sketch import backends
from repro.sketch.bitmap import Bitmap

_LEGACY_HEADER = struct.Struct("<Q")  # v1: little-endian uint64 bit count
_MAGIC = b"RBW2"
_HEADER = struct.Struct("<4sB3xQ")  # magic, kind, pad, bit count

HEADER_SIZE = _HEADER.size

KIND_DENSE = 0


def serialize_bitmap(bitmap: Bitmap) -> bytes:
    """Pack a bitmap: the v2 header, then its little-endian words."""
    body = bitmap._words_view().astype("<u8", copy=False).tobytes()
    return _HEADER.pack(_MAGIC, KIND_DENSE, bitmap.size) + body


def serialize_bitmap_legacy(bitmap: Bitmap) -> bytes:
    """The seed's version-1 writer: size header + big-bit-order pack.

    Kept for compatibility tests and for regenerating old-format
    fixtures; production paths always write version 2.
    """
    packed = np.packbits(bitmap.bits)
    return _LEGACY_HEADER.pack(bitmap.size) + packed.tobytes()


def parse_header(payload: bytes) -> Tuple[str, int, int]:
    """``(kind, size, body_offset)`` of a serialized bitmap.

    ``kind`` is ``"dense"`` (v2) or ``"legacy"`` (v1); the body offset
    lets callers locate the words inside a larger payload without
    copying it.
    """
    if payload[:4] == _MAGIC and len(payload) >= HEADER_SIZE:
        _, kind, size = _HEADER.unpack_from(payload)
        if kind != KIND_DENSE:
            raise SketchError(f"unknown bitmap representation kind {kind}")
        return "dense", int(size), HEADER_SIZE
    if len(payload) < _LEGACY_HEADER.size:
        raise SketchError("bitmap payload too short to contain a header")
    (size,) = _LEGACY_HEADER.unpack_from(payload)
    return "legacy", int(size), _LEGACY_HEADER.size


def _deserialize_legacy(size: int, body: bytes) -> Bitmap:
    expected_bytes = (size + 7) // 8
    if len(body) != expected_bytes:
        raise SketchError(
            f"bitmap payload body has {len(body)} bytes, "
            f"expected {expected_bytes} for {size} bits"
        )
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))[:size]
    return Bitmap(int(size), bits.astype(np.bool_))


def deserialize_bitmap(payload: bytes) -> Bitmap:
    """Inverse of :func:`serialize_bitmap` (reads v1 and v2 payloads)."""
    kind, size, offset = parse_header(payload)
    if size == 0:
        raise SketchError("bitmap payload declares zero bits")
    body = payload[offset:]
    if kind == "legacy":
        return _deserialize_legacy(size, body)
    expected = backends.word_count(size) * 8
    if len(body) != expected:
        raise SketchError(
            f"dense bitmap body has {len(body)} bytes, "
            f"expected {expected} for {size} bits"
        )
    words = np.frombuffer(body, dtype="<u8").astype(np.uint64)
    if int(words[-1]) & ~int(backends.tail_mask(size)) & 0xFFFFFFFFFFFFFFFF:
        raise SketchError(
            f"dense bitmap body sets bits beyond the declared "
            f"size of {size}"
        )
    return Bitmap._adopt_words(size, words)
