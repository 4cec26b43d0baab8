"""Memory-tier benchmark: packed-word joins versus the seed's bools.

Every traffic record is held as packed ``uint64`` words, 8x smaller
than the seed's dense-bool arrays.  This measures what that buys the
join kernel and writes a ``memory_tier`` section into
``BENCH_perf.json``:

* **join_throughput** — bulk AND throughput at 2^19 bits, packed
  words versus the seed's bool arrays.  The word kernel touches 1/8th
  the bytes, so CI gates word >= 1.0x bool (measured ~5-12x).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.experiments.common import bench_environment
from repro.sketch.bitmap import Bitmap

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_perf.json"

#: Production bitmap size (matches the sliding-window benchmark).
_BITS = 2**19
_JOIN_ROUNDS = 200
_SEED = 20170619


def _merge_bench(section: str, payload: dict) -> None:
    """Write one named section of BENCH_perf.json, keeping the others."""
    existing = {}
    if _BENCH_PATH.exists():
        try:
            existing = json.loads(_BENCH_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
    if "workload" in existing:  # pre-section layout: start fresh
        existing = {}
    existing[section] = payload
    _BENCH_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def _join_throughput(rng):
    bits_a = rng.random(_BITS) < 0.05
    bits_b = rng.random(_BITS) < 0.05
    bitmap_a, bitmap_b = Bitmap(_BITS), Bitmap(_BITS)
    bitmap_a.set_many(np.flatnonzero(bits_a))
    bitmap_b.set_many(np.flatnonzero(bits_b))
    words_a = np.array(bitmap_a.words)
    words_b = np.array(bitmap_b.words)
    word_out = np.empty_like(words_a)
    bool_out = np.empty(_BITS, dtype=bool)

    started = time.perf_counter()
    for _ in range(_JOIN_ROUNDS):
        np.bitwise_and(words_a, words_b, out=word_out)
    word_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(_JOIN_ROUNDS):
        np.logical_and(bits_a, bits_b, out=bool_out)
    bool_seconds = time.perf_counter() - started

    # Correctness before timing is trusted.
    assert np.array_equal(
        word_out, np.packbits(bool_out, bitorder="little").view(np.uint64)
    )
    return word_seconds, bool_seconds


def test_memory_tier_benchmark():
    rng = np.random.default_rng(_SEED)

    word_seconds, bool_seconds = _join_throughput(rng)
    join_speedup = bool_seconds / word_seconds
    # CI gate: packed-word joins must never lose to the seed's bools.
    assert join_speedup >= 1.0, (
        f"word AND only {join_speedup:.2f}x bool AND "
        f"(word {word_seconds:.4f}s, bool {bool_seconds:.4f}s)"
    )

    _merge_bench(
        "memory_tier",
        {
            "environment": bench_environment(),
            "bitmap_bits": _BITS,
            "join_throughput": {
                "rounds": _JOIN_ROUNDS,
                "seconds_bool": round(bool_seconds, 4),
                "seconds_words": round(word_seconds, 4),
                "word_vs_bool": round(join_speedup, 3),
            },
            "notes": "join_throughput.word_vs_bool >= 1.0 is asserted in CI.",
        },
    )
    assert json.loads(_BENCH_PATH.read_text())["memory_tier"]
