"""Replication-based bitmap expansion (Section III-A, Fig. 2).

A bitmap of size ``l`` is expanded to size ``m`` (both powers of two,
``l <= m``) by tiling it ``m / l`` times.  The key alignment property,
proved in Section III-A of the paper, is::

    if B[h mod l] == 1  then  E[h mod m] == 1   for any hash value h

because ``h mod m = (h mod l) + k·l`` for some integer k when both
sizes are powers of two.  :func:`verify_alignment` checks the property
directly and is used by the property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SketchError
from repro.obs import runtime as obs
from repro.obs.metrics import POW2_BUCKETS
from repro.sketch import backends
from repro.sketch.bitmap import Bitmap
from repro.sketch.sizing import is_power_of_two


def expansion_factor(source_size: int, target_size: int) -> int:
    """Number of replications needed to expand ``source`` to ``target``.

    Raises :class:`SketchError` unless both sizes are powers of two and
    ``target_size >= source_size`` — the exact preconditions the paper
    establishes for the alignment property to hold.
    """
    if not is_power_of_two(source_size):
        raise SketchError(f"source size {source_size} is not a power of two")
    if not is_power_of_two(target_size):
        raise SketchError(f"target size {target_size} is not a power of two")
    if target_size < source_size:
        raise SketchError(
            f"cannot expand a bitmap of size {source_size} down to {target_size}"
        )
    return target_size // source_size


#: Bound handle: this is the hottest instrumentation site in the tree
#: (one observation per input bitmap per join), so joins batch a whole
#: group of same-ratio inputs into one ``observe_many`` call
#: (:func:`observe_expansion_group`).  The exact expansion count is
#: ``repro_expansion_ratio_count``; a separate counter series would
#: double the hot-path cost to say the same number.
_EXPANSION_RATIO = obs.bind_histogram(
    "repro_expansion_ratio",
    "Replication factor m/l of each expansion (count = expansions).",
    buckets=POW2_BUCKETS,
)


def observe_expansion_group(sizes, target: int) -> None:
    """Account one join group's expansion ratios, batched.

    One observation per input that actually expands (``size <
    target``) — an input already at the target size is passed through
    untouched (the paper's "if l_j = m then E_j is simply B_j"), so it
    is not an expansion and costs nothing to account.  The common
    mixed case — every input at one size — collapses into a single
    ``observe_many`` carrying the whole group.  Callers guard with
    ``obs.ACTIVE`` and skip the call entirely when no input expands
    (``min(sizes) == target``); ``sizes`` must be non-empty.
    """
    first = sizes[0]
    for size in sizes:
        if size != first:
            for size in sizes:
                if size != target:
                    _EXPANSION_RATIO.observe(float(target // size))
            return
    if first != target:
        _EXPANSION_RATIO.observe_many(float(target // first), len(sizes))


def expand_to(bitmap: Bitmap, target_size: int) -> Bitmap:
    """Expand ``bitmap`` to ``target_size`` bits by whole replication.

    Returns the input unchanged (as a copy-free reference) when the
    sizes already match, mirroring the paper's "if l_j = m then E_j is
    simply B_j".
    """
    factor = expansion_factor(bitmap.size, target_size)
    if factor == 1:
        return bitmap
    if obs.ACTIVE:
        _EXPANSION_RATIO.observe(factor)
    tiled = backends.tile_words(bitmap._words_view(), bitmap.size, factor)
    return Bitmap._adopt_words(target_size, tiled)


def apply_expanded(out: np.ndarray, bits: np.ndarray, op: np.ufunc) -> None:
    """Combine ``bits`` into ``out`` as if ``bits`` were tile-expanded.

    ``out`` is a boolean accumulator whose last axis has ``m`` bits;
    ``bits`` has ``l`` bits with ``m = k·l`` (both powers of two).
    Instead of materializing the ``k``-fold tiling of ``bits``, ``out``
    is viewed as ``(..., k, l)`` and ``op`` (``np.logical_and`` /
    ``np.logical_or``) is broadcast in place — the alignment property
    guarantees this touches exactly the bits the tiled expansion would.
    Allocation drops from O(m) per input to zero.

    Works on 1-D accumulators (single bitmaps) and on 2-D ``(runs, m)``
    batch matrices, where ``bits`` may be ``(l,)`` or ``(runs, l)``.

    This is a pure kernel: expansion-ratio accounting belongs to the
    caller (joins batch it per input group via
    :func:`observe_expansion_group`), not to every in-place fold.
    """
    factor = expansion_factor(bits.shape[-1], out.shape[-1])
    if factor == 1:
        op(out, bits, out=out)
        return
    view = out.reshape(out.shape[:-1] + (factor, bits.shape[-1]))
    if bits.ndim > 1:
        bits = bits[..., np.newaxis, :]
    op(view, bits, out=view)


def apply_expanded_words(
    out: np.ndarray,
    out_size: int,
    src: np.ndarray,
    src_size: int,
    op: np.ufunc,
) -> None:
    """Word-level :func:`apply_expanded`: fold packed words in place.

    ``out`` is a ``uint64`` accumulator whose last axis holds
    ``out_size`` bits; ``src`` holds ``src_size`` bits with
    ``out_size = k·src_size`` (both powers of two).  ``op`` is
    ``np.bitwise_and``/``np.bitwise_or``.  Sub-word sources are first
    replicated across one word by a multiply (no carries for
    power-of-two patterns), after which the tiling is a reshaped
    broadcast exactly as in the bool kernel — but over 1/8th the bytes.

    Like :func:`apply_expanded` this is a pure kernel; expansion-ratio
    accounting stays with the caller.
    """
    expansion_factor(src_size, out_size)  # validate pow2 + ordering
    backends.apply_expanded_words(out, out_size, src, src_size, op)


def verify_alignment(bitmap: Bitmap, target_size: int, hash_value: int) -> bool:
    """Check the alignment property for one hash value.

    Returns True iff ``B[h mod l] == E[h mod m]`` where ``E`` is the
    expansion of ``B`` to ``target_size``.  The paper proves this holds
    with equality-to-one implication; for power-of-two sizes the two
    bits are literally the same stored bit, so the values always match.
    """
    expanded = expand_to(bitmap, target_size)
    h = int(hash_value)
    return bitmap.get(h % bitmap.size) == expanded.get(h % target_size)
