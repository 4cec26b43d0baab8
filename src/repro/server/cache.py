"""The query-plan cache: joins and estimates computed once, reused.

Every persistent-traffic query (Eq. 12 / Eq. 21) is dominated by its
per-location AND-joins, and a production server answers many queries
over overlapping period sets: a flow matrix over ``L`` locations asks
``L·(L-1)/2`` point-to-point questions that each redo two from-scratch
joins, so each location's join is recomputed ``L-1`` times; analysts
re-ask the same windows; a ranking study shares its target's join
across every candidate.  :class:`JoinCache` memoizes them so each is
computed exactly once while it stays valid:

* **AND-joins** (the first level of Eq. 21 and the direct-AND
  benchmark) are keyed by ``(location, frozenset(periods))`` — bitwise
  AND is commutative and the expansion target is the set maximum, so
  the joined bitmap is identical for any period order;
* **split-joins** (the two-half construction of Eq. 12) are keyed by
  ``(location, tuple(periods))`` — the half partition follows request
  order, so only an identically-ordered query may reuse the entry.
  Eq. 12 reads only three fractions off the split-join, so the entry
  is the frozen :class:`~repro.core.results.PointEstimate` computed
  from it on the miss, not its three bitmaps: a hit counts no bits.

Entries are LRU-bounded, and invalidation is strict: a genuinely new
record drops every entry whose period set contains it, a *conflicting*
upload drops the whole location, and an archive ``repair()`` /
``recover()`` flushes everything.  Idempotent byte-identical re-uploads
do **not** invalidate — the store absorbed them as no-ops, so every
cached join still matches the store's contents.  The wiring lives in
:class:`~repro.server.central.CentralServer`, which subscribes the
cache to its :class:`~repro.server.store.RecordStore` and archive.

Correctness is bit-exact by construction — a cached AND entry *is*
the bitmap the from-scratch join would produce, and a split entry the
estimate Eq. 12 computes from it — and enforced by seeded equivalence
tests over the fig4/fig5 workloads (``tests/test_server_cache.py``).

Concurrency: one cache serves every query and upload thread of its
server.  A single lock guards the entries, the per-location key index
and the running totals; lookups hold it only to probe and to insert,
and invalidation and flushes hold it throughout.  The join itself is
built outside the lock, so two threads missing the same key may both
build it, and the second insert replaces the first with an identical
value (a stored record never changes).  Readers of :attr:`stats` see
totals that other threads keep moving.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.results import PointEstimate
from repro.exceptions import ConfigurationError
from repro.obs import runtime as obs
from repro.obs import trace as trace_mod
from repro.obs.spans import add_link
from repro.sketch.bitmap import Bitmap

#: Default LRU bound.  Only AND entries hold a bitmap: at 2^20-bit
#: records a cache full of them is 32 MiB of words, while an Eq. 12
#: entry is one estimate of a few hundred bytes.
DEFAULT_MAX_ENTRIES = 256

_CacheKey = Tuple[str, int, object]


@dataclass
class CacheStats:
    """Running totals of one :class:`JoinCache`'s behaviour.

    ``invalidations`` counts *dropped entries*, not invalidation
    events — an add that touches no cached period set costs nothing
    and counts nothing.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (CLI run report, benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


#: Bound handles for the lookup hot path, one per closed label value.
_HITS = {
    kind: obs.bind_counter(
        "repro_join_cache_hits_total",
        "Query-plan cache lookups served from a memoized join.",
        kind=kind,
    )
    for kind in ("and", "split")
}
_MISSES = {
    kind: obs.bind_counter(
        "repro_join_cache_misses_total",
        "Query-plan cache lookups that computed a fresh join.",
        kind=kind,
    )
    for kind in ("and", "split")
}
_EVICTIONS = obs.bind_counter(
    "repro_join_cache_evictions_total",
    "Cached joins dropped by the LRU bound.",
)
_INVALIDATIONS = {
    reason: obs.bind_counter(
        "repro_join_cache_invalidations_total",
        "Cached joins dropped by invalidation, by reason.",
        reason=reason,
    )
    for reason in ("add", "conflict", "flush")
}


class JoinCache:
    """LRU-bounded memo of per-location AND-joins and Eq. 12 estimates.

    Parameters
    ----------
    max_entries:
        LRU bound on resident entries (not bytes).  An AND entry holds
        one joined bitmap at the query's common size; a split entry
        holds the estimate Eq. 12 yields from the split-join.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if int(max_entries) < 1:
            raise ConfigurationError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[_CacheKey, object]" = OrderedDict()
        self._by_location: Dict[int, Set[_CacheKey]] = {}
        self._stats = CacheStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def max_entries(self) -> int:
        """The LRU bound."""
        return self._max_entries

    @property
    def stats(self) -> CacheStats:
        """Live running totals (shared object, not a snapshot)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def and_join(
        self,
        location: int,
        periods: Sequence[int],
        build: Callable[[], Bitmap],
    ) -> Bitmap:
        """The AND-join of one location's records over a period *set*.

        ``build`` computes the join on a miss.  Keyed order-free: the
        AND-join is commutative and expands to the set maximum, so any
        permutation of ``periods`` yields the identical bitmap.
        """
        key = ("and", int(location), frozenset(int(p) for p in periods))
        return self._lookup(key, build)

    def split_join(
        self,
        location: int,
        periods: Sequence[int],
        build: Callable[[], PointEstimate],
    ) -> PointEstimate:
        """The Eq. 12 estimate of a split-and-join over an *ordered*
        period tuple.

        ``build`` joins the records and evaluates Eq. 12 on a miss; the
        entry keeps only the resulting estimate, so the split's bitmaps
        are garbage once it exists.  Keyed by the exact order: the two
        halves are "first ceil(t/2) records" vs "the rest", so permuted
        queries partition differently and must not share an entry.
        """
        key = ("split", int(location), tuple(int(p) for p in periods))
        return self._lookup(key, build)

    def _lookup(self, key: _CacheKey, build: Callable[[], object]) -> object:
        kind = key[0]
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self._stats.hits += 1
        if cached is not None:
            value, built_context = cached
            if obs.ACTIVE:
                _HITS[kind].inc()
                # A cache-served query still causally depends on the
                # trace that originally built the join — link to it.
                if built_context is not None:
                    add_link(built_context)
            return value
        if obs.ACTIVE:
            _MISSES[kind].inc()
        # May raise (a missing record, a saturated estimate); nothing
        # is cached then.
        value = build()
        built_context = trace_mod.current() if obs.TRACING else None
        evicted = 0
        with self._lock:
            self._entries[key] = (value, built_context)
            self._by_location.setdefault(key[1], set()).add(key)
            while len(self._entries) > self._max_entries:
                oldest, _ = self._entries.popitem(last=False)
                self._forget(oldest)
                evicted += 1
            self._stats.evictions += evicted
        if evicted and obs.ACTIVE:
            _EVICTIONS.inc(evicted)
        return value

    def _forget(self, key: _CacheKey) -> None:
        keys = self._by_location.get(key[1])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_location[key[1]]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    @staticmethod
    def _period_set(key: _CacheKey):
        periods = key[2]
        return periods if isinstance(periods, frozenset) else set(periods)

    def invalidate(
        self,
        location: int,
        period: Optional[int] = None,
        reason: str = "add",
    ) -> int:
        """Drop a location's entries; returns how many were dropped.

        With ``period`` given, only entries whose period set contains
        it are dropped (a fresh record cannot change a join that never
        saw its period); without, the whole location goes (the
        conflicting-upload case, where something upstream misbehaved).
        """
        location = int(location)
        with self._lock:
            keys = self._by_location.get(location)
            if not keys:
                return 0
            if period is None:
                doomed = list(keys)
            else:
                period = int(period)
                doomed = [k for k in keys if period in self._period_set(k)]
            for key in doomed:
                del self._entries[key]
                self._forget(key)
            self._stats.invalidations += len(doomed)
        return self._count_invalidation(len(doomed), reason)

    def flush(self, reason: str = "flush") -> int:
        """Drop every entry (archive repair/recover); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_location.clear()
            self._stats.invalidations += dropped
        return self._count_invalidation(dropped, reason)

    @staticmethod
    def _count_invalidation(dropped: int, reason: str) -> int:
        if dropped and obs.ACTIVE:
            handle = _INVALIDATIONS.get(reason)
            if handle is None:  # uncatalogued reason string
                obs.counter(
                    "repro_join_cache_invalidations_total",
                    "Cached joins dropped by invalidation, by reason.",
                    reason=reason,
                ).inc(dropped)
            else:
                handle.inc(dropped)
        return dropped
