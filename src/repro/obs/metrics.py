"""Metric primitives: counters, gauges, histograms, and their registry.

The registry is deliberately dependency-free (no ``prometheus_client``)
and thread-safe: RSU uploads may arrive from many threads once the
server runs behind a real transport, and the simulation engine must be
free to parallelise periods later without revisiting this layer.

Metrics follow Prometheus conventions: a *family* is identified by a
metric name (``repro_records_ingested_total``), holds one child per
distinct label set, and has a fixed type.  Histograms use fixed
log-scale bucket boundaries (:func:`log_buckets`), so the exposition is
mergeable across processes.

Concurrency model
-----------------
Each counter, gauge and histogram child holds one value behind one
lock (a histogram: one bucket list and one sum), so an update is one
short critical section and a read is one consistent copy.  Updates
call ``acquire``/``release`` in ``try``/``finally`` rather than
``with``: on CPython 3.11 that halves the cost of an update (about
340 ns instead of 700 ns on a 2-vCPU host).  The one exception is
:class:`CounterBank`, the fused multi-series path of the hottest
sites: its cells are per-thread and summed at read time.

All of this is *passive*: nothing in the library touches a registry
unless one was activated through :mod:`repro.obs.runtime`.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ObservabilityError

#: Valid Prometheus metric names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Valid Prometheus label names.
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A child's key: the label set as a sorted tuple of (name, value).
LabelKey = Tuple[Tuple[str, str], ...]


def log_buckets(start: float, end: float, per_decade: int = 3) -> Tuple[float, ...]:
    """Fixed log-scale histogram boundaries from ``start`` to ``end``.

    Produces ``per_decade`` boundaries per factor of ten, e.g.
    ``log_buckets(0.001, 1.0, 3)`` gives 1ms, ~2.2ms, ~4.6ms, 10ms, ...
    Boundaries are rounded to 12 significant digits so the exposition
    text stays stable across platforms.
    """
    if start <= 0:
        raise ObservabilityError(f"bucket start must be positive, got {start}")
    if end <= start:
        raise ObservabilityError(f"bucket end {end} must exceed start {start}")
    if per_decade < 1:
        raise ObservabilityError(f"per_decade must be >= 1, got {per_decade}")
    lo = round(per_decade * math.log10(start))
    hi = round(per_decade * math.log10(end))
    return tuple(float(f"{10 ** (k / per_decade):.12g}") for k in range(lo, hi + 1))


#: Default latency buckets: 1 microsecond to 10 seconds, 3 per decade.
DEFAULT_TIME_BUCKETS = log_buckets(1e-6, 10.0, per_decade=3)

#: Buckets for power-of-two quantities (expansion factors, size ratios).
POW2_BUCKETS = tuple(float(2 ** k) for k in range(11))

#: Buckets for bit/byte-sized quantities: 2^6 .. 2^24.
SIZE_BUCKETS = tuple(float(2 ** k) for k in range(6, 25, 2))


def _label_key(labels: Dict[str, object]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ObservabilityError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Scalar:
    """One value behind one lock: the state of a counter or gauge.

    ``value`` also adds the :class:`CounterBank` columns wired to
    this metric, so a banked series reads like any other.
    """

    __slots__ = ("_lock", "_value", "_banks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        #: ``(bank, attr)`` columns feeding this metric.
        self._banks: List[Tuple["CounterBank", str]] = []

    def _attach_bank(self, bank: "CounterBank", attr: str) -> None:
        with self._lock:
            self._banks.append((bank, attr))

    @property
    def value(self) -> float:
        """The exact current total, bank columns included."""
        with self._lock:
            total = self._value
            for bank, attr in self._banks:
                total += bank._column(attr)
            return total

    def reset(self) -> None:
        """Zero the metric (for between-run reuse, not while writing)."""
        with self._lock:
            self._value = 0.0
            for bank, attr in self._banks:
                bank._reset_column(attr)


class Counter(_Scalar):
    """A monotonically increasing count (events, records, bits)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; cannot inc by {amount}"
            )
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()


class Gauge(_Scalar):
    """A value that can go up and down (resident records, bits).

    ``set()`` assigns the gauge's own value; bank columns wired to it
    keep adding on top.
    """

    __slots__ = ()

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)


# Kept: removal cost +2.2 to +8.1 pts of enabled slowdown (observability.md)
class CounterBank:
    """Several counter/gauge children updated through one shared cell.

    A hot path that bumps several series per event (server ingest
    touches five) would otherwise pay one guarded method call per
    series.  A bank fuses them: the site fetches *one* per-thread cell
    and performs plain attribute adds::

        cell = _INGEST.cell()
        cell.ingested += 1
        cell.resident_bits += record.size

    Each named field is wired to exactly one child metric, whose reads
    include the bank cells' column, so totals stay exact and the
    exposition is indistinguishable from per-series updates.  Only
    counters and delta-style gauges can join a bank; a banked gauge's
    ``set()`` assigns its own value and the column keeps adding on top.

    Several children may *alias* one column: ``fields`` is a sequence
    of ``(attr, child)`` pairs and a repeated ``attr`` attaches every
    listed child to the same cell slot.  This is for families whose
    values are identities of each other on the hot path (the server's
    resident-record gauge tracks its ingest counter exactly while
    nothing evicts) — the site pays one add and every aliased family
    reads the same column.

    Cells are per-thread: only the owning thread writes its cell, so
    its in-place adds never race another writer.  Reads sum a copy of
    the cell list taken under the bank lock, and cells outlive their
    threads.
    """

    __slots__ = ("_columns", "_cell_type", "_cells", "_local", "_lock")

    def __init__(self, fields):
        items = list(fields.items()) if isinstance(fields, dict) else list(fields)
        if not items:
            raise ObservabilityError("a counter bank needs at least one field")
        columns: List[str] = []
        for attr, _child in items:
            if attr not in columns:
                columns.append(attr)
        self._columns = tuple(columns)
        self._cell_type = type(
            "_BankCell", (object,), {"__slots__": self._columns}
        )
        self._cells: List[object] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        for attr, child in items:
            child._attach_bank(self, attr)

    def cell(self):
        """This thread's cell; fields are plain attributes to add to."""
        try:
            return self._local.cell
        except AttributeError:
            return self._new_cell()

    def _new_cell(self):
        cell = self._cell_type()
        for attr in self._columns:
            setattr(cell, attr, 0.0)
        with self._lock:
            self._cells.append(cell)
        self._local.cell = cell
        return cell

    def _column(self, attr: str) -> float:
        with self._lock:
            cells = list(self._cells)
        return float(sum(getattr(cell, attr) for cell in cells))

    def _reset_column(self, attr: str) -> None:
        with self._lock:
            for cell in self._cells:
                setattr(cell, attr, 0.0)


class Histogram:
    """A distribution over fixed buckets (latencies, ratios, sizes).

    Buckets are *upper bounds*: an observation ``v`` lands in the first
    bucket with ``v <= upper``; anything beyond the last bound lands in
    the implicit ``+Inf`` overflow bucket.  Export is cumulative, as
    Prometheus expects.  Every observation is bucketed exactly; the
    bucket list and the sum sit behind one lock.
    """

    __slots__ = ("_lock", "_uppers", "_counts", "_sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise ObservabilityError("a histogram needs at least one bucket")
        if list(uppers) != sorted(set(uppers)):
            raise ObservabilityError(
                f"bucket bounds must be strictly increasing, got {uppers}"
            )
        self._lock = threading.Lock()
        self._uppers = uppers
        self._counts = [0] * (len(uppers) + 1)  # +1 for +Inf
        self._sum = 0.0

    @property
    def buckets(self) -> Tuple[float, ...]:
        """The finite upper bounds (``+Inf`` is implicit)."""
        return self._uppers

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self._uppers, value)
        self._lock.acquire()
        try:
            self._counts[index] += 1
            self._sum += value
        finally:
            self._lock.release()

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in one call.

        Exactly equivalent to ``count`` consecutive ``observe(value)``
        calls — same bucket, count and sum — at the cost of one.  Hot
        sites that expand a whole group at one ratio (a join folding k
        same-sized bitmaps) use it to pay the per-observation overhead
        once per group.
        """
        if count <= 0:
            return
        index = bisect_left(self._uppers, value)
        self._lock.acquire()
        try:
            self._counts[index] += count
            self._sum += value * count
        finally:
            self._lock.release()

    def _read(self) -> Tuple[List[int], float]:
        """One consistent ``(per_bucket_counts, sum)`` copy."""
        with self._lock:
            return list(self._counts), self._sum

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        return self._read()[1]

    @property
    def count(self) -> int:
        """Exact number of observations."""
        return sum(self._read()[0])

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, overflow last."""
        return self._read()[0]

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        return self.exposition()[0]

    def exposition(self) -> Tuple[List[Tuple[float, int]], float, int]:
        """Consistent ``(cumulative_pairs, sum, count)`` from one read.

        ``cumulative()``, ``sum`` and ``count`` each take the lock
        separately, so a reader combining them while writers run can
        pair a stale ``+Inf`` bucket with a newer count — an exposition
        consumers (including :meth:`merge_cumulative`) rightly reject.
        Exporters and snapshots read all three quantities out of one
        locked copy here instead, so a scrape is internally consistent
        no matter how it races the writers.
        """
        counts, total_sum = self._read()
        pairs: List[Tuple[float, int]] = []
        running = 0
        for upper, count in zip(self._uppers, counts):
            running += count
            pairs.append((upper, running))
        total = running + counts[-1]
        pairs.append((math.inf, total))
        return pairs, total_sum, total

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from bucket bounds.

        Returns the upper bound of the bucket containing the quantile
        (the last finite bound for overflow observations, NaN when
        empty) — coarse, but honest about the histogram's resolution.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must lie in [0, 1], got {q}")
        counts, _ = self._read()
        total = sum(counts)
        if total == 0:
            return math.nan
        target = q * total
        running = 0
        for upper, count in zip(self._uppers, counts):
            running += count
            if running >= target:
                return upper
        return self._uppers[-1]

    def reset(self) -> None:
        """Forget all observations."""
        with self._lock:
            self._counts = [0] * (len(self._uppers) + 1)
            self._sum = 0.0

    def merge_cumulative(
        self,
        buckets: Sequence[Sequence[object]],
        sum_: float,
        count: int,
    ) -> None:
        """Fold another histogram's snapshot into this one.

        ``buckets`` is the snapshot form: cumulative ``(le, count)``
        pairs with ``le`` either a float or the string ``"+Inf"``,
        ``+Inf`` last.  Both histograms must share the same finite
        bounds — the fixed log-scale bucket convention exists exactly
        so worker snapshots merge losslessly into the parent.
        """
        if len(buckets) != len(self._uppers) + 1:
            raise ObservabilityError(
                f"cannot merge histogram with {len(buckets)} buckets "
                f"into one with {len(self._uppers) + 1}"
            )
        uppers = []
        cumulative = []
        for le, cum in buckets:
            uppers.append(math.inf if le == "+Inf" else float(le))  # type: ignore[arg-type]
            cumulative.append(int(cum))  # type: ignore[call-overload]
        if tuple(uppers[:-1]) != self._uppers or not math.isinf(uppers[-1]):
            raise ObservabilityError(
                f"histogram bucket bounds differ: {tuple(uppers[:-1])} "
                f"vs {self._uppers}"
            )
        per_bucket = []
        previous = 0
        for cum in cumulative:
            if cum < previous:
                raise ObservabilityError(
                    f"cumulative bucket counts must be monotone, got {cumulative}"
                )
            per_bucket.append(cum - previous)
            previous = cum
        if cumulative[-1] != int(count):
            raise ObservabilityError(
                f"histogram count {count} disagrees with +Inf bucket "
                f"{cumulative[-1]}"
            )
        with self._lock:
            for index, increment in enumerate(per_bucket):
                self._counts[index] += increment
            self._sum += float(sum_)


class MetricFamily:
    """All children (label sets) of one named metric."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        if kind not in ("counter", "gauge", "histogram"):
            raise ObservabilityError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, object] = {}

    def labels(self, **labels: object):
        """The child for this label set, created on first use."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "counter":
                    child = Counter()
                elif self.kind == "gauge":
                    child = Gauge()
                else:
                    child = Histogram(self._buckets or DEFAULT_TIME_BUCKETS)
                self._children[key] = child
            return child

    def children(self) -> Iterator[Tuple[LabelKey, object]]:
        """Iterate ``(label_key, child)`` pairs, sorted by label key."""
        with self._lock:
            items = list(self._children.items())
        return iter(sorted(items, key=lambda item: item[0]))

    def reset(self) -> None:
        """Reset every child in the family."""
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.reset()  # type: ignore[attr-defined]


class MetricsRegistry:
    """A thread-safe collection of metric families.

    The registry is the unit of enable/export: the CLI activates one
    per run and renders it through :mod:`repro.obs.export`; libraries
    reach the active one through :mod:`repro.obs.runtime`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._banks: Dict[str, CounterBank] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help_text, buckets)
                    self._families[name] = family
        if family.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if help_text and not family.help_text:
            family.help_text = help_text
        return family

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter ``name`` for this label set (created on demand)."""
        return self._family(name, "counter", help).labels(**labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The gauge ``name`` for this label set (created on demand)."""
        return self._family(name, "gauge", help).labels(**labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """The histogram ``name`` for this label set.

        ``buckets`` only take effect when the family is first created;
        later calls reuse the family's bounds (they must be consistent
        for the exposition to merge).
        """
        return self._family(name, "histogram", help, buckets).labels(**labels)

    def bind(
        self,
        kind: str,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        """Resolve a child once so callers can cache the handle.

        Returns the concrete :class:`Counter`/:class:`Gauge`/
        :class:`Histogram` child — name validation, label sorting, and
        family lookup happen here instead of on every update.  Labels
        ride in a dict (not kwargs) so label names like ``kind`` can't
        collide with the parameters.  Hot paths use this through the
        typed :func:`repro.obs.runtime.bind_counter` /
        ``bind_gauge`` / ``bind_histogram`` helpers, whose handles
        also re-resolve when observability is toggled.
        """
        labels = labels or {}
        if kind == "counter":
            return self.counter(name, help, **labels)
        if kind == "gauge":
            return self.gauge(name, help, **labels)
        if kind == "histogram":
            return self.histogram(name, help, buckets=buckets, **labels)
        raise ObservabilityError(f"unknown metric kind {kind!r}")

    def bank(
        self,
        name: str,
        fields: Dict[str, Tuple[str, str, str, Optional[Dict[str, object]]]],
    ) -> CounterBank:
        """The named :class:`CounterBank`, created and wired on first use.

        ``fields`` maps cell attribute names to ``(kind, metric_name,
        help, labels)`` specs; kind must be ``counter`` or ``gauge``.
        A spec may carry a fifth element naming *another* field's
        attribute: the child then aliases that field's cell column
        (see :class:`CounterBank`) instead of getting its own — its
        own attribute key never becomes a slot.  Banks are keyed by
        ``name`` — later calls return the existing bank unchanged, so
        handle rebinding on enable/disable can never double-attach a
        column to its children.
        """
        existing = self._banks.get(name)
        if existing is not None:
            return existing
        children: List[Tuple[str, _Scalar]] = []
        for attr, spec in fields.items():
            if len(spec) == 5:
                kind, metric_name, help_text, labels, column = spec
                if column not in fields or len(fields[column]) == 5:
                    raise ObservabilityError(
                        f"bank field {attr!r} aliases {column!r}, which is "
                        f"not a direct field of this bank"
                    )
            else:
                kind, metric_name, help_text, labels = spec
                column = attr
            if kind not in ("counter", "gauge"):
                raise ObservabilityError(
                    f"bank field {attr!r} must be a counter or gauge, "
                    f"not a {kind}"
                )
            children.append(
                (column, self.bind(kind, metric_name, help_text, labels=labels))
            )
        with self._lock:
            existing = self._banks.get(name)
            if existing is None:
                existing = CounterBank(children)
                self._banks[name] = existing
            return existing

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """Look up a family by name (None when absent)."""
        return self._families.get(name)

    def reset(self) -> None:
        """Reset every metric in place (families and labels survive)."""
        for family in self.families():
            family.reset()

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        This is the cross-process aggregation primitive: worker
        processes in ``experiments.parallel.map_cells`` snapshot their
        local registry and ship it back with each result chunk; the
        parent merges every snapshot here so ``--workers N`` runs
        report the same counters as serial runs.

        Counters and gauges add; histograms merge bucket-wise (their
        fixed log-scale bounds make this lossless).  Families and
        label sets absent from this registry are created.  Each call
        increments ``repro_registry_merges_total``.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            help_text = data.get("help", "")
            for child in data.get("children", ()):
                labels = child.get("labels", {})
                if kind == "counter":
                    self.counter(name, help_text, **labels).inc(child["value"])
                elif kind == "gauge":
                    # Gauges are levels, but across processes the only
                    # meaningful fold is additive (resident records in
                    # worker A + worker B = total resident records).
                    self.gauge(name, help_text, **labels).inc(child["value"])
                elif kind == "histogram":
                    buckets = child["buckets"]
                    finite = tuple(
                        float(le) for le, _ in buckets if le != "+Inf"
                    )
                    self.histogram(
                        name, help_text, buckets=finite or None, **labels
                    ).merge_cumulative(buckets, child["sum"], child["count"])
                else:
                    raise ObservabilityError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )
        self.counter(
            "repro_registry_merges_total",
            help="Cross-process registry snapshots merged into this one.",
        ).inc()

    def snapshot(self) -> Dict[str, dict]:
        """A plain-data view of every metric (drives the exporters)."""
        out: Dict[str, dict] = {}
        for family in self.families():
            children = []
            for key, child in family.children():
                labels = dict(key)
                if family.kind == "histogram":
                    pairs, sum_, count = child.exposition()  # type: ignore[attr-defined]
                    children.append(
                        {
                            "labels": labels,
                            "sum": sum_,
                            "count": count,
                            "buckets": [
                                ["+Inf" if math.isinf(le) else le, bucket]
                                for le, bucket in pairs
                            ],
                        }
                    )
                else:
                    children.append(
                        {"labels": labels, "value": child.value}  # type: ignore[attr-defined]
                    )
            out[family.name] = {
                "type": family.kind,
                "help": family.help_text,
                "children": children,
            }
        return out


class _NullMetric:
    """Absorbs every metric operation; shared by all disabled handles."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102
        pass

    def dec(self, amount: float = 1.0) -> None:  # noqa: D102
        pass

    def set(self, value: float) -> None:  # noqa: D102
        pass

    def observe(self, value: float) -> None:  # noqa: D102
        pass

    def observe_many(self, value: float, count: int) -> None:  # noqa: D102
        pass

    def reset(self) -> None:  # noqa: D102
        pass


NULL_METRIC = _NullMetric()


class _NullBank:
    """Write-absorbing :class:`CounterBank` stand-in for disabled mode.

    Hands out one shared cell whose fields exist and accept in-place
    adds; the writes go nowhere.  Shared across threads — the garbage
    sums are never read.
    """

    __slots__ = ("_cell",)

    def __init__(self, fields: Sequence[str]):
        cell_type = type(
            "_NullBankCell", (object,), {"__slots__": tuple(fields)}
        )
        cell = cell_type()
        for attr in fields:
            setattr(cell, attr, 0.0)
        self._cell = cell

    def cell(self):
        return self._cell


class NullRegistry:
    """Registry stand-in used while observability is disabled.

    Every lookup returns the shared :data:`NULL_METRIC`, so
    instrumentation can run unconditionally without allocating.
    """

    def __init__(self) -> None:
        self._banks: Dict[str, _NullBank] = {}

    def counter(self, name: str, help: str = "", **labels: object) -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels: object) -> _NullMetric:
        return NULL_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> _NullMetric:
        return NULL_METRIC

    def bind(
        self,
        kind: str,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Dict[str, object]] = None,
    ) -> _NullMetric:
        return NULL_METRIC

    def bank(
        self,
        name: str,
        fields: Dict[str, Tuple[str, str, str, Optional[Dict[str, object]]]],
    ) -> _NullBank:
        existing = self._banks.get(name)
        if existing is None:
            existing = self._banks[name] = _NullBank(tuple(fields))
        return existing

    def families(self) -> List[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None

    def reset(self) -> None:
        pass

    def merge(self, snapshot: Dict[str, dict]) -> None:
        pass

    def snapshot(self) -> Dict[str, dict]:
        return {}


NULL_REGISTRY = NullRegistry()
