"""Exporters: Prometheus text exposition, JSON snapshot, human report.

Three views over one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`to_prometheus` — the text exposition format scraped by
  Prometheus (version 0.0.4): ``# HELP``/``# TYPE`` headers, one
  sample per line, histograms as cumulative ``_bucket``/``_sum``/
  ``_count`` series;
* :func:`to_json` — a faithful machine-readable snapshot;
* :func:`format_report` — a one-screen summary for humans at the end
  of a CLI run.

:func:`parse_prometheus` parses the exposition back into samples; the
test suite round-trips through it, and it doubles as a tiny scrape
client for ad-hoc tooling.  :func:`registry_from_prometheus` goes one
step further and rebuilds a full :class:`MetricsRegistry` — histogram
``_bucket``/``_sum``/``_count`` series are reassembled into real
:class:`~repro.obs.metrics.Histogram` children, so a scraped worker
exposition can be :meth:`~repro.obs.metrics.MetricsRegistry.merge`\\ d
into another registry losslessly.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Mapping, Tuple

from repro.exceptions import ObservabilityError
from repro.obs.metrics import Histogram, LabelKey, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help_text:
            lines.append(f"# HELP {family.name} {family.help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, child in family.children():
            labels = dict(key)
            if family.kind == "histogram":
                assert isinstance(child, Histogram)
                # One locked read serves buckets, sum and count: reading
                # them as separate properties during concurrent writes
                # could publish a +Inf bucket disagreeing with _count.
                pairs, sum_, count = child.exposition()
                for upper, cumulative_count in pairs:
                    le = "+Inf" if math.isinf(upper) else _format_value(upper)
                    label_text = _format_labels(labels, extra=f'le="{le}"')
                    lines.append(
                        f"{family.name}_bucket{label_text} {cumulative_count}"
                    )
                label_text = _format_labels(labels)
                lines.append(
                    f"{family.name}_sum{label_text} {_format_value(sum_)}"
                )
                lines.append(f"{family.name}_count{label_text} {count}")
            else:
                label_text = _format_labels(labels)
                value = child.value  # type: ignore[attr-defined]
                lines.append(f"{family.name}{label_text} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(text: str) -> Dict[Tuple[str, LabelKey], float]:
    """Parse exposition text into ``{(name, label_key): value}``.

    Histogram series come back under their expanded names
    (``..._bucket`` with its ``le`` label, ``..._sum``, ``..._count``).
    Raises :class:`ObservabilityError` on a malformed sample line.
    """
    samples: Dict[Tuple[str, LabelKey], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"unparseable exposition line: {line!r}")
        label_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (name, _unescape_label_value(value))
                for name, value in _LABEL_PAIR_RE.findall(label_text)
            )
        )
        samples[(match.group("name"), labels)] = _parse_value(
            match.group("value")
        )
    return samples


_HEADER_RE = re.compile(
    r"^#\s+(?P<kind>HELP|TYPE)\s+(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\s+(?P<rest>.*))?$"
)

#: Histogram series suffixes in the exposition format.
_HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def registry_from_prometheus(text: str) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from exposition text.

    The inverse of :func:`to_prometheus`, using the ``# TYPE`` headers
    to reassemble histograms from their ``_bucket``/``_sum``/``_count``
    series (``parse_prometheus`` deliberately stays flat for
    line-level assertions).  Round-trips exactly:
    ``to_prometheus(registry_from_prometheus(doc)) == doc`` for any
    document produced by :func:`to_prometheus`.

    Raises :class:`ObservabilityError` on samples without a ``# TYPE``
    header (the type is what decides how series recombine), on
    non-monotone cumulative buckets, and on ``_count`` disagreeing
    with the ``+Inf`` bucket.
    """
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    scalars: List[Tuple[str, Dict[str, str], float]] = []
    hist_parts: Dict[Tuple[str, LabelKey], dict] = {}

    def _base_histogram(name: str) -> Tuple[str, str]:
        for suffix in _HIST_SUFFIXES:
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                return base, suffix
        return "", ""

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = _HEADER_RE.match(line)
            if header is None:
                continue  # a plain comment
            if header.group("kind") == "TYPE":
                types[header.group("name")] = (header.group("rest") or "").strip()
            else:
                helps[header.group("name")] = header.group("rest") or ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        label_text = match.group("labels") or ""
        labels = {
            lname: _unescape_label_value(lvalue)
            for lname, lvalue in _LABEL_PAIR_RE.findall(label_text)
        }
        value = _parse_value(match.group("value"))
        base, suffix = _base_histogram(name)
        if base:
            le = labels.pop("le", None) if suffix == "_bucket" else None
            key = (base, tuple(sorted(labels.items())))
            part = hist_parts.setdefault(
                key, {"labels": labels, "buckets": [], "sum": 0.0, "count": 0}
            )
            if suffix == "_bucket":
                if le is None:
                    raise ObservabilityError(
                        f"histogram bucket sample without le label: {line!r}"
                    )
                part["buckets"].append((_parse_value(le), int(value)))
            elif suffix == "_sum":
                part["sum"] = value
            else:
                part["count"] = int(value)
            continue
        kind = types.get(name)
        if kind is None:
            raise ObservabilityError(
                f"sample {name!r} has no # TYPE header; cannot rebuild"
            )
        scalars.append((name, labels, value))

    registry = MetricsRegistry()
    for name, labels, value in scalars:
        kind = types[name]
        if kind == "counter":
            registry.counter(name, helps.get(name, ""), **labels).inc(value)
        elif kind == "gauge":
            registry.gauge(name, helps.get(name, ""), **labels).set(value)
        else:
            raise ObservabilityError(
                f"metric {name!r} has unsupported type {kind!r}"
            )
    for (name, _), part in hist_parts.items():
        pairs = sorted(part["buckets"], key=lambda item: item[0])
        if not pairs or not math.isinf(pairs[-1][0]):
            raise ObservabilityError(
                f"histogram {name!r} exposition lacks a +Inf bucket"
            )
        snapshot_buckets = [
            ["+Inf" if math.isinf(le) else le, cum] for le, cum in pairs
        ]
        finite = tuple(le for le, _ in pairs if not math.isinf(le))
        registry.histogram(
            name,
            helps.get(name, ""),
            buckets=finite or None,
            **part["labels"],
        ).merge_cumulative(snapshot_buckets, part["sum"], part["count"])
    return registry


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """Render the registry as a JSON document (stable key order)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True) + "\n"


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels.items())
    return "{" + inner + "}"


def _human_count(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    if float(value) != int(value):
        return f"{value:.3g}"
    return _format_value(value)


def _human_seconds(value: float) -> str:
    if math.isnan(value):
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def format_report(registry: MetricsRegistry, title: str = "run report") -> str:
    """A one-screen human summary of every collected metric.

    Counters and gauges print as aligned name/value lines; histograms
    add count, mean, and coarse p50/p95/max estimates (bucket upper
    bounds).  Time-like histograms (name ending in ``_seconds``) are
    shown in human units.
    """
    rows: List[Tuple[str, str]] = []
    histogram_rows: List[Tuple[str, str]] = []
    for family in registry.families():
        for key, child in family.children():
            name = f"{family.name}{_label_suffix(dict(key))}"
            if family.kind == "histogram":
                assert isinstance(child, Histogram)
                count = child.count
                seconds = family.name.endswith("_seconds")
                fmt = _human_seconds if seconds else _human_count
                mean = child.sum / count if count else math.nan
                summary = (
                    f"n={count}  mean={fmt(mean)}  "
                    f"p50<={fmt(child.quantile(0.5))}  "
                    f"p95<={fmt(child.quantile(0.95))}"
                )
                histogram_rows.append((name, summary))
            else:
                rows.append((name, _human_count(child.value)))  # type: ignore[attr-defined]
    if not rows and not histogram_rows:
        return f"{title}: no metrics collected"
    width = max(len(name) for name, _ in rows + histogram_rows)
    lines = [title, "-" * max(len(title), 24)]
    lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
    lines += [f"{name.ljust(width)}  {value}" for name, value in histogram_rows]
    return "\n".join(lines)
