"""Per-layer metrics and the layer-budget check of a traced run.

Every op's round trip is split into the self times of the layers on
its blocking path plus a gap (time no wrapped call covers: sockets,
scheduling, JSON framing outside the wrapped calls)::

    upload:  send = to_payload + frame + frontdoor.upload + route
                    + engine.frame + parse + from_payload + receive
                    + wal.append + upload.gap
    query:   query = frontdoor.query + fanout + sum over the critical
                     shard calls of (engine.query + central.query
                     + split_and_join + estimate) + query.gap

On a fan-out the two shard groups run in parallel; the blocking path
is the group that finishes last, and ``fanout`` is the fan-out's
duration minus that group's shard calls.  A negative gap would mean a
layer was counted twice, so it fails the run.  Metrics of a layer the
workload never calls read 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

import numpy as np

import spans as S
from spans import END, KEY, SELF, START, TID, VALUE

UNITS = {
    "rsu.record.to_payload_ms": "ms",
    "faults.transport.frame_ms": "ms",
    "faults.transport.retries_per_upload": "count",
    "server.sharded.client.upload_rtt_ms": "ms",
    "server.sharded.wire.upload_bytes": "B",
    "server.sharded.frontdoor.upload_ms": "ms",
    "server.sharded.coordinator.route_ms": "ms",
    "server.sharded.frontdoor.shard_upload_rtt_ms": "ms",
    "server.sharded.engine.frame_ms": "ms",
    "faults.transport.parse_ms": "ms",
    "rsu.record.from_payload_ms": "ms",
    "server.central.receive_ms": "ms",
    "server.sharded.wal.append_ms": "ms",
    "server.sharded.wal.bytes_per_record": "B",
    "upload.gap_ms": "ms",
    "server.sharded.client.query_rtt_ms": "ms",
    "server.sharded.wire.query_bytes": "B",
    "server.sharded.frontdoor.query_ms": "ms",
    "server.sharded.coordinator.fanout_ms": "ms",
    "server.sharded.coordinator.shard_calls_per_query": "count",
    "server.sharded.frontdoor.shard_query_rtt_ms": "ms",
    "server.sharded.engine.query_ms": "ms",
    "server.central.query_ms": "ms",
    "server.cache.hit_ratio": "ratio",
    "sketch.join.split_join_ms": "ms",
    "core.point.estimate_ms": "ms",
    "query.gap_ms": "ms",
    "server.sharded.service.start_s": "s",
    "server.sharded.worker.recover_s": "s",
    "server.sharded.wal.replay_s": "s",
    "start.gap_s": "s",
    "server.store.resident_mb": "MB",
}

#: Upload layers on the blocking path: metric -> (span, process role).
UPLOAD_SELF = {
    "rsu.record.to_payload_ms": ("rsu.record.to_payload", "driver"),
    "faults.transport.frame_ms": ("faults.transport.frame", "driver"),
    "server.sharded.frontdoor.upload_ms": ("server.sharded.frontdoor.dispatch", "frontdoor"),
    "server.sharded.coordinator.route_ms": ("server.sharded.coordinator.ingest_frame", "frontdoor"),
    "server.sharded.engine.frame_ms": ("server.sharded.engine.handle_frame", "shard"),
    "faults.transport.parse_ms": ("faults.transport.parse", "shard"),
    "rsu.record.from_payload_ms": ("rsu.record.from_payload", "shard"),
    "server.central.receive_ms": ("server.central.receive_record", "shard"),
    "server.sharded.wal.append_ms": ("server.sharded.wal.append", "shard"),
}
#: Shard-side query layers, summed over the blocking path's shard calls.
QUERY_SHARD_SELF = {
    "server.sharded.engine.query_ms": "server.sharded.engine.handle_query",
    "server.central.query_ms": "server.central.point_persistent",
    "sketch.join.split_join_ms": "sketch.join.split_and_join",
    "core.point.estimate_ms": "core.point.estimate_from_split",
}
NS_PER_MS = 1e6


def _dur(rows: np.ndarray) -> np.ndarray:
    return rows[:, END] - rows[:, START]


def _within(ops: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of the op (sorted by start, non-overlapping) holding each row; -1 if none."""
    index = np.searchsorted(ops[:, START], rows[:, START], side="right") - 1
    ok = index >= 0
    ok[ok] &= rows[ok, END] <= ops[index[ok], END]
    return np.where(ok, index, -1)


def _clipped_self(ops: np.ndarray, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Self time of each row minus any part after its op's round trip ended.

    The front door's dispatch span ends after it has sent the reply; if
    its thread then waits for the GIL, the wait is not on the op's path.
    """
    end = np.where(index >= 0, ops[np.maximum(index, 0), END], rows[:, END])
    overhang = np.maximum(rows[:, END] - end, 0)
    return np.maximum(rows[:, SELF] - overhang, 0).astype(float)


def _per_op(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    ok = index >= 0
    return np.bincount(index[ok], weights=weights[ok], minlength=n)


def _wire_bytes(driver: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Bytes sent plus received on each op's client socket."""
    wire = driver[np.isin(driver[:, S.NAME],
                          (S.ID["server.sharded.wire.sent"],
                           S.ID["server.sharded.wire.received"]))]
    out = np.zeros(len(ops))
    for tid in np.unique(ops[:, TID]):
        mine = np.flatnonzero(ops[:, TID] == tid)
        theirs = wire[wire[:, TID] == tid]
        order = mine[np.argsort(ops[mine, START])]
        index = _within(ops[order], theirs)
        out[order] += _per_op(index, theirs[:, VALUE].astype(float), len(order))
    return out


class Budget:
    """Collects metrics and budget problems of one traced run."""

    def __init__(self):
        self.metrics: Dict[str, float] = dict.fromkeys(UNITS, 0.0)
        self.problems: List[str] = []

    def gap(self, name: str, rtt: np.ndarray, parts: np.ndarray,
            terms: Dict[str, np.ndarray]) -> None:
        gap = rtt - parts
        self.metrics[name] = float(gap.mean()) / NS_PER_MS
        worst = int(np.argmin(gap))
        print(f"budget {name}: round trip {rtt.mean() / NS_PER_MS:.4f} ms = layers "
              f"{parts.mean() / NS_PER_MS:.4f} ms + gap {gap.mean() / NS_PER_MS:.4f} ms "
              f"over {len(rtt)} ops; smallest gap {gap[worst] / NS_PER_MS:.4f} ms")
        if gap[worst] < 0:
            detail = ", ".join(f"{k} {v[worst] / NS_PER_MS:.4f}" for k, v in terms.items())
            self.problems.append(
                f"{name}: op {worst} has a negative gap: round trip "
                f"{rtt[worst] / NS_PER_MS:.4f} ms < layers ({detail}); "
                "a layer was counted twice")


def _uploads(b: Budget, driver, tier, ops) -> None:
    from repro.server.sharded import wire

    n = len(ops)
    order = np.argsort(ops[:, KEY])
    keys = ops[order, KEY]

    def match(rows):
        index = np.searchsorted(keys, rows[:, KEY])
        index[index >= n] = 0
        return np.where(keys[index] == rows[:, KEY], order[index], -1)

    rows_of = {
        "driver": driver,
        "frontdoor": tier.get("frontdoor", np.empty((0, S.FIELDS), np.int64)),
        "shard": np.concatenate([tier[r] for r in tier if r.startswith("shard")]
                                or [np.empty((0, S.FIELDS), np.int64)]),
    }
    parts = np.zeros(n)
    terms: Dict[str, np.ndarray] = {}
    for metric, (span, role) in UPLOAD_SELF.items():
        rows = S.named(rows_of[role], span)
        if span == "server.sharded.frontdoor.dispatch":
            rows = rows[rows[:, VALUE] == wire.MSG_UPLOAD]
        index = match(rows)
        seen = np.bincount(index[index >= 0], minlength=n)
        if (seen == 0).any():
            b.problems.append(f"{metric}: {int((seen == 0).sum())} of {n} uploads "
                              "have no span")
        self_ns = _per_op(index, _clipped_self(ops, index, rows), n)
        terms[metric] = self_ns
        parts += self_ns
        b.metrics[metric] = float(self_ns.mean()) / NS_PER_MS
    for metric, span, role in (
        ("server.sharded.client.upload_rtt_ms", "server.sharded.client.upload", "driver"),
        ("server.sharded.frontdoor.shard_upload_rtt_ms",
         "server.sharded.frontdoor.deliver_frame", "frontdoor"),
    ):
        rows = S.named(rows_of[role], span)
        rows = rows[match(rows) >= 0]
        b.metrics[metric] = float(_dur(rows).mean()) / NS_PER_MS if len(rows) else 0.0
    wal = S.named(rows_of["shard"], "server.sharded.wal.append")
    wal = wal[match(wal) >= 0]
    b.metrics["server.sharded.wal.bytes_per_record"] = float(wal[:, VALUE].mean())
    b.metrics["faults.transport.retries_per_upload"] = float(ops[:, VALUE].mean())
    b.metrics["server.sharded.wire.upload_bytes"] = float(_wire_bytes(driver, ops).mean())
    b.gap("upload.gap_ms", _dur(ops).astype(float), parts, terms)


def _queries(b: Budget, driver, tier, ops) -> None:
    from repro.server.sharded import wire

    ops = ops[np.argsort(ops[:, START])]
    n = len(ops)
    front = tier.get("frontdoor", np.empty((0, S.FIELDS), np.int64))
    dispatch = S.named(front, "server.sharded.frontdoor.dispatch")
    dispatch = dispatch[dispatch[:, VALUE] == wire.MSG_QUERY]
    index = np.searchsorted(ops[:, START], dispatch[:, START], side="right") - 1
    index[(index >= 0) & (dispatch[:, START] > ops[np.maximum(index, 0), END])] = -1
    parts = _per_op(index, _clipped_self(ops, index, dispatch), n)
    terms = {"server.sharded.frontdoor.query_ms": parts.copy()}
    b.metrics["server.sharded.frontdoor.query_ms"] = float(parts.mean()) / NS_PER_MS

    calls = S.named(front, "server.sharded.frontdoor.point_persistent")
    calls = calls[np.argsort(calls[:, START])]
    call_op = _within(ops, calls)
    calls, call_op = calls[call_op >= 0], call_op[call_op >= 0]
    b.metrics["server.sharded.coordinator.shard_calls_per_query"] = len(calls) / n
    if len(calls):
        b.metrics["server.sharded.frontdoor.shard_query_rtt_ms"] = (
            float(_dur(calls).mean()) / NS_PER_MS)

    # Shard-side self time of each call, from the shard that served it.
    call_self = {metric: np.zeros(len(calls)) for metric in QUERY_SHARD_SELF}
    lookups = misses = 0
    miss_ns: List[np.ndarray] = []
    for role, rows in tier.items():
        if not role.startswith("shard"):
            continue
        mine = np.flatnonzero(calls[:, VALUE] == int(role[len("shard"):]))
        for metric, span in QUERY_SHARD_SELF.items():
            named = S.named(rows, span)
            index = _within(calls[mine], named)
            call_self[metric][mine] += _per_op(index, named[:, SELF].astype(float), len(mine))
            if span == "sketch.join.split_and_join":
                misses += int((index >= 0).sum())
                miss_ns.append(_dur(named[index >= 0]))
        counted = S.named(rows, "server.cache.split_join")
        lookups += int((_within(calls[mine], counted) >= 0).sum())
    if lookups:
        b.metrics["server.cache.hit_ratio"] = (lookups - misses) / lookups
    if misses:
        b.metrics["sketch.join.split_join_ms"] = (
            float(np.concatenate(miss_ns).mean()) / NS_PER_MS)

    # The blocking path: the calls of the thread whose last call ends last.
    critical = np.zeros(len(calls), dtype=bool)
    for op in np.unique(call_op):
        mine = np.flatnonzero(call_op == op)
        last = mine[np.argmax(calls[mine, END])]
        critical[mine[calls[mine, TID] == calls[last, TID]]] = True
    fanout = S.named(front, "server.sharded.coordinator.multi_point_persistent")
    fan_op = _within(ops, fanout)
    crit_calls = _per_op(call_op, np.where(critical, _dur(calls), 0).astype(float), n)
    fan = _per_op(fan_op, _dur(fanout).astype(float), n)
    has_fan = _per_op(fan_op, np.ones(len(fanout)), n) > 0
    fan_self = np.where(has_fan, fan - crit_calls, 0.0)
    b.metrics["server.sharded.coordinator.fanout_ms"] = float(fan_self.mean()) / NS_PER_MS
    terms["server.sharded.coordinator.fanout_ms"] = fan_self
    parts += fan_self
    for metric, per_call in call_self.items():
        per_op = _per_op(call_op, np.where(critical, per_call, 0.0), n)
        terms[metric] = per_op
        parts += per_op
        if metric != "sketch.join.split_join_ms":
            b.metrics[metric] = float(per_op.mean()) / NS_PER_MS
    b.metrics["server.sharded.client.query_rtt_ms"] = float(_dur(ops).mean()) / NS_PER_MS
    b.metrics["server.sharded.wire.query_bytes"] = float(_wire_bytes(driver, ops).mean())
    b.gap("query.gap_ms", _dur(ops).astype(float), parts, terms)


def _longest(rows: Dict[str, np.ndarray], span: str, roles) -> float:
    """Seconds of the slowest ``span`` among the given processes."""
    found = [_dur(S.named(r, span)).max() for role, r in rows.items()
             if role.startswith(roles) and len(S.named(r, span))]
    return max(found) / 1e9 if found else 0.0


def analyse(run) -> dict:
    """Per-layer metrics of a traced run, with the layer-budget check."""
    b = Budget()
    driver = S.driver_rows()
    dumps = {tier.name: S.load(tier.span_dir) for tier in run.tiers}
    main = dumps[run.main_tier.name]
    for role in ("frontdoor", "shard0", "shard1"):
        if role not in main:
            b.problems.append(f"no spans from the {role} process of the timed tier")
    in_window = (driver[:, START] >= run.t0) & (driver[:, END] <= run.t1)
    uploads = S.named(driver[in_window], "faults.transport.send")
    queries = S.named(driver[in_window], "server.sharded.client.query")
    if len(uploads):
        _uploads(b, driver, main, uploads)
    if len(queries):
        _queries(b, driver, main, queries)

    starts, gaps = [], []
    for index, ready in enumerate(run.info["ready_samples"]):
        start = _longest(dumps.get(f"setup{index}", {}),
                         "server.sharded.service.start", "frontdoor")
        starts.append(start)
        gaps.append(ready - start)
    b.metrics["server.sharded.service.start_s"] = statistics.median(starts)
    b.metrics["start.gap_s"] = statistics.median(gaps)
    restart = dumps.get("restart", {})
    b.metrics["server.sharded.worker.recover_s"] = _longest(
        restart, "server.sharded.worker.recover_engine", "shard")
    b.metrics["server.sharded.wal.replay_s"] = _longest(
        restart, "server.sharded.wal.replay_into_archive", "shard")
    b.metrics["server.store.resident_mb"] = run.info["resident_mb"]
    for problem in b.problems:
        print(f"LAYER BUDGET FAILED: {problem}")
    return {"ok": not b.problems, "metrics": b.metrics}


def print_overhead(results: Path, workload: str, traced: Dict[str, float]) -> None:
    """Traced end-to-end figures against the median of untraced results."""
    untraced: Dict[str, List[float]] = {}
    for path in results.glob(f"{workload}-s*-t0-*.json"):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for name, value in record.get("end_to_end", {}).items():
            untraced.setdefault(name, []).append(value)
    if not untraced:
        print("tracing overhead: no untraced results of this workload on record")
        return
    for name, value in traced.items():
        values = untraced.get(name)
        if not values:
            continue
        base = statistics.median(values)
        change = (value - base) / base * 100 if base else float("nan")
        print(f"tracing overhead {name}: traced {value:.6g} vs untraced median "
              f"{base:.6g} (n={len(values)}): {change:+.1f}%")
