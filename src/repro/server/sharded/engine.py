"""The shard edge: what one shard does with frames and queries.

One :class:`ShardEngine` is the entire server-side state of one shard
— a :class:`~repro.server.central.CentralServer` (record store, join
cache, volume history), a
:class:`~repro.faults.transport.DeadLetterLog`, and optionally a
:class:`~repro.server.sharded.wal.ShardWriteAheadLog`.  It is
deliberately transport-agnostic: the in-process
:class:`~repro.server.sharded.coordinator.LocalShardBackend` calls it
directly, and the :mod:`~repro.server.sharded.worker` process wraps
the same object behind a socket — so a sharded query can be asserted
bit-for-bit against a single-process server because both run exactly
this code.

Frame handling mirrors the server edge of
:class:`~repro.faults.transport.UploadTransport`: checksum failures,
undecodable payloads and conflicting re-uploads are quarantined to the
dead-letter log (never raised), byte-identical duplicates are absorbed
idempotently, and an RFR2 frame's surviving trace context is activated
around ingest so record bindings attribute to the upload's trace.  A
new record's payload is appended to the write-ahead log before the
store sees it, so a record is acknowledged ``delivered`` only once it
is logged and a failed append leaves the retry deliverable: that is
what makes SIGKILL-then-replay lossless for acknowledged uploads.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.exceptions import (
    DataError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.faults.transport import DeadLetterLog, parse_frame
from repro.obs import runtime as obs
from repro.obs import trace as trace_mod
from repro.obs.spans import trace_span
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.degradation import CoveragePolicy
from repro.server.queries import PointPersistentQuery
from repro.server.sharded import wire
from repro.server.sharded.wal import ShardWriteAheadLog


def protocol_error(message: str) -> dict:
    """The typed reply to a query the server cannot act on."""
    return {"ok": False, "error": message, "error_kind": "protocol"}


def count_deadline(stage: str) -> None:
    """Count one request aborted because its deadline expired."""
    if obs.ACTIVE:
        obs.counter(
            "repro_deadline_exceeded_total",
            "Requests aborted because their deadline expired, by stage.",
            stage=stage,
        ).inc()


def _query_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"query field {field!r} must hold integers, got {value!r}"
        )
    return value


def query_field(payload: dict, field: str):
    """``payload[field]`` checked for shape, else :class:`ProtocolError`.

    ``location`` must be an integer; ``locations`` and ``periods`` must
    be lists of integers.
    """
    if field not in payload:
        raise ProtocolError(f"query lacks the {field!r} field")
    value = payload[field]
    if field == "location":
        return _query_int(value, field)
    if not isinstance(value, list):
        raise ProtocolError(
            f"query field {field!r} must be a list, got {value!r}"
        )
    return [_query_int(item, field) for item in value]


def policy_from_payload(payload: Optional[dict]) -> Optional[CoveragePolicy]:
    """Rebuild a coverage policy from its JSON form (None stays None).

    A policy that is not an object, or whose fields are not numbers,
    raises :class:`ProtocolError`; out-of-range numbers raise the
    policy's own :class:`~repro.exceptions.ConfigurationError`.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"query policy must be an object, got {payload!r}")
    min_coverage = payload.get("min_coverage", 0.5)
    if isinstance(min_coverage, bool) or not isinstance(
        min_coverage, (int, float)
    ):
        raise ProtocolError(
            f"policy min_coverage must be a number, got {min_coverage!r}"
        )
    return CoveragePolicy(
        min_coverage=min_coverage,
        min_periods=_query_int(payload.get("min_periods", 2), "min_periods"),
    )


def policy_to_payload(policy: Optional[CoveragePolicy]) -> Optional[dict]:
    """JSON form of a coverage policy (None stays None)."""
    if policy is None:
        return None
    return {
        "min_coverage": policy.min_coverage,
        "min_periods": policy.min_periods,
    }


class ShardEngine:
    """One shard's stores, quarantine and write-ahead log."""

    def __init__(
        self,
        shard_id: int,
        server: Optional[CentralServer] = None,
        wal: Optional[ShardWriteAheadLog] = None,
        dead_letter_path=None,
        s: int = 3,
        load_factor: float = 2.0,
    ):
        self.shard_id = int(shard_id)
        self.server = (
            server
            if server is not None
            else CentralServer(s=s, load_factor=load_factor)
        )
        self.wal = wal
        self.dead_letters = DeadLetterLog(dead_letter_path)
        #: Seconds the worker spent in WAL replay and archive load
        #: before serving (None for an engine no worker recovered).
        self.recover_seconds: Optional[float] = None
        self._uploads = obs.LazyCounter(
            "repro_shard_uploads_total",
            "Upload frames handled at a shard edge, by outcome.",
            "outcome",
            shard=str(self.shard_id),
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _quarantine(self, reason: str, frame: bytes, context=None) -> dict:
        self.dead_letters.append(reason, frame, attempts=1, context=context)
        self._uploads.inc("quarantined")
        return {"outcome": "quarantined", "reason": reason}

    def handle_frame(self, frame: bytes) -> dict:
        """Ingest one RFR1/RFR2 frame; returns the JSON-safe ack.

        Never raises for in-flight damage — the ack (and the shard's
        dead-letter log) reports what happened.
        """
        try:
            payload, checksum_ok, context = parse_frame(frame)
        except TransportError:
            return self._quarantine("malformed", frame)
        token = None
        if context is not None and obs.tracing():
            token = trace_mod.activate(context)
        try:
            if token is None:
                return self._ingest_parsed(
                    frame, payload, checksum_ok, context
                )
            # A shard-process span under the upload's surviving trace
            # context: once shipped to the front door it renders in the
            # same tree as the client/front-door spans.  Gated on an
            # activated context so context-less RFR1 frames never open
            # one root trace per frame.
            with trace_span("shard.ingest", shard=str(self.shard_id)):
                return self._ingest_parsed(
                    frame, payload, checksum_ok, context
                )
        finally:
            if token is not None:
                trace_mod.restore(token)

    def _ingest_parsed(
        self, frame: bytes, payload: bytes, checksum_ok: bool, context
    ) -> dict:
        if not checksum_ok:
            return self._quarantine("checksum", frame, context)
        try:
            record = TrafficRecord.from_payload(payload)
        except ReproError:
            return self._quarantine("undecodable", frame, context)
        if self.wal is not None and (
            self.server.store.get(record.location, record.period) is None
        ):
            # Log before memory: once the store holds the cell, a retry
            # is acked ``duplicate``, so a record that reached memory
            # but not the log would be acknowledged and then lost on
            # restart.  Duplicates and conflicts log nothing.
            if trace_mod.current() is not None:
                # Only under an activated upload context — a WAL span
                # with no parent would start a fresh root trace per
                # context-less RFR1 frame.
                with trace_span(
                    "shard.wal_append", shard=str(self.shard_id)
                ):
                    self.wal.append(payload)
            else:
                self.wal.append(payload)
        try:
            added = self.server.receive_record(record)
        except DataError:
            return self._quarantine("conflict", frame, context)
        if not added:
            self._uploads.inc("duplicate")
            return {
                "outcome": "duplicate",
                "reason": "byte-identical re-upload",
            }
        self._uploads.inc("delivered")
        return {"outcome": "delivered", "reason": ""}

    def handle_batch(
        self,
        frames: Sequence[bytes],
        deadline: Optional[wire.Deadline] = None,
    ) -> dict:
        """Ingest many frames; returns summed outcome counts.

        With a ``deadline``, the budget is re-checked *between* frames:
        frames the budget never reached come back counted ``aborted``
        (never half-ingested — each frame is WAL-then-ack atomic), so
        the sender knows exactly which tail to retry.
        """
        counts = {"delivered": 0, "duplicate": 0, "quarantined": 0}
        for index, frame in enumerate(frames):
            if deadline is not None and deadline.expired:
                count_deadline("shard")
                counts["aborted"] = len(frames) - index
                break
            counts[self.handle_frame(frame)["outcome"]] += 1
        return counts

    # ------------------------------------------------------------------
    # Queries (real objects — the socket layer JSON-wraps these)
    # ------------------------------------------------------------------

    def point_persistent(
        self,
        locations: Sequence[int],
        periods: Sequence[int],
        policy: Optional[CoveragePolicy] = None,
        deadline: Optional[wire.Deadline] = None,
    ) -> list:
        """Eq. 12 on this shard's records for each location, in order.

        Each entry is the server's answer for its location or the
        :class:`~repro.exceptions.ReproError` it raised (coverage
        floor, missing data), so a refused location costs its
        neighbours nothing.  With a ``deadline``, the budget is checked
        before each location: once it has run out, every location not
        yet started gets a
        :class:`~repro.exceptions.DeadlineExceededError` entry, and the
        abort counts once at ``stage="shard"``.
        """
        periods = tuple(periods)
        outcomes: list = []
        for location in locations:
            if deadline is not None and deadline.expired:
                count_deadline("shard")
                outcomes.extend(
                    DeadlineExceededError(
                        f"deadline expired before shard {self.shard_id} "
                        f"could answer location {late}"
                    )
                    for late in locations[len(outcomes):]
                )
                break
            try:
                query = PointPersistentQuery(
                    location=int(location), periods=periods
                )
                outcomes.append(
                    self.server.point_persistent(query, policy=policy)
                )
            except ReproError as exc:
                outcomes.append(exc)
        return outcomes

    def observed(self, context, explain: bool, call):
        """``call()`` under a caller's trace and/or explain timing.

        With a :class:`~repro.obs.trace.TraceContext`, the call runs in
        one ``shard.query`` span parented to the caller's fan-out span.
        Returns ``(result, detail)``; with ``explain``, ``detail`` holds
        the engine latency and the join cache's hit and lookup deltas,
        else it is None.  The deltas subtract the cache's running
        totals, which every query on this shard shares, so a query
        running concurrently on the same shard counts in them too.
        """
        token = trace_mod.activate(context) if context is not None else None
        cache = getattr(self.server, "cache", None)
        # ``cache.stats`` is the live running-total object, so the
        # before-side must copy the scalars, not hold the reference.
        hits_before = cache.stats.hits if cache is not None else 0
        lookups_before = cache.stats.lookups if cache is not None else 0
        started = time.perf_counter()
        try:
            if context is not None:
                with trace_span(
                    "shard.query",
                    shard=str(self.shard_id),
                    kind="point_persistent",
                ):
                    result = call()
            else:
                result = call()
        finally:
            if token is not None:
                trace_mod.restore(token)
        if not explain:
            return result, None
        detail = {
            "shard": self.shard_id,
            "engine_seconds": time.perf_counter() - started,
        }
        if cache is not None:
            detail["cache_hits"] = cache.stats.hits - hits_before
            detail["cache_lookups"] = cache.stats.lookups - lookups_before
        return result, detail

    # ------------------------------------------------------------------
    # JSON boundary (shared by the worker process)
    # ------------------------------------------------------------------

    def handle_query(
        self,
        payload: dict,
        deadline: Optional[wire.Deadline] = None,
    ) -> dict:
        """Answer one JSON query; errors come back as typed payloads.

        ``multi_point_persistent`` answers Eq. 12 for all of its
        ``locations`` in one reply, ``{"ok": true, "results": [...]}``:
        one :func:`~repro.server.sharded.wire.encode_outcome` entry per
        location, in request order, each an answer or a typed
        ``coverage``, ``data`` or ``deadline`` error that uncovers that
        location only.  The ``deadline`` is checked between locations.

        A ``"trace"`` field (24 hex chars, the serialized fan-out span
        context) is activated around the query so the shard-side span
        joins the caller's trace once shipped; ``"explain": true`` adds
        an ``explain`` breakdown (engine latency, cache hit/miss delta)
        to the reply.  A payload that is not a JSON object, or lacks or
        mistypes a field its kind needs, gets a ``protocol`` error.
        """
        if not isinstance(payload, dict):
            return protocol_error("a query must be a JSON object")
        kind = payload.get("kind")
        context = None
        if obs.tracing():
            raw = payload.get("trace")
            if isinstance(raw, str):
                context = trace_mod.TraceContext.from_bytes(
                    raw.encode("ascii", "replace")
                )
        explain = bool(payload.get("explain"))
        if not explain and context is None:
            return self._answer_query(payload, kind, deadline)
        reply, detail = self.observed(
            context,
            explain,
            lambda: self._answer_query(payload, kind, deadline),
        )
        if detail is not None:
            reply["explain"] = detail
        return reply

    def _answer_query(self, payload: dict, kind, deadline) -> dict:
        try:
            if kind == "multi_point_persistent":
                outcomes = self.point_persistent(
                    query_field(payload, "locations"),
                    query_field(payload, "periods"),
                    policy_from_payload(payload.get("policy")),
                    deadline,
                )
                return {
                    "ok": True,
                    "results": [wire.encode_outcome(o) for o in outcomes],
                }
        except ReproError as exc:
            return wire.error_reply(exc)
        return protocol_error(f"unknown query kind {kind!r}")

    def stats(self) -> dict:
        """JSON-safe health/metric snapshot of this shard.

        When the worker runs a telemetry-exporting trace buffer, the
        pending spans piggy-back on the reply under ``"telemetry"``:
        every stats pull drains them, and each span ships exactly once.
        """
        payload = {
            "shard": self.shard_id,
            "records": len(self.server.store),
            "locations": sorted(self.server.store.locations()),
            "dead_letters": len(self.dead_letters),
            "wal_entries": (
                self.wal.entries_written if self.wal is not None else 0
            ),
            "recover_seconds": self.recover_seconds,
            "metrics": {},
        }
        # Drain *before* snapshotting: the drain bumps the shipped/
        # dropped counters, and the reply that carries the spans should
        # also account them — otherwise a scrape is always one pull
        # behind its own telemetry.
        drain = getattr(obs.trace_buffer(), "drain", None)
        if drain is not None:
            payload["telemetry"] = drain()
        if obs.enabled():
            payload["metrics"] = obs.registry().snapshot()
        return payload
