"""The accepting tier: a thread-pool TCP front door over N shards.

Vehicles (or the simulator's transport) connect *here*; the front door
routes each upload frame to its owning shard over a pooled worker
connection, fans queries out, and merges the per-shard answers.  Every
client connection gets its own handler thread (the thread pool), and
every handler thread borrows per-shard connections from a small pool
so concurrent clients do not serialize on one worker socket.

Under tracing, an RFR2 upload's surviving trace context is activated
around routing and a ``server.shard`` span (labelled with the owning
shard) is opened inside it, so an upload's journey — vehicle, RSU,
transport, front door, shard — reads as one trace.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ReproError, TransportError, WireProtocolError
from repro.faults.transport import parse_frame
from repro.obs import runtime as obs
from repro.obs import trace as trace_mod
from repro.obs.spans import span
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.sharded import wire
from repro.server.sharded.breaker import CircuitBreaker
from repro.server.sharded.client import ShardClient
from repro.server.sharded.coordinator import (
    ShardDownError,
    ShardedCoordinator,
)
from repro.server.sharded.engine import (
    policy_from_payload,
    policy_to_payload,
    protocol_error,
    query_field,
)
from repro.server.sharded.merge import LocationOutcome, ShardedQueryResult

logger = logging.getLogger("repro.server.sharded")


class RemoteShardBackend:
    """Coordinator backend that forwards calls to a shard worker.

    Keeps a small LIFO pool of persistent connections; each borrowing
    thread gets exclusive use of one, and connections that die are
    discarded rather than returned.  Connection failures surface as
    :class:`~repro.server.sharded.coordinator.ShardDownError`, which
    is exactly the signal the coordinator degrades on.

    Every call passes through a per-shard
    :class:`~repro.server.sharded.breaker.CircuitBreaker`: after
    ``breaker_failures`` consecutive connection-level failures the
    backend fails calls locally (no connect-timeout tax) until a
    half-open probe finds the worker answering again.
    """

    def __init__(
        self,
        shard_id: int,
        host: str,
        port: int,
        timeout: float = 10.0,
        pool_size: int = 4,
        breaker_failures: int = 5,
        breaker_reset: float = 2.0,
    ):
        self.shard_id = int(shard_id)
        self._host = host
        self._port = int(port)
        self._timeout = timeout
        self._pool_size = int(pool_size)
        self._idle: List[ShardClient] = []
        self._lock = threading.Lock()
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failures,
            reset_timeout=breaker_reset,
            name=str(self.shard_id),
        )

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    @property
    def timeout(self) -> float:
        return self._timeout

    @contextmanager
    def _client(self):
        if not self.breaker.allow():
            raise ShardDownError(
                f"shard {self.shard_id} circuit breaker is open "
                f"({self.breaker.consecutive_failures} consecutive "
                "failures)"
            )
        with self._lock:
            client = self._idle.pop() if self._idle else None
        if client is None:
            client = ShardClient(self._host, self._port, timeout=self._timeout)
        try:
            yield client
        except ShardDownError:
            self.breaker.record_failure()
            client.close()
            raise
        except BaseException:
            # Typed remote errors (coverage, data, deadline) mean the
            # worker answered; that is breaker success, but the
            # connection state is unknown enough to discard.
            self.breaker.record_success()
            client.close()
            raise
        self.breaker.record_success()
        with self._lock:
            if len(self._idle) < self._pool_size:
                self._idle.append(client)
                client = None
        if client is not None:
            client.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    # ------------------------------------------------------------------
    # Backend duck type
    # ------------------------------------------------------------------

    def deliver_frame(
        self, frame: bytes, deadline: Optional[wire.Deadline] = None
    ) -> dict:
        with self._client() as client:
            return client.upload(frame, deadline=deadline)

    def deliver_batch(
        self,
        frames: Sequence[bytes],
        deadline: Optional[wire.Deadline] = None,
    ) -> dict:
        with self._client() as client:
            return client.upload_batch(frames, deadline=deadline)

    def point_persistent(
        self,
        locations: Sequence[int],
        periods: Sequence[int],
        policy: Optional[CoveragePolicy],
        deadline: Optional[wire.Deadline] = None,
        trace=None,
        explain: Optional[dict] = None,
    ) -> list:
        """Every location's outcome from one remote request.

        Returns one entry per location, in order: the answer, or the
        typed error (coverage, data, deadline) that refused that
        location alone.  ``trace`` (a
        :class:`~repro.obs.trace.TraceContext`) rides the JSON payload
        so the worker parents its query span to the caller's fan-out
        span; ``explain`` is an out-parameter dict filled with the
        worker's breakdown plus this side's measured round trip.
        """
        payload = {
            "kind": "multi_point_persistent",
            "locations": [int(location) for location in locations],
            "periods": [int(p) for p in periods],
            "policy": policy_to_payload(policy),
        }
        if trace is not None:
            payload["trace"] = trace.to_bytes().decode("ascii")
        if explain is not None:
            payload["explain"] = True
        started = time.perf_counter()
        with self._client() as client:
            reply = client.query(payload, deadline=deadline)
        if explain is not None:
            round_trip = time.perf_counter() - started
            detail = reply.get("explain") or {}
            explain.update(detail)
            explain["round_trip_seconds"] = round_trip
            # Wire cost = round trip minus the worker's engine time.
            explain["wire_seconds"] = max(
                0.0, round_trip - float(detail.get("engine_seconds", 0.0))
            )
        if not reply.get("ok"):
            raise wire.remote_error(reply)
        results = reply.get("results")
        if not isinstance(results, list) or len(results) != len(locations):
            raise TransportError(
                f"shard {self.shard_id} sent a malformed reply to a "
                f"{len(locations)}-location query"
            )
        return [wire.decode_outcome(entry) for entry in results]

    def covered_periods(self, location: int, periods: Sequence[int]):
        payload = {
            "kind": "covered_periods",
            "location": int(location),
            "periods": list(int(p) for p in periods),
        }
        with self._client() as client:
            reply = client.query(payload)
        if not reply.get("ok"):
            raise wire.remote_error(reply)
        return tuple(reply["result"])

    def stats(self) -> dict:
        with self._client() as client:
            return client.stats()

    def telemetry(self) -> dict:
        """Drain the worker's buffered spans/bindings (``MSG_TELEMETRY``)."""
        with self._client() as client:
            return client.telemetry()

    def ping(self, timeout: Optional[float] = None) -> bool:
        """One throwaway-connection health probe; never raises.

        Bypasses the pool (and deliberately *not* the breaker's
        accounting: a successful probe is exactly the evidence that
        should close a half-open circuit).
        """
        client = ShardClient(
            self._host,
            self._port,
            timeout=self._timeout if timeout is None else timeout,
            reconnect_attempts=0,
        )
        try:
            alive = client.ping()
        finally:
            client.close()
        if alive:
            self.breaker.record_success()
        return alive

    def shutdown(self) -> None:
        """Gracefully stop the remote worker (best effort)."""
        try:
            with self._client() as client:
                client.shutdown()
        except (TransportError, OSError):
            pass


# ----------------------------------------------------------------------
# Sharded result serialization (front door <-> remote querying clients)
# ----------------------------------------------------------------------


def _encode_outcome_result(result, periods: Tuple[int, ...]):
    """One answered location: its bare estimate when fully covered."""
    if result is None:
        return None
    coverage = result.coverage
    if coverage.requested == periods and coverage.covered == periods:
        return wire.encode_estimate(result.value)
    return wire.encode_degraded(result)


def _decode_outcome_result(entry, periods: Tuple[int, ...]):
    """Inverse of :func:`_encode_outcome_result`."""
    if entry is None:
        return None
    if entry.get("type") == "degraded":
        return wire.decode_degraded(entry)
    return DegradedResult(
        value=wire.decode_estimate(entry),
        coverage=CoverageReport(requested=periods, covered=periods),
    )


def encode_sharded_result(result: ShardedQueryResult) -> dict:
    """JSON form of a merged multi-location answer.

    A location covered over every requested period is sent as its bare
    estimate: its coverage lists would only repeat
    ``requested_periods``, which :func:`decode_sharded_result` restores
    them from.  Degraded locations keep both lists.
    """
    periods = result.requested_periods
    outcomes = []
    for outcome in result.outcomes:
        outcomes.append(
            {
                "location": outcome.location,
                "shard": outcome.shard,
                "error": outcome.error,
                "result": _encode_outcome_result(outcome.result, periods),
            }
        )
    payload = {
        "type": "sharded",
        "requested_periods": list(result.requested_periods),
        "outcomes": outcomes,
    }
    if result.explain is not None:
        payload["explain"] = result.explain
    return payload


def decode_sharded_result(payload: dict) -> ShardedQueryResult:
    """Inverse of :func:`encode_sharded_result`."""
    periods = tuple(payload["requested_periods"])
    outcomes = tuple(
        LocationOutcome(
            location=entry["location"],
            shard=entry["shard"],
            result=_decode_outcome_result(entry.get("result"), periods),
            error=entry.get("error", ""),
        )
        for entry in payload["outcomes"]
    )
    return ShardedQueryResult(
        outcomes=outcomes,
        requested_periods=periods,
        explain=payload.get("explain"),
    )


# ----------------------------------------------------------------------
# The front door server
# ----------------------------------------------------------------------


def _count_wire_error(endpoint: str) -> None:
    if obs.ACTIVE:
        obs.counter(
            "repro_wire_errors_total",
            "Connections dropped for structural wire-protocol damage.",
            endpoint=endpoint,
        ).inc()


class _FrontDoorHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # noqa: D102 - socketserver contract
        door: "FrontDoor" = self.server.door
        while True:
            try:
                message = wire.recv_message(self.request)
            except WireProtocolError:
                _count_wire_error("front_door")
                return
            except (TransportError, OSError):
                return
            if message is None:
                return
            msg_type, body = message
            try:
                if not door.dispatch(self.request, msg_type, body):
                    return
            except WireProtocolError:
                # A structurally damaged request (bad deadline envelope,
                # torn batch table, garbage JSON) leaves the stream's
                # framing untrustworthy: drop the connection, no reply.
                _count_wire_error("front_door")
                return
            except (TransportError, OSError) as exc:
                try:
                    wire.send_json(
                        self.request, wire.MSG_ERROR, {"error": str(exc)}
                    )
                except OSError:
                    pass
                return


class _FrontDoorServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, door: "FrontDoor"):
        super().__init__(address, _FrontDoorHandler)
        self.door = door


class FrontDoor:
    """The TCP server clients talk to; owns a coordinator.

    ``max_inflight`` bounds the number of requests being worked at
    once: request number ``max_inflight + 1`` is refused immediately
    with a :data:`~repro.server.sharded.wire.MSG_BUSY` reply carrying
    ``busy_retry_after`` seconds, instead of queuing until the client
    times out.  ``max_inflight=None`` disables shedding; ``0`` sheds
    everything (useful for deterministic tests).
    """

    def __init__(
        self,
        coordinator: ShardedCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = 64,
        busy_retry_after: float = 0.05,
    ):
        if max_inflight is not None and max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0 or None, got {max_inflight}"
            )
        self.coordinator = coordinator
        self._max_inflight = max_inflight
        self._busy_retry_after = float(busy_retry_after)
        self._admission = (
            threading.Semaphore(max_inflight)
            if max_inflight is not None
            else None
        )
        self._server = _FrontDoorServer((host, port), self)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return (host, port)

    @property
    def running(self) -> bool:
        """True while the serving thread is accepting connections."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> int:
        """Serve on a background thread; returns the bound port."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="front-door",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                # A daemon thread wedged in a handler cannot be killed;
                # surface it loudly instead of pretending we stopped.
                logger.warning(
                    "front door thread still alive after 5s shutdown "
                    "grace; abandoning it (daemon thread, dies with the "
                    "process)"
                )
            self._thread = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    #: Request types subject to load shedding.  Health probes and
    #: shutdown must keep working on a drowning server.
    _SHEDDABLE = frozenset(
        {wire.MSG_UPLOAD, wire.MSG_UPLOAD_BATCH, wire.MSG_QUERY}
    )

    def dispatch(self, sock, msg_type: int, body: bytes) -> bool:
        """Handle one client message; False closes the connection."""
        deadline: Optional[wire.Deadline] = None
        if msg_type == wire.MSG_DEADLINE:
            deadline, msg_type, body = wire.unwrap_deadline(body)
            if msg_type == wire.MSG_DEADLINE:
                raise WireProtocolError("nested deadline envelope")
        admitted = False
        if self._admission is not None and msg_type in self._SHEDDABLE:
            admitted = self._admission.acquire(blocking=False)
            if not admitted:
                if obs.ACTIVE:
                    obs.counter(
                        "repro_requests_shed_total",
                        "Requests refused with MSG_BUSY because the "
                        "front door was at its in-flight limit.",
                    ).inc()
                wire.send_json(
                    sock,
                    wire.MSG_BUSY,
                    {"retry_after": self._busy_retry_after},
                )
                return True
        try:
            return self._dispatch_admitted(sock, msg_type, body, deadline)
        finally:
            if admitted:
                self._admission.release()

    def _dispatch_admitted(
        self,
        sock,
        msg_type: int,
        body: bytes,
        deadline: Optional[wire.Deadline],
    ) -> bool:
        if msg_type == wire.MSG_UPLOAD:
            wire.send_json(sock, wire.MSG_ACK, self._ingest(body, deadline))
        elif msg_type == wire.MSG_UPLOAD_BATCH:
            counts = self.coordinator.ingest_batch(
                wire.unpack_frames(body), deadline=deadline
            )
            wire.send_json(sock, wire.MSG_ACK_BATCH, counts)
        elif msg_type == wire.MSG_QUERY:
            reply = self._query(wire.decode_json(body), deadline)
            wire.send_json(sock, wire.MSG_RESULT, reply)
        elif msg_type == wire.MSG_STATS:
            wire.send_json(
                sock, wire.MSG_STATS_REPLY, self.coordinator.stats()
            )
        elif msg_type == wire.MSG_PING:
            wire.send_message(sock, wire.MSG_PONG)
        elif msg_type == wire.MSG_SHUTDOWN:
            wire.send_message(sock, wire.MSG_PONG)
            threading.Thread(target=self.stop, daemon=True).start()
            return False
        else:
            wire.send_json(
                sock,
                wire.MSG_ERROR,
                {"error": f"unknown message type 0x{msg_type:02x}"},
            )
        return True

    def _ingest(
        self, frame: bytes, deadline: Optional[wire.Deadline] = None
    ) -> dict:
        """Route one upload, under a ``server.shard`` span when tracing."""
        if not obs.tracing():
            return self.coordinator.ingest_frame(frame, deadline=deadline)
        try:
            _payload, _ok, context = parse_frame(frame)
        except TransportError:
            context = None
        token = (
            trace_mod.activate(context) if context is not None else None
        )
        try:
            location = wire.peek_location(frame)
            shard = (
                self.coordinator.router.shard_for(location)
                if location is not None
                else -1
            )
            with span("server.shard", shard=str(shard)):
                return self.coordinator.ingest_frame(frame, deadline=deadline)
        finally:
            if token is not None:
                trace_mod.restore(token)

    def _query(
        self, payload: dict, deadline: Optional[wire.Deadline] = None
    ) -> dict:
        if not isinstance(payload, dict):
            return protocol_error("a query must be a JSON object")
        kind = payload.get("kind")
        try:
            if kind == "multi_point_persistent":
                result = self.coordinator.multi_point_persistent(
                    query_field(payload, "locations"),
                    query_field(payload, "periods"),
                    policy_from_payload(payload.get("policy")),
                    deadline=deadline,
                    explain=bool(payload.get("explain")),
                )
                return {"ok": True, "result": encode_sharded_result(result)}
            if kind in ("point_persistent", "covered_periods"):
                location = query_field(payload, "location")
                periods = query_field(payload, "periods")
                backend = self.coordinator.backend_for(location)
                if kind == "covered_periods":
                    covered = backend.covered_periods(location, periods)
                    return {"ok": True, "result": list(covered)}
                (outcome,) = backend.point_persistent(
                    [location],
                    periods,
                    policy_from_payload(payload.get("policy")),
                    deadline=deadline,
                )
                return wire.encode_outcome(outcome)
        except ShardDownError as exc:
            return {"ok": False, "error": str(exc), "error_kind": "shard_down"}
        except ReproError as exc:
            return wire.error_reply(exc)
        return protocol_error(f"unknown query kind {kind!r}")
