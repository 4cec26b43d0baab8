"""Length-prefixed socket framing for the sharded ingest tier.

The RFR1/RFR2 layouts of :mod:`repro.faults.transport` are the *upload
payload* wire format — checksummed, trace-carrying, dead-letterable.
This module gives them an actual stream transport: every message on a
TCP connection is

.. code-block:: text

    u32 big-endian body length | u8 message type | body

so a reader always knows exactly how many bytes to consume, and a
corrupted RFR frame arrives *intact as a message* for the shard edge
to checksum-reject and dead-letter (stream framing and payload
integrity are deliberately separate layers).

Record bodies inside RFR frames are the :mod:`repro.sketch.serial`
payload format verbatim — packed little-endian ``uint64`` words under a
16-byte header are the canonical wire form, so the receiving shard
adopts the words with no bool round-trip.  Frames recorded by older
senders carry the legacy v1 (``packbits``) body and still decode
through the serial layer's compatibility reader, which is what keeps
seed-era WAL segments replayable byte-for-byte.

Upload acks, query results and stats replies are UTF-8 JSON bodies.
Estimate serialization round-trips every IEEE double exactly (Python's
JSON emits shortest-round-trip reprs), so a remote query answer
compares bit-for-bit equal to the in-process one.

:class:`RequestServer` serves this protocol: the front door and every
shard worker are request servers that differ only in the four
data-plane calls they supply.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from typing import List, Optional, Tuple

from repro.core.results import PointEstimate, PointToPointEstimate
from repro.exceptions import (
    CoverageError,
    DataError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    TransportError,
    WireProtocolError,
)
from repro.faults.transport import FRAME_MAGIC, TRACED_MAGIC, _HEADER_BYTES
from repro.obs import runtime as obs
from repro.obs.trace import CONTEXT_BYTES
from repro.server.degradation import CoverageReport, DegradedResult

#: Requests.
MSG_UPLOAD = 0x01
MSG_UPLOAD_BATCH = 0x02
MSG_QUERY = 0x03
MSG_STATS = 0x04
MSG_PING = 0x05
MSG_SHUTDOWN = 0x06
#: A deadline envelope: ``f64 budget seconds | u8 inner type | body``.
MSG_DEADLINE = 0x07
#: Responses.
MSG_ACK = 0x81
MSG_ACK_BATCH = 0x82
MSG_RESULT = 0x83
MSG_ERROR = 0x84
MSG_STATS_REPLY = 0x85
MSG_PONG = 0x86
#: Load-shed reply: the server refused the request; the JSON body's
#: ``retry_after`` (seconds) tells the sender when to try again.
MSG_BUSY = 0x87

_HEADER = struct.Struct(">IB")
#: Upper bound on one message body; far above any real record batch,
#: low enough that a garbled length prefix cannot OOM the server.
MAX_BODY_BYTES = 64 * 1024 * 1024


def send_message(sock: socket.socket, msg_type: int, body: bytes = b"") -> None:
    """Write one length-prefixed message to a connected socket."""
    if len(body) > MAX_BODY_BYTES:
        raise WireProtocolError(
            f"message body of {len(body)} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte wire limit"
        )
    if not 0 <= int(msg_type) <= 0xFF:
        raise WireProtocolError(
            f"message type 0x{int(msg_type):x} does not fit the u8 type byte"
        )
    sock.sendall(_HEADER.pack(len(body), msg_type) + body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or None on a clean EOF at byte 0."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise WireProtocolError(
                f"connection closed {remaining} bytes short of a "
                f"{count}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Tuple[int, bytes]]:
    """Read one message; None when the peer closed between messages.

    Structural damage — a truncated header or body, an announced
    length past :data:`MAX_BODY_BYTES` — raises the typed
    :class:`~repro.exceptions.WireProtocolError` so servers can drop
    the connection without leaking ``struct.error`` or bare
    ``ConnectionError`` to their dispatch loops.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, msg_type = _HEADER.unpack(header)
    if length > MAX_BODY_BYTES:
        raise WireProtocolError(
            f"announced message body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte wire limit"
        )
    body = _recv_exact(sock, length) if length else b""
    if length and body is None:
        raise WireProtocolError(
            "connection closed between the message header and its "
            f"{length}-byte body"
        )
    return msg_type, body or b""


def send_json(sock: socket.socket, msg_type: int, payload: dict) -> None:
    """Send a JSON-bodied message."""
    send_message(
        sock, msg_type, json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def decode_json(body: bytes) -> dict:
    """Decode a JSON message body, wrapping failures as wire errors."""
    if not body:
        raise WireProtocolError("zero-length body where JSON was expected")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(
            f"undecodable JSON message body: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Deadlines on the wire
# ----------------------------------------------------------------------

_DEADLINE_HEADER = struct.Struct(">dB")


class Deadline:
    """An absolute give-up time, carried on the wire as remaining budget.

    Clocks are not assumed synchronized between processes: what
    crosses the socket is the *remaining* budget in seconds
    (:meth:`remaining`), and each receiver re-anchors it against its
    own monotonic clock.  Skew therefore only ever costs the one-way
    latency of the message itself.
    """

    __slots__ = ("_at",)

    def __init__(self, at: float):
        self._at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (monotonic)."""
        return cls(time.monotonic() + float(seconds))

    @property
    def remaining(self) -> float:
        """Seconds left before the deadline (negative when past it)."""
        return self._at - time.monotonic()

    @property
    def expired(self) -> bool:
        """True once the budget has run out."""
        return self.remaining <= 0.0

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining:.3f}s)"


def wrap_deadline(
    msg_type: int, body: bytes, deadline: Deadline
) -> Tuple[int, bytes]:
    """Envelope a request in a :data:`MSG_DEADLINE` frame.

    Returns the ``(msg_type, body)`` pair to put on the wire; the
    remaining budget is sampled at call time, so wrap immediately
    before sending.
    """
    return (
        MSG_DEADLINE,
        _DEADLINE_HEADER.pack(deadline.remaining, msg_type) + body,
    )


def unwrap_deadline(body: bytes) -> Tuple[Deadline, int, bytes]:
    """Inverse of :func:`wrap_deadline`, re-anchored to this clock."""
    if len(body) < _DEADLINE_HEADER.size:
        raise WireProtocolError(
            f"deadline envelope of {len(body)} bytes is shorter than its "
            f"{_DEADLINE_HEADER.size}-byte header"
        )
    budget, inner_type = _DEADLINE_HEADER.unpack_from(body)
    if budget != budget or budget in (float("inf"), float("-inf")):
        raise WireProtocolError(f"non-finite deadline budget {budget!r}")
    return (
        Deadline.after(budget),
        inner_type,
        body[_DEADLINE_HEADER.size :],
    )


# ----------------------------------------------------------------------
# Batched upload framing
# ----------------------------------------------------------------------

_SUBFRAME = struct.Struct(">I")


def pack_frames(frames: List[bytes]) -> bytes:
    """Concatenate upload frames into one ``MSG_UPLOAD_BATCH`` body."""
    parts: List[bytes] = []
    for frame in frames:
        parts.append(_SUBFRAME.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def unpack_frames(body: bytes) -> List[bytes]:
    """Inverse of :func:`pack_frames`.

    A batch whose sub-frame table is structurally damaged — truncated
    lengths, a zero-length sub-frame (no RFR frame is empty), a length
    running past the body — raises
    :class:`~repro.exceptions.WireProtocolError`.
    """
    frames: List[bytes] = []
    offset = 0
    total = len(body)
    while offset < total:
        if offset + _SUBFRAME.size > total:
            raise WireProtocolError("truncated sub-frame length in batch")
        (length,) = _SUBFRAME.unpack_from(body, offset)
        offset += _SUBFRAME.size
        if length == 0:
            raise WireProtocolError(
                f"zero-length sub-frame at byte {offset - _SUBFRAME.size} "
                "of batch"
            )
        if offset + length > total:
            raise WireProtocolError("truncated sub-frame in batch")
        frames.append(body[offset : offset + length])
        offset += length
    return frames


# ----------------------------------------------------------------------
# The request server
# ----------------------------------------------------------------------


def _count_wire_error(endpoint: str) -> None:
    if obs.ACTIVE:
        obs.counter(
            "repro_wire_errors_total",
            "Connections dropped for structural wire-protocol damage.",
            endpoint=endpoint,
        ).inc()


class _RequestHandler(socketserver.BaseRequestHandler):
    """One connection: a loop of length-prefixed request messages."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        server: "RequestServer" = self.server
        sock = self.request
        while True:
            try:
                message = recv_message(sock)
            except WireProtocolError:
                _count_wire_error(server.endpoint)
                return
            except (TransportError, OSError):
                return
            if message is None:
                return
            msg_type, body = message
            try:
                if not server.dispatch(sock, msg_type, body):
                    return
            except WireProtocolError:
                # A structurally damaged request (bad deadline envelope,
                # torn batch table, garbage JSON) leaves the stream's
                # framing untrustworthy: drop the connection, no reply.
                _count_wire_error(server.endpoint)
                return
            except (TransportError, OSError) as exc:
                try:
                    send_json(sock, MSG_ERROR, {"error": str(exc)})
                except OSError:
                    pass
                return


class RequestServer(socketserver.ThreadingTCPServer):
    """One TCP endpoint of the tier: a thread and request loop per connection.

    The loop, the deadline envelope and the control replies (``PING``,
    ``SHUTDOWN``, unknown types) live here; the endpoint supplies the
    four data-plane calls, each answering with a JSON-safe dict:

    * ``upload(frame, deadline)`` for :data:`MSG_UPLOAD`;
    * ``upload_batch(frames, deadline)`` for :data:`MSG_UPLOAD_BATCH`;
    * ``query(payload, deadline)`` for :data:`MSG_QUERY`;
    * ``stats()`` for :data:`MSG_STATS`.

    ``deadline`` is the unwrapped :class:`Deadline` or None.  Structural
    damage drops the connection without a reply and counts on
    ``repro_wire_errors_total{endpoint}``; any other transport failure
    is answered with :data:`MSG_ERROR` before the connection closes.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address, endpoint: str, upload, upload_batch, query, stats
    ):
        super().__init__(address, _RequestHandler)
        self.endpoint = endpoint
        #: Request type -> (reply type, answer to the raw body).
        self._calls = {
            MSG_UPLOAD: (MSG_ACK, upload),
            MSG_UPLOAD_BATCH: (
                MSG_ACK_BATCH,
                lambda body, deadline: upload_batch(
                    unpack_frames(body), deadline
                ),
            ),
            MSG_QUERY: (
                MSG_RESULT,
                lambda body, deadline: query(decode_json(body), deadline),
            ),
            MSG_STATS: (MSG_STATS_REPLY, lambda body, deadline: stats()),
        }

    @property
    def port(self) -> int:
        return self.server_address[1]

    def dispatch(self, sock, msg_type: int, body: bytes) -> bool:
        """Handle one client message; False closes the connection."""
        deadline: Optional[Deadline] = None
        if msg_type == MSG_DEADLINE:
            deadline, msg_type, body = unwrap_deadline(body)
            if msg_type == MSG_DEADLINE:
                raise WireProtocolError("nested deadline envelope")
        return self.answer(sock, msg_type, body, deadline)

    def answer(
        self, sock, msg_type: int, body: bytes, deadline: Optional[Deadline]
    ) -> bool:
        """Answer one unwrapped request; False closes the connection."""
        call = self._calls.get(msg_type)
        if call is not None:
            reply_type, respond = call
            send_json(sock, reply_type, respond(body, deadline))
        elif msg_type == MSG_PING:
            send_message(sock, MSG_PONG)
        elif msg_type == MSG_SHUTDOWN:
            send_message(sock, MSG_PONG)
            # stop() waits for serve_forever to return, so it must run
            # off this handler thread.
            threading.Thread(target=self.stop, daemon=True).start()
            return False
        else:
            send_json(
                sock,
                MSG_ERROR,
                {"error": f"unknown message type 0x{msg_type:02x}"},
            )
        return True

    def stop(self) -> None:
        """Stop serving; a ``MSG_SHUTDOWN`` request calls this."""
        self.shutdown()


# ----------------------------------------------------------------------
# Routing peek
# ----------------------------------------------------------------------


def peek_location(frame: bytes) -> Optional[int]:
    """The location ID an upload frame claims, without verifying it.

    The front door routes on this — a cheap fixed-offset read of the
    record payload's location header, *not* a checksum pass (integrity
    stays the shard edge's job).  Returns None when the frame is too
    short or mis-magicked to even claim a location; such frames cannot
    be routed and are dead-lettered at the front door.  A frame whose
    corruption hit the location bytes routes to the "wrong" shard and
    is checksum-rejected there, which is just as dead.
    """
    magic = frame[: len(FRAME_MAGIC)]
    if magic == TRACED_MAGIC:
        offset = _HEADER_BYTES + CONTEXT_BYTES
    elif magic == FRAME_MAGIC:
        offset = _HEADER_BYTES
    else:
        return None
    if len(frame) < offset + 8:
        return None
    return int.from_bytes(frame[offset : offset + 8], "little")


# ----------------------------------------------------------------------
# Estimate / result serialization
# ----------------------------------------------------------------------


def encode_estimate(value) -> dict:
    """Serialize an estimator result (or float) to a JSON-safe dict."""
    if isinstance(value, PointEstimate):
        return {
            "type": "point",
            "estimate": value.estimate,
            "v_a0": value.v_a0,
            "v_b0": value.v_b0,
            "v_star1": value.v_star1,
            "size": value.size,
            "periods": value.periods,
        }
    if isinstance(value, PointToPointEstimate):
        return {
            "type": "point_to_point",
            "estimate": value.estimate,
            "v_0": value.v_0,
            "v_prime_0": value.v_prime_0,
            "v_double_prime_0": value.v_double_prime_0,
            "size_small": value.size_small,
            "size_large": value.size_large,
            "s": value.s,
            "periods": value.periods,
            "swapped": value.swapped,
        }
    if isinstance(value, float):
        return {"type": "float", "estimate": value}
    raise TransportError(
        f"cannot serialize estimate of type {type(value).__name__}"
    )


def decode_estimate(payload: dict):
    """Inverse of :func:`encode_estimate` — rebuilds the dataclass."""
    kind = payload.get("type")
    if kind == "point":
        return PointEstimate(
            estimate=payload["estimate"],
            v_a0=payload["v_a0"],
            v_b0=payload["v_b0"],
            v_star1=payload["v_star1"],
            size=payload["size"],
            periods=payload["periods"],
        )
    if kind == "point_to_point":
        return PointToPointEstimate(
            estimate=payload["estimate"],
            v_0=payload["v_0"],
            v_prime_0=payload["v_prime_0"],
            v_double_prime_0=payload["v_double_prime_0"],
            size_small=payload["size_small"],
            size_large=payload["size_large"],
            s=payload["s"],
            periods=payload["periods"],
            swapped=payload["swapped"],
        )
    if kind == "float":
        return payload["estimate"]
    raise TransportError(f"cannot deserialize estimate of kind {kind!r}")


def encode_degraded(result: DegradedResult) -> dict:
    """Serialize a coverage-wrapped estimate."""
    return {
        "type": "degraded",
        "value": encode_estimate(result.value),
        "requested": list(result.coverage.requested),
        "covered": list(result.coverage.covered),
    }


def decode_degraded(payload: dict) -> DegradedResult:
    """Inverse of :func:`encode_degraded`."""
    return DegradedResult(
        value=decode_estimate(payload["value"]),
        coverage=CoverageReport(
            requested=tuple(payload["requested"]),
            covered=tuple(payload["covered"]),
        ),
    )


def error_reply(exc: ReproError) -> dict:
    """The typed reply to a query that failed with ``exc``.

    ``error_kind`` is ``protocol``, ``coverage`` or ``deadline`` for
    those errors and ``data`` for any other library error.
    """
    if isinstance(exc, ProtocolError):
        kind = "protocol"
    elif isinstance(exc, CoverageError):
        kind = "coverage"
    elif isinstance(exc, DeadlineExceededError):
        kind = "deadline"
    else:
        kind = "data"
    return {"ok": False, "error": str(exc), "error_kind": kind}


def remote_error(reply: dict) -> ReproError:
    """The exception a shard's typed error reply stands for."""
    kind = reply.get("error_kind")
    message = reply.get("error", "remote query failed")
    if kind == "coverage":
        return CoverageError(message)
    if kind == "deadline":
        return DeadlineExceededError(message)
    if kind == "data":
        return DataError(message)
    return TransportError(message)


def encode_outcome(outcome) -> dict:
    """One location's entry in an Eq. 12 reply.

    An answer encodes as ``{"ok": true, "result": ...}``, a
    :class:`~repro.exceptions.ReproError` as its :func:`error_reply`.
    """
    if isinstance(outcome, ReproError):
        return error_reply(outcome)
    if isinstance(outcome, DegradedResult):
        return {"ok": True, "result": encode_degraded(outcome)}
    return {"ok": True, "result": encode_estimate(outcome)}


def decode_outcome(entry: dict):
    """Inverse of :func:`encode_outcome`: the answer or its exception."""
    if not entry.get("ok"):
        return remote_error(entry)
    result = entry["result"]
    if result.get("type") == "degraded":
        return decode_degraded(result)
    return decode_estimate(result)
