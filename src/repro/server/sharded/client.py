"""Blocking RPC clients for the sharded tier's socket protocol.

:class:`ShardClient` speaks the length-prefixed message protocol of
:mod:`~repro.server.sharded.wire` to one endpoint — a shard worker or
the front door (both answer the same request types).  It keeps a
single persistent connection and is *not* thread-safe; the front
door's per-shard connection pool hands each fan-out thread its own
client.

:class:`TcpUploadClient` adapts a client to the ``wire`` duck type of
:class:`~repro.faults.transport.UploadTransport`, which is what makes
``simulate --server tcp://...`` ship its uploads over real sockets
with unchanged retry/dead-letter semantics.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    DeadlineExceededError,
    RetryableTransportError,
    TransportError,
)
from repro.server.sharded import wire
from repro.server.sharded.coordinator import ShardDownError


def parse_server_url(url: str) -> Tuple[str, int]:
    """Split ``tcp://host:port`` into ``(host, port)``.

    A bare ``host:port`` is accepted too; anything else raises
    :class:`~repro.exceptions.TransportError`.
    """
    spec = url
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    elif "://" in spec:
        scheme = spec.split("://", 1)[0]
        raise TransportError(
            f"unsupported server scheme {scheme!r} (expected tcp://)"
        )
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise TransportError(
            f"server URL {url!r} is not of the form tcp://host:port"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise TransportError(
            f"server URL {url!r} has a non-numeric port"
        ) from exc


class ShardClient:
    """One blocking connection to a shard worker or front door.

    A request finding its persistent socket stale (the peer restarted,
    an idle timeout fired, a proxy dropped the stream) does not fail
    the call: the client reconnects with exponential backoff, up to
    ``reconnect_attempts`` fresh connections per request, before
    surfacing :class:`~repro.server.sharded.coordinator.ShardDownError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        reconnect_attempts: int = 2,
        reconnect_backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._address = (host, int(port))
        self._timeout = timeout
        self._reconnect_attempts = max(0, int(reconnect_attempts))
        self._reconnect_backoff = float(reconnect_backoff)
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None

    @classmethod
    def from_url(cls, url: str, timeout: float = 10.0) -> "ShardClient":
        host, port = parse_server_url(url)
        return cls(host, port, timeout=timeout)

    @property
    def timeout(self) -> float:
        """The per-operation socket timeout, in seconds."""
        return self._timeout

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    self._address, timeout=self._timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError as exc:
                raise ShardDownError(
                    f"cannot connect to {self._address[0]}:"
                    f"{self._address[1]}: {exc}"
                ) from exc
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _request(
        self,
        msg_type: int,
        body: bytes,
        expect: int,
        deadline: Optional[wire.Deadline] = None,
    ) -> bytes:
        """One request/response round trip.

        A stale persistent connection is reconnected with exponential
        backoff (``reconnect_attempts`` fresh tries) instead of failing
        the call.  With a ``deadline``, the request ships inside a
        :data:`~repro.server.sharded.wire.MSG_DEADLINE` envelope and an
        already-expired budget raises
        :class:`~repro.exceptions.DeadlineExceededError` client-side.
        """
        last_attempt = self._reconnect_attempts
        for attempt in range(last_attempt + 1):
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    f"deadline expired before the request to "
                    f"{self._address[0]}:{self._address[1]} was sent"
                )
            sock = self._connect()
            try:
                if deadline is not None:
                    wrapped_type, wrapped = wire.wrap_deadline(
                        msg_type, body, deadline
                    )
                    wire.send_message(sock, wrapped_type, wrapped)
                else:
                    wire.send_message(sock, msg_type, body)
                reply = wire.recv_message(sock)
            except (TransportError, OSError) as exc:
                self.close()
                if attempt < last_attempt and not isinstance(
                    exc, ShardDownError
                ):
                    self._sleep(self._reconnect_backoff * (2 ** attempt))
                    continue
                raise ShardDownError(
                    f"lost connection to {self._address[0]}:"
                    f"{self._address[1]}: {exc}"
                ) from exc
            if reply is None:
                self.close()
                if attempt < last_attempt:
                    self._sleep(self._reconnect_backoff * (2 ** attempt))
                    continue
                raise ShardDownError(
                    f"{self._address[0]}:{self._address[1]} closed the "
                    "connection mid-request"
                )
            reply_type, reply_body = reply
            if reply_type == wire.MSG_BUSY:
                raise RetryableTransportError(
                    f"{self._address[0]}:{self._address[1]} is shedding "
                    "load",
                    retry_after=float(
                        wire.decode_json(reply_body).get("retry_after", 0.0)
                    ),
                )
            if reply_type == wire.MSG_ERROR:
                payload = wire.decode_json(reply_body)
                message = payload.get("error", "unknown error")
                if payload.get("error_kind") == "deadline":
                    raise DeadlineExceededError(message)
                raise TransportError(message)
            if reply_type != expect:
                self.close()
                raise TransportError(
                    f"expected reply type 0x{expect:02x}, "
                    f"got 0x{reply_type:02x}"
                )
            return reply_body
        raise ShardDownError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # RPCs
    # ------------------------------------------------------------------

    def upload(
        self, frame: bytes, deadline: Optional[wire.Deadline] = None
    ) -> dict:
        """Ship one RFR1/RFR2 frame; returns the server's ack dict."""
        return wire.decode_json(
            self._request(
                wire.MSG_UPLOAD, frame, wire.MSG_ACK, deadline=deadline
            )
        )

    def upload_batch(
        self,
        frames: Sequence[bytes],
        deadline: Optional[wire.Deadline] = None,
    ) -> dict:
        """Ship many frames in one message; returns outcome counts."""
        return wire.decode_json(
            self._request(
                wire.MSG_UPLOAD_BATCH,
                wire.pack_frames(list(frames)),
                wire.MSG_ACK_BATCH,
                deadline=deadline,
            )
        )

    def query(
        self,
        payload: dict,
        deadline: Optional[wire.Deadline] = None,
        explain: bool = False,
    ) -> dict:
        """Send one JSON query; returns the raw reply payload.

        ``explain=True`` asks the server for a timing/attribution
        breakdown: a front door answers a ``multi_point_persistent``
        query with the breakdown inside ``result["explain"]``, a shard
        worker attaches its engine timing as a top-level ``explain``
        key.
        """
        import json

        if explain:
            payload = dict(payload, explain=True)
        return wire.decode_json(
            self._request(
                wire.MSG_QUERY,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                wire.MSG_RESULT,
                deadline=deadline,
            )
        )

    def stats(self) -> dict:
        """The endpoint's health/metrics snapshot."""
        return wire.decode_json(
            self._request(wire.MSG_STATS, b"", wire.MSG_STATS_REPLY)
        )

    def ping(self) -> bool:
        """True when the endpoint answers; never raises."""
        try:
            self._request(wire.MSG_PING, b"", wire.MSG_PONG)
            return True
        except (TransportError, OSError):
            return False

    def shutdown(self) -> None:
        """Ask the endpoint to stop serving (graceful)."""
        self._request(wire.MSG_SHUTDOWN, b"", wire.MSG_PONG)
        self.close()


class TcpUploadClient:
    """The ``wire`` backend that sends UploadTransport frames over TCP.

    Satisfies the one-method duck type
    ``deliver(frame: bytes) -> dict`` that
    :class:`~repro.faults.transport.UploadTransport` accepts as its
    ``wire`` parameter: the frame crosses a real socket to the front
    door (or a single shard) and the returned ack dict carries the
    server-side outcome (``delivered`` / ``duplicate`` /
    ``quarantined``) for the transport to fold into its receipt and
    stats.
    """

    def __init__(self, client: ShardClient):
        self._client = client

    @classmethod
    def connect(cls, url: str, timeout: float = 10.0) -> "TcpUploadClient":
        """Build a client from a ``tcp://host:port`` URL."""
        return cls(ShardClient.from_url(url, timeout=timeout))

    def deliver(self, frame: bytes) -> dict:
        """Ship one frame; raises TransportError when unreachable."""
        return self._client.upload(frame)

    def deliver_batch(self, frames: List[bytes]) -> dict:
        """Ship many frames in one round trip."""
        return self._client.upload_batch(frames)

    def close(self) -> None:
        self._client.close()
