"""Front-door resilience: backpressure, deadlines, wire-error hygiene.

These tests run the real :class:`FrontDoor` TCP server over in-process
:class:`LocalShardBackend` engines — real sockets and framing, no
worker processes — so every refusal path is exercised deterministically:

* bounded-queue backpressure (``MSG_BUSY`` + ``retry_after``) and the
  :class:`UploadTransport` folding it into its ordinary retry budget;
* deadline propagation: client-side expiry, server-side rejected
  uploads, typed ``deadline`` query errors, aborted batch tails;
* structural wire damage (oversized announcements, nested deadline
  envelopes) dropping exactly one connection and nothing else, and an
  unknown message type answered with ``MSG_ERROR``.  These cases also
  run against a shard worker's request server, in-process too.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    RetryableTransportError,
)
from repro.faults.transport import UploadOutcome, UploadTransport, frame_payload
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.server.sharded import wire, worker
from repro.server.sharded.client import ShardClient, TcpUploadClient
from repro.server.sharded.coordinator import (
    LocalShardBackend,
    ShardedCoordinator,
)
from repro.server.sharded.engine import ShardEngine
from repro.server.sharded.frontdoor import FrontDoor
from repro.sketch.bitmap import Bitmap

_SEED = 2017
_BITS = 128


def _record(location=1, period=0):
    rng = np.random.default_rng([_SEED, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )


def _frame(location=1, period=0):
    return frame_payload(_record(location, period).to_payload())


@pytest.fixture()
def local_door(request):
    """A started FrontDoor over two in-process shard engines.

    Parametrize indirectly with a ``max_inflight`` value; default None
    (no shedding).
    """
    max_inflight = getattr(request, "param", None)
    backends = {
        shard: LocalShardBackend(ShardEngine(shard_id=shard))
        for shard in range(2)
    }
    door = FrontDoor(
        ShardedCoordinator(backends),
        port=0,
        max_inflight=max_inflight,
        busy_retry_after=0.25,
    )
    door.start()
    yield door
    door.stop()


@pytest.fixture()
def client(local_door):
    client = ShardClient("127.0.0.1", local_door.port)
    yield client
    client.close()


@pytest.fixture()
def raw_sock(local_door):
    sock = socket.create_connection(("127.0.0.1", local_door.port), timeout=5)
    sock.settimeout(5)
    yield sock
    try:
        sock.close()
    except OSError:
        pass


class TestBackpressure:
    @pytest.mark.parametrize("local_door", [0], indirect=True)
    def test_zero_inflight_sheds_with_retry_after(self, client):
        with pytest.raises(RetryableTransportError) as excinfo:
            client.upload(_frame())
        assert excinfo.value.retry_after == pytest.approx(0.25)

    @pytest.mark.parametrize("local_door", [0], indirect=True)
    def test_control_plane_is_exempt(self, client):
        # PING and STATS must keep answering while data requests shed —
        # they are how operators see the overload in the first place.
        assert client.ping()
        assert len(client.stats()["shards"]) == 2

    @pytest.mark.parametrize("local_door", [0], indirect=True)
    def test_connection_survives_shedding(self, client):
        for _ in range(3):
            with pytest.raises(RetryableTransportError):
                client.upload(_frame())
        # Same persistent connection, still healthy.
        assert client.ping()

    @pytest.mark.parametrize("local_door", [0], indirect=True)
    def test_sheds_count_on_the_registry(self, local_door, client):
        obs.enable()
        with pytest.raises(RetryableTransportError):
            client.upload(_frame())
        shed = obs.counter(
            "repro_requests_shed_total",
            "Requests refused with MSG_BUSY because the front door was "
            "at its in-flight limit.",
        )
        assert shed.value == 1

    @pytest.mark.parametrize("local_door", [0], indirect=True)
    def test_transport_folds_busy_into_retry_budget(self, local_door):
        wire_client = TcpUploadClient.connect(
            f"tcp://127.0.0.1:{local_door.port}"
        )
        transport = UploadTransport(wire=wire_client, max_attempts=3)
        try:
            receipt = transport.send(_record())
            assert receipt.outcome is UploadOutcome.QUARANTINED
            assert receipt.reason == "retries_exhausted"
            assert receipt.attempts == 3
            assert transport.stats.retries == 3
            # The server's retry_after (0.25s) dominates the base
            # backoff schedule on every (virtual) pause.
            assert transport.stats.backoff_seconds >= 3 * 0.25
        finally:
            wire_client.close()

    @pytest.mark.parametrize("local_door", [4], indirect=True)
    def test_normal_traffic_passes_under_the_limit(self, client):
        assert client.upload(_frame())["outcome"] == "delivered"
        counts = client.upload_batch([_frame(2, 0), _frame(3, 0)])
        assert counts["delivered"] == 2

    def test_negative_max_inflight_rejected(self):
        backend = LocalShardBackend(ShardEngine(shard_id=0))
        with pytest.raises(ValueError):
            FrontDoor(ShardedCoordinator({0: backend}), max_inflight=-1)


class TestDeadlines:
    def test_expired_budget_fails_client_side(self, client):
        # The client refuses to even send a request whose budget is
        # already gone — no wire round trip.
        with pytest.raises(DeadlineExceededError):
            client.upload(_frame(), deadline=wire.Deadline.after(-0.1))

    def test_generous_budget_is_invisible(self, client):
        ack = client.upload(_frame(), deadline=wire.Deadline.after(30.0))
        assert ack["outcome"] == "delivered"

    def test_expired_upload_rejected_server_side(self, raw_sock):
        # Bypass the client-side check: put an already-negative budget
        # on the wire and make the *server* refuse it.
        msg_type, body = wire.wrap_deadline(
            wire.MSG_UPLOAD, _frame(), wire.Deadline.after(-1.0)
        )
        wire.send_message(raw_sock, msg_type, body)
        reply_type, reply = wire.recv_message(raw_sock)
        assert reply_type == wire.MSG_ACK
        ack = wire.decode_json(reply)
        assert ack == {"outcome": "rejected", "reason": "deadline"}

    def test_expired_query_is_a_typed_deadline_error(self, raw_sock):
        import json

        payload = json.dumps(
            {"kind": "point_persistent", "location": 1, "periods": [0]}
        ).encode("utf-8")
        msg_type, body = wire.wrap_deadline(
            wire.MSG_QUERY, payload, wire.Deadline.after(-1.0)
        )
        wire.send_message(raw_sock, msg_type, body)
        reply_type, reply = wire.recv_message(raw_sock)
        assert reply_type == wire.MSG_RESULT
        result = wire.decode_json(reply)
        assert result["ok"] is False
        assert result["error_kind"] == "deadline"

    def test_batch_tail_aborted_not_half_ingested(self):
        engine = ShardEngine(shard_id=0)
        frames = [_frame(1, period) for period in range(4)]
        counts = engine.handle_batch(
            frames, deadline=wire.Deadline.after(-1.0)
        )
        assert counts["aborted"] == len(frames)
        assert counts["delivered"] == 0
        # Nothing reached the store: the abort left no partial state.
        assert len(engine.server.store) == 0

    def test_deadline_abort_counts_by_stage(self, raw_sock):
        obs.enable()
        msg_type, body = wire.wrap_deadline(
            wire.MSG_UPLOAD, _frame(), wire.Deadline.after(-1.0)
        )
        wire.send_message(raw_sock, msg_type, body)
        wire.recv_message(raw_sock)
        exceeded = obs.counter(
            "repro_deadline_exceeded_total",
            "Requests aborted because their deadline expired, by stage.",
            stage="front_door",
        )
        assert exceeded.value == 1


@pytest.fixture()
def shard_server():
    """A started shard worker request server over an in-process engine."""
    server = worker._ShardServer(("127.0.0.1", 0), ShardEngine(shard_id=0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _pings(port):
    """Whether a fresh connection to ``port`` gets its ping answered."""
    probe = ShardClient("127.0.0.1", port)
    try:
        return probe.ping()
    finally:
        probe.close()


class TestWireErrors:
    """Wire damage at the front door (see :class:`TestShardWireErrors`)."""

    endpoint = "front_door"

    @pytest.fixture()
    def port(self, local_door):
        return local_door.port

    @pytest.fixture()
    def raw_sock(self, port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        sock.settimeout(5)
        yield sock
        sock.close()

    def test_oversized_announcement_drops_only_that_connection(
        self, port, raw_sock
    ):
        raw_sock.sendall(struct.pack(">IB", wire.MAX_BODY_BYTES + 1, 0x01))
        # Server answers structural damage with silence: a clean close.
        assert raw_sock.recv(1) == b""
        assert _pings(port)

    def test_nested_deadline_envelope_is_structural_damage(
        self, port, raw_sock
    ):
        inner_type, inner = wire.wrap_deadline(
            wire.MSG_PING, b"", wire.Deadline.after(5.0)
        )
        msg_type, body = wire.wrap_deadline(
            inner_type, inner, wire.Deadline.after(5.0)
        )
        assert msg_type == inner_type == wire.MSG_DEADLINE
        wire.send_message(raw_sock, msg_type, body)
        assert wire.recv_message(raw_sock) is None
        assert _pings(port)

    def test_wire_errors_count_by_endpoint(self, raw_sock):
        obs.enable()
        raw_sock.sendall(struct.pack(">IB", wire.MAX_BODY_BYTES + 1, 0x01))
        assert raw_sock.recv(1) == b""
        errors = obs.counter(
            "repro_wire_errors_total",
            "Connections dropped for structural wire-protocol damage.",
            endpoint=self.endpoint,
        )
        assert errors.value == 1

    def test_type_0x08_is_unknown_and_keeps_the_connection(self, raw_sock):
        wire.send_message(raw_sock, 0x08)
        reply_type, reply = wire.recv_message(raw_sock)
        assert reply_type == wire.MSG_ERROR
        assert wire.decode_json(reply) == {
            "error": "unknown message type 0x08"
        }
        wire.send_message(raw_sock, wire.MSG_PING)
        assert wire.recv_message(raw_sock) == (wire.MSG_PONG, b"")


class TestShardWireErrors(TestWireErrors):
    """The same cases against a shard worker's request server."""

    endpoint = "shard"

    @pytest.fixture()
    def port(self, shard_server):
        return shard_server.port


class TestFrontDoorStop:
    def test_stop_is_asserted_and_idempotent(self):
        backend = LocalShardBackend(ShardEngine(shard_id=0))
        door = FrontDoor(ShardedCoordinator({0: backend}), port=0)
        port = door.start()
        assert door.running
        door.stop()
        assert not door.running
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)
        door.stop()  # second stop is a no-op, not a crash
