"""ChaosProxy: real TCP faults between a client and the front door.

The proxy forwards bytes between a :class:`ShardClient` and an
in-process :class:`FrontDoor` while injecting the wire-level faults no
in-process injector can produce — dropped connections, stalls, torn
frames, full partitions.  The assertions are about *both* sides: the
client surfaces typed, retryable failures, and the server sheds damaged
connections without crashing or wedging.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.proxy import ChaosProxy
from repro.faults.transport import frame_payload
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.server.sharded import wire
from repro.server.sharded.client import ShardClient
from repro.server.sharded.coordinator import (
    LocalShardBackend,
    ShardDownError,
    ShardedCoordinator,
)
from repro.server.sharded.engine import ShardEngine
from repro.server.sharded.frontdoor import FrontDoor
from repro.sketch.bitmap import Bitmap

import numpy as np

_SEED = 2017
_BITS = 128


def _frame(location=1, period=0):
    rng = np.random.default_rng([_SEED, location, period])
    record = TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )
    return frame_payload(record.to_payload())


@pytest.fixture()
def door():
    backends = {
        shard: LocalShardBackend(ShardEngine(shard_id=shard))
        for shard in range(2)
    }
    door = FrontDoor(ShardedCoordinator(backends), port=0)
    door.start()
    yield door
    door.stop()


def _proxy(door, **rates):
    injector = FaultPlan(seed=7, **rates).injector() if rates else None
    return ChaosProxy("127.0.0.1", door.port, injector=injector)


class TestTransparentForwarding:
    def test_honest_bytes_pass_through(self, door):
        with _proxy(door) as proxy:
            client = ShardClient("127.0.0.1", proxy.port)
            try:
                assert client.ping()
                assert client.upload(_frame())["outcome"] == "delivered"
                counts = client.upload_batch([_frame(2, 0), _frame(3, 1)])
                assert counts["delivered"] == 2
            finally:
                client.close()

    def test_forwarded_pairs_carry_no_socket_timeout(self, door):
        with _proxy(door) as proxy:
            client = ShardClient("127.0.0.1", proxy.port)
            try:
                assert client.ping()
                with proxy._conn_lock:
                    pairs = list(proxy._open_pairs)
                assert pairs
                # A timeout left on either socket severs the pair once
                # the connection idles that long.
                for downstream, upstream in pairs:
                    assert upstream.gettimeout() is None
                    assert downstream.gettimeout() is None
            finally:
                client.close()

    def test_url_is_dialable(self, door):
        with _proxy(door) as proxy:
            assert proxy.url == f"tcp://127.0.0.1:{proxy.port}"
            client = ShardClient.from_url(proxy.url)
            try:
                assert client.ping()
            finally:
                client.close()


class TestPartition:
    def test_partition_refuses_heal_restores(self, door):
        with _proxy(door) as proxy:
            client = ShardClient("127.0.0.1", proxy.port)
            try:
                assert client.upload(_frame())["outcome"] == "delivered"
                proxy.partition()
                assert proxy.partitioned
                with pytest.raises(ShardDownError):
                    client.upload(_frame(2, 0))
                proxy.heal()
                # The client's old socket died with the partition; the
                # reconnect path dials a fresh one transparently.
                assert client.upload(_frame(2, 0))["outcome"] == "delivered"
            finally:
                client.close()

    def test_partition_severs_an_idle_connection_at_once(self, door):
        with _proxy(door) as proxy:
            # The timeout bounds the failing case: no EOF, no hang.
            sock = socket.create_connection(
                ("127.0.0.1", proxy.port), timeout=2.0
            )
            try:
                # One round trip, so the proxy has paired this
                # connection with the upstream before the partition.
                wire.send_message(sock, wire.MSG_PING)
                reply = wire.recv_message(sock)
                assert reply is not None and reply[0] == wire.MSG_PONG
                proxy.partition()
                started = time.monotonic()
                try:
                    data = sock.recv(1)
                except socket.timeout:
                    pytest.fail("partition() left an idle connection open")
                elapsed = time.monotonic() - started
            finally:
                sock.close()
        assert data == b""
        assert elapsed < 1.0, elapsed

    def test_reconnect_after_broken_socket_is_opt_out(self, door):
        with _proxy(door) as proxy:
            resilient = ShardClient("127.0.0.1", proxy.port)
            brittle = ShardClient(
                "127.0.0.1", proxy.port, reconnect_attempts=0
            )
            try:
                # Both establish persistent connections...
                assert resilient.ping() and brittle.ping()
                # ...which a partition then severs under them.
                proxy.partition()
                proxy.heal()
                assert resilient.upload(_frame())["outcome"] in (
                    "delivered",
                    "duplicate",
                )
                with pytest.raises(ShardDownError):
                    brittle.upload(_frame(3, 0))
            finally:
                resilient.close()
                brittle.close()


class TestInjectedWireFaults:
    def test_certain_drop_refuses_every_connection(self, door):
        with _proxy(door, wire_drop=0.999) as proxy:
            client = ShardClient("127.0.0.1", proxy.port)
            try:
                with pytest.raises(ShardDownError):
                    client.upload(_frame())
            finally:
                client.close()

    def test_truncation_is_clean_wire_damage_server_side(self, door):
        obs.enable()
        with _proxy(door, wire_truncate=0.999) as proxy:
            client = ShardClient("127.0.0.1", proxy.port)
            try:
                with pytest.raises(ShardDownError):
                    client.upload(_frame())
            finally:
                client.close()
        # The torn frame was typed wire damage, not a crash: the front
        # door counted it and keeps serving honest connections.  The
        # handler thread races this assertion, so poll briefly.
        import time

        errors = obs.counter(
            "repro_wire_errors_total",
            "Connections dropped for structural wire-protocol damage.",
            endpoint="front_door",
        )
        deadline = time.monotonic() + 5.0
        while errors.value < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert errors.value >= 1
        direct = ShardClient("127.0.0.1", door.port)
        try:
            assert direct.ping()
            assert direct.upload(_frame(4, 0))["outcome"] == "delivered"
        finally:
            direct.close()


class TestWireFaultPlan:
    def test_wire_rates_round_trip(self):
        plan = FaultPlan(
            seed=11, wire_drop=0.1, wire_delay=0.2, wire_truncate=0.3
        )
        assert not plan.is_noop
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_wire_substreams_are_deterministic(self):
        plan = FaultPlan(seed=11, wire_drop=0.5, wire_truncate=0.5)
        first = plan.injector()
        second = plan.injector()
        draws = [
            (first.drop_connection(), first.truncate_chunk())
            for _ in range(50)
        ]
        replay = [
            (second.drop_connection(), second.truncate_chunk())
            for _ in range(50)
        ]
        assert draws == replay
        assert any(flag for pair in draws for flag in pair)

    def test_rate_validation_covers_wire_fields(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(wire_drop=1.5)
