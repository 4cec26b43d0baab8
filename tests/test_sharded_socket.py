"""End-to-end TCP tests: real sockets, real worker processes.

A module-scoped 2-shard tier serves the read-mostly tests (spawning
processes is the expensive part); the kill-and-replay drill builds its
own tier so SIGKILLing a shard cannot poison the shared fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TransportError
from repro.faults.transport import UploadTransport, frame_payload
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.degradation import CoveragePolicy
from repro.server.queries import PointPersistentQuery
from repro.server.sharded.client import (
    ShardClient,
    TcpUploadClient,
    parse_server_url,
)
from repro.server.sharded.engine import policy_to_payload
from repro.server.sharded.frontdoor import decode_sharded_result
from repro.server.sharded.service import ShardedIngestService
from repro.sketch.bitmap import Bitmap

_SEED = 2017
_LOCATIONS = list(range(1, 9))
_PERIODS = tuple(range(4))
_BITS = 128
_POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)

#: Query bodies no endpoint can act on, by shape.
_MALFORMED = {
    "not_an_object": [_LOCATIONS[0], list(_PERIODS)],
    "no_location": {"kind": "point_persistent", "periods": [0, 1]},
    "no_locations": {"kind": "multi_point_persistent", "periods": [0, 1]},
    "no_periods": {"kind": "covered_periods", "location": 1},
    "string_location": {
        "kind": "point_persistent", "location": "1", "periods": [0, 1],
    },
    "float_period": {
        "kind": "covered_periods", "location": 1, "periods": [0, 1.5],
    },
    "policy_not_an_object": {
        "kind": "point_persistent", "location": 1, "periods": [0, 1],
        "policy": [0.5, 2],
    },
    "policy_not_a_number": {
        "kind": "point_persistent", "location": 1, "periods": [0, 1],
        "policy": {"min_coverage": "half"},
    },
}


def _record(location, period):
    rng = np.random.default_rng([_SEED, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )


def _frames():
    return [
        frame_payload(_record(loc, per).to_payload())
        for loc in _LOCATIONS
        for per in _PERIODS
    ]


class TestParseServerUrl:
    def test_tcp_scheme(self):
        assert parse_server_url("tcp://127.0.0.1:9000") == (
            "127.0.0.1",
            9000,
        )

    def test_bare_host_port(self):
        assert parse_server_url("localhost:80") == ("localhost", 80)

    @pytest.mark.parametrize(
        "bad",
        ["http://h:1", "just-a-host", "tcp://h:notaport", "tcp://:123"],
    )
    def test_rejects_bad_urls(self, bad):
        with pytest.raises(TransportError):
            parse_server_url(bad)


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    service = ShardedIngestService(
        2, tmp_path_factory.mktemp("tier"), shard_metrics=True
    )
    service.start()
    client = ShardClient("127.0.0.1", service.port)
    counts = client.upload_batch(_frames())
    assert counts["delivered"] == len(_LOCATIONS) * len(_PERIODS)
    yield service, client
    client.close()
    service.stop()


class TestTcpIngest:
    def test_stats_report_every_record(self, tier):
        service, client = tier
        stats = client.stats()
        assert stats["records"] == len(_LOCATIONS) * len(_PERIODS)
        assert set(stats["shards"]) == {"0", "1"}
        assert all(
            payload["alive"] for payload in stats["shards"].values()
        )

    def test_duplicate_upload_is_absorbed(self, tier):
        _service, client = tier
        frame = frame_payload(_record(1, 0).to_payload())
        ack = client.upload(frame)
        assert ack["outcome"] == "duplicate"

    def test_corrupted_frame_dead_letters_not_crashes(self, tier):
        _service, client = tier
        frame = bytearray(frame_payload(_record(1, 1).to_payload()))
        frame[-1] ^= 0xFF
        ack = client.upload(bytes(frame))
        assert ack == {"outcome": "quarantined", "reason": "checksum"}
        # The shard absorbed the damage and still serves.
        assert client.ping()
        stats = client.stats()
        dead = sum(
            payload["dead_letters"]
            for payload in stats["shards"].values()
        )
        assert dead >= 1

    def test_unroutable_garbage_quarantined_at_front_door(self, tier):
        _service, client = tier
        ack = client.upload(b"RFR9 something that is not a frame")
        assert ack == {"outcome": "quarantined", "reason": "malformed"}

    def test_per_shard_metrics_fold_into_one_registry(self, tier):
        _service, client = tier
        metrics = client.stats()["metrics"]
        family = metrics.get("repro_shard_uploads_total")
        assert family, f"no shard upload counters in {sorted(metrics)}"
        shards_seen = set()
        delivered = 0
        for entry in family["children"]:
            labels = dict(entry["labels"])
            shards_seen.add(labels["shard"])
            if labels["outcome"] == "delivered":
                delivered += entry["value"]
        assert shards_seen == {"0", "1"}
        assert delivered == len(_LOCATIONS) * len(_PERIODS)


class TestRemoteQueryParity:
    def test_remote_answer_matches_in_process_bit_for_bit(self, tier):
        _service, client = tier
        single = CentralServer(s=3, load_factor=2.0)
        for loc in _LOCATIONS:
            for per in _PERIODS:
                single.receive_record(_record(loc, per))

        reply = client.query(
            {
                "kind": "multi_point_persistent",
                "locations": _LOCATIONS,
                "periods": list(_PERIODS),
                "policy": policy_to_payload(_POLICY),
            }
        )
        assert reply["ok"], reply
        merged = decode_sharded_result(reply["result"])
        assert not merged.degraded
        for outcome in merged.outcomes:
            expected = single.point_persistent(
                PointPersistentQuery(
                    location=outcome.location, periods=_PERIODS
                ),
                policy=_POLICY,
            )
            # JSON float round-trips are exact (shortest-repr), so the
            # socket boundary must not perturb a single bit.
            assert outcome.result.value == expected.value
            assert outcome.result.coverage == expected.coverage

    def test_single_location_query_and_covered_periods(self, tier):
        _service, client = tier
        reply = client.query(
            {
                "kind": "covered_periods",
                "location": _LOCATIONS[0],
                "periods": list(_PERIODS) + [99],
            }
        )
        assert reply["ok"]
        assert reply["result"] == list(_PERIODS)

    def test_unknown_query_kind_is_a_typed_error(self, tier):
        _service, client = tier
        reply = client.query({"kind": "divination"})
        assert not reply["ok"]
        assert reply["error_kind"] == "protocol"

    @pytest.mark.parametrize("body", _MALFORMED.values(), ids=list(_MALFORMED))
    def test_malformed_query_is_a_typed_error(self, tier, body):
        _service, client = tier
        reply = client.query(body)
        assert not reply["ok"]
        assert reply["error_kind"] == "protocol"
        assert client.ping()

    @pytest.mark.parametrize("body", _MALFORMED.values(), ids=list(_MALFORMED))
    def test_malformed_shard_query_is_a_typed_error(self, tier, body):
        service, _client = tier
        shard = ShardClient("127.0.0.1", service.shard_port(0))
        try:
            reply = shard.query(body)
            assert not reply["ok"]
            assert reply["error_kind"] == "protocol"
            assert shard.ping()
        finally:
            shard.close()


class TestTransportWireBackend:
    def test_upload_transport_over_tcp(self, tier):
        service, _client = tier
        wire_client = TcpUploadClient.connect(service.url)
        transport = UploadTransport(wire=wire_client)
        try:
            fresh = _record(max(_LOCATIONS) + 5, 0)
            receipt = transport.send(fresh)
            assert receipt.outcome.value == "delivered"
            duplicate = transport.send(fresh)
            assert duplicate.outcome.value == "duplicate"
            assert transport.stats.delivered == 1
            assert transport.stats.duplicates == 1
        finally:
            wire_client.close()

    def test_remote_quarantine_mirrors_locally(self, tier):
        service, _client = tier
        wire_client = TcpUploadClient.connect(service.url)
        transport = UploadTransport(wire=wire_client)
        try:
            receipt = transport.send(b"not a decodable record payload")
            assert receipt.outcome.value == "quarantined"
            assert len(transport.dead_letters) == 1
        finally:
            wire_client.close()

    def test_unreachable_server_dead_letters(self, tmp_path):
        wire_client = TcpUploadClient.connect("tcp://127.0.0.1:1")
        transport = UploadTransport(wire=wire_client, max_attempts=2)
        try:
            receipt = transport.send(_record(1, 0))
            assert receipt.outcome.value == "quarantined"
            assert transport.stats.quarantined == 1
        finally:
            wire_client.close()


class TestKillAndReplay:
    def test_sigkill_one_shard_then_replay_restores_acks(self, tmp_path):
        with ShardedIngestService(2, tmp_path) as service:
            client = ShardClient("127.0.0.1", service.port)
            try:
                counts = client.upload_batch(_frames())
                assert counts["delivered"] == len(_frames())

                service.kill_shard(0)
                degraded = decode_sharded_result(
                    client.query(
                        {
                            "kind": "multi_point_persistent",
                            "locations": _LOCATIONS,
                            "periods": list(_PERIODS),
                            "policy": policy_to_payload(_POLICY),
                        }
                    )["result"]
                )
                dead = set(degraded.dead_locations)
                expected_dead = {
                    loc
                    for loc in _LOCATIONS
                    if service.coordinator.router.shard_for(loc) == 0
                }
                assert dead == expected_dead and dead
                assert set(degraded.uncovered) == {
                    (loc, per) for loc in dead for per in _PERIODS
                }

                service.restart_shard(0)
                recovered = decode_sharded_result(
                    client.query(
                        {
                            "kind": "multi_point_persistent",
                            "locations": _LOCATIONS,
                            "periods": list(_PERIODS),
                            "policy": policy_to_payload(_POLICY),
                        }
                    )["result"]
                )
                assert recovered.dead_locations == ()
                assert not recovered.degraded
                assert client.stats()["records"] == len(_frames())
            finally:
                client.close()
