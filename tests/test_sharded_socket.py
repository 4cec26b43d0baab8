"""End-to-end TCP tests: real sockets, real worker processes.

A module-scoped 2-shard tier serves the read-mostly tests (spawning
processes is the expensive part); the kill-and-replay drill builds its
own tier so SIGKILLing a shard cannot poison the shared fixture.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.exceptions import ReproError, TransportError
from repro.faults.transport import UploadTransport, frame_payload
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.degradation import CoveragePolicy, DegradedResult
from repro.server.queries import PointPersistentQuery
from repro.server.sharded import wire
from repro.server.sharded.client import (
    ShardClient,
    TcpUploadClient,
    parse_server_url,
)
from repro.server.sharded.coordinator import FencedShardBackend
from repro.server.sharded.engine import policy_to_payload
from repro.server.sharded.frontdoor import decode_sharded_result
from repro.server.sharded.service import ShardedIngestService
from repro.sketch.bitmap import Bitmap

_SEED = 2017
_LOCATIONS = list(range(1, 9))
_PERIODS = tuple(range(4))
_BITS = 128
_POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)

#: Query bodies no endpoint can act on: malformed shapes, and a kind
#: that neither endpoint serves.
_MALFORMED = {
    "not_an_object": [_LOCATIONS[0], list(_PERIODS)],
    "no_location": {"kind": "point_persistent", "periods": [0, 1]},
    "no_locations": {"kind": "multi_point_persistent", "periods": [0, 1]},
    "no_periods": {"kind": "multi_point_persistent", "locations": [1]},
    "string_location": {
        "kind": "point_persistent", "location": "1", "periods": [0, 1],
    },
    "float_period": {
        "kind": "multi_point_persistent", "locations": [1],
        "periods": [0, 1.5],
    },
    "policy_not_an_object": {
        "kind": "point_persistent", "location": 1, "periods": [0, 1],
        "policy": [0.5, 2],
    },
    "policy_not_a_number": {
        "kind": "point_persistent", "location": 1, "periods": [0, 1],
        "policy": {"min_coverage": "half"},
    },
    "locations_not_a_list": {
        "kind": "multi_point_persistent", "locations": 1, "periods": [0, 1],
    },
    "string_in_locations": {
        "kind": "multi_point_persistent", "locations": [1, "2"],
        "periods": [0, 1],
    },
    "batch_policy_not_a_number": {
        "kind": "multi_point_persistent", "locations": [1], "periods": [0, 1],
        "policy": {"min_coverage": "half"},
    },
    "covered_periods": {
        "kind": "covered_periods", "location": 1, "periods": [0, 1],
    },
}
#: A location no record was ever uploaded for.
_ABSENT = 99


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


def _single_answer(server, location, periods, policy):
    """The single-process answer to one location, or its error message."""
    query = PointPersistentQuery(location=location, periods=periods)
    try:
        return server.point_persistent(query, policy=policy)
    except ReproError as exc:
        return str(exc)


def _raw_reply(port, payload, budget=None):
    """The raw body of an endpoint's reply to one JSON query."""
    msg_type = wire.MSG_QUERY
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if budget is not None:
        msg_type, body = wire.wrap_deadline(
            msg_type, body, wire.Deadline.after(budget)
        )
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        wire.send_message(sock, msg_type, body)
        reply_type, reply = wire.recv_message(sock)
    assert reply_type == wire.MSG_RESULT
    return reply


@pytest.fixture(scope="module")
def single():
    server = CentralServer(s=3, load_factor=2.0)
    for loc in _LOCATIONS:
        for per in _PERIODS:
            server.receive_record(_record(loc, per))
    return server


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    service = ShardedIngestService(2, tmp_path_factory.mktemp("tier"))
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
    def test_remote_answer_matches_in_process_bit_for_bit(
        self, tier, single
    ):
        _service, client = tier
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


class TestBatchedShardQueries:
    @pytest.mark.parametrize(
        "policy", [None, _POLICY], ids=["strict", "policy"]
    )
    @pytest.mark.parametrize("draw", range(4))
    def test_outcomes_match_single_process(self, tier, single, policy, draw):
        service, client = tier
        rng = np.random.default_rng([_SEED, draw])
        shuffled = [int(loc) for loc in rng.permutation(_LOCATIONS)]
        if draw == 0:  # one location alone
            locations = shuffled[:1]
        elif draw == 1:  # a location asked twice
            locations = shuffled[:2] + shuffled[:1]
        else:  # with a location the tier holds nothing for
            size = int(rng.integers(2, len(shuffled) + 1))
            locations = shuffled[:size] + [_ABSENT]
        periods = tuple(
            sorted(int(p) for p in rng.choice(_PERIODS, 3, replace=False))
        )
        backends = service.coordinator.backends
        calls = dict.fromkeys(backends, 0)
        originals = {}
        for shard, backend in backends.items():
            originals[shard] = backend.point_persistent

            def counted(*args, _shard=shard, **kwargs):
                calls[_shard] += 1
                return originals[_shard](*args, **kwargs)

            backend.point_persistent = counted
        try:
            reply = client.query(
                {
                    "kind": "multi_point_persistent",
                    "locations": locations,
                    "periods": list(periods),
                    "policy": policy_to_payload(policy),
                }
            )
        finally:
            for shard, backend in backends.items():
                del backend.point_persistent
        assert reply["ok"], reply
        merged = decode_sharded_result(reply["result"])
        assert [o.location for o in merged.outcomes] == locations
        for outcome in merged.outcomes:
            expected = _single_answer(
                single, outcome.location, periods, policy
            )
            if isinstance(expected, str):
                assert outcome.result is None
                assert outcome.error == expected
            elif isinstance(expected, DegradedResult):
                assert outcome.result == expected
            else:
                assert outcome.result.value == expected
                assert not outcome.result.coverage.missing
        router = service.coordinator.router
        owners = {router.shard_for(loc) for loc in locations}
        assert {s for s, n in calls.items() if n} == owners
        assert all(n <= 1 for n in calls.values())

    def test_shard_refuses_one_location_and_answers_the_rest(
        self, tier, single
    ):
        service, _client = tier
        router = service.coordinator.router
        owned = [loc for loc in _LOCATIONS if router.shard_for(loc) == 0]
        locations = [owned[0], _ABSENT] + owned[1:]
        reply = json.loads(
            _raw_reply(
                service.shard_port(0),
                {
                    "kind": "multi_point_persistent",
                    "locations": locations,
                    "periods": list(_PERIODS),
                    "policy": policy_to_payload(_POLICY),
                },
            )
        )
        assert reply["ok"], reply
        entries = reply["results"]
        assert len(entries) == len(locations)
        refused = entries.pop(1)
        assert refused == {
            "ok": False,
            "error": _single_answer(single, _ABSENT, _PERIODS, _POLICY),
            "error_kind": "coverage",
        }
        for loc, entry in zip(owned, entries):
            assert entry["ok"], entry
            assert wire.decode_outcome(entry) == _single_answer(
                single, loc, _PERIODS, _POLICY
            )

    def test_expired_deadline_uncovers_every_cell(self, tier):
        service, _client = tier
        obs.enable()
        reply = json.loads(
            _raw_reply(
                service.port,
                {
                    "kind": "multi_point_persistent",
                    "locations": _LOCATIONS,
                    "periods": list(_PERIODS),
                    "policy": policy_to_payload(_POLICY),
                },
                budget=-1.0,
            )
        )
        merged = decode_sharded_result(reply["result"])
        assert set(merged.dead_locations) == set(_LOCATIONS)
        assert merged.covered_cells == 0
        fanout = obs.counter(
            "repro_deadline_exceeded_total",
            "Requests aborted because their deadline expired, by stage.",
            stage="fanout",
        )
        assert fanout.value == service.n_shards


class TestSingleLocationReplies:
    """The front door's single-location replies, byte for byte.

    Each expected reply is the body the front door sent before queries
    were batched per shard: the same fields, the same messages.
    """

    @staticmethod
    def _payload(location, policy=None, **fields):
        payload = {
            "kind": "point_persistent",
            "location": location,
            "periods": list(_PERIODS),
            "policy": policy_to_payload(policy),
        }
        payload.update(fields)
        return payload

    @staticmethod
    def _expected(reply):
        return json.dumps(reply, sort_keys=True).encode("utf-8")

    @pytest.mark.parametrize(
        "policy", [None, _POLICY], ids=["strict", "policy"]
    )
    def test_answer(self, tier, single, policy):
        service, _client = tier
        answer = _single_answer(single, _LOCATIONS[0], _PERIODS, policy)
        encode = wire.encode_estimate if policy is None else (
            wire.encode_degraded
        )
        assert _raw_reply(
            service.port, self._payload(_LOCATIONS[0], policy)
        ) == self._expected({"ok": True, "result": encode(answer)})

    @pytest.mark.parametrize(
        "policy, kind",
        [(None, "data"), (_POLICY, "coverage")],
        ids=["data", "coverage"],
    )
    def test_refusal(self, tier, single, policy, kind):
        service, _client = tier
        assert _raw_reply(
            service.port, self._payload(_ABSENT, policy)
        ) == self._expected(
            {
                "ok": False,
                "error": _single_answer(single, _ABSENT, _PERIODS, policy),
                "error_kind": kind,
            }
        )

    def test_shard_down(self, tier):
        service, _client = tier
        coordinator = service.coordinator
        shard = coordinator.router.shard_for(_LOCATIONS[0])
        live = coordinator.backends[shard]
        coordinator.replace_backend(shard, FencedShardBackend(shard))
        try:
            reply = _raw_reply(service.port, self._payload(_LOCATIONS[0]))
        finally:
            coordinator.replace_backend(shard, live)
        assert reply == self._expected(
            {
                "ok": False,
                "error": (
                    f"shard {shard} is fenced (restart budget exhausted)"
                ),
                "error_kind": "shard_down",
            }
        )

    def test_deadline(self, tier):
        service, _client = tier
        shard = service.coordinator.router.shard_for(_LOCATIONS[0])
        reply = _raw_reply(
            service.port, self._payload(_LOCATIONS[0]), budget=-1.0
        )
        assert reply == self._expected(
            {
                "ok": False,
                "error": (
                    "deadline expired before the request to "
                    f"127.0.0.1:{service.shard_port(shard)} was sent"
                ),
                "error_kind": "deadline",
            }
        )

    def test_protocol(self, tier):
        service, _client = tier
        payload = self._payload(_LOCATIONS[0])
        del payload["location"]
        assert _raw_reply(service.port, payload) == self._expected(
            {
                "ok": False,
                "error": "query lacks the 'location' field",
                "error_kind": "protocol",
            }
        )


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
