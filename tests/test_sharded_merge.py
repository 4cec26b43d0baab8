"""S3: cross-shard DegradedResult merging against the one-process truth.

The contract under test: a sharded tier answers a multi-location query
exactly as a single-process :class:`CentralServer` holding the same
records would — bit-for-bit on every surviving shard — and when a
shard dies the merged result reports the *exact* ``(location, period)``
cells that went dark, never an optimistic estimate.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.faults.transport import frame_payload
from repro.obs import runtime as obs
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.queries import PointPersistentQuery
from repro.server.sharded.coordinator import (
    FencedShardBackend,
    LocalShardBackend,
    ShardedCoordinator,
)
from repro.server.sharded.engine import ShardEngine
from repro.server.sharded.frontdoor import (
    decode_sharded_result,
    encode_sharded_result,
)
from repro.server.sharded.wire import Deadline
from repro.sketch.bitmap import Bitmap

_SEED = 2017
_LOCATIONS = list(range(1, 9))
_PERIODS = tuple(range(6))
_BITS = 256
#: Cells deliberately never uploaded, to exercise partial coverage.
_HOLES = {(2, 4), (2, 5), (5, 0)}
_POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)


def _record(location, period):
    rng = np.random.default_rng([_SEED, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )


def _records():
    return [
        _record(location, period)
        for location in _LOCATIONS
        for period in _PERIODS
        if (location, period) not in _HOLES
    ]


def _expected(server, location, periods, policy):
    """The single-process answer, normalized as merging does, or its error."""
    query = PointPersistentQuery(location=location, periods=periods)
    try:
        result = server.point_persistent(query, policy=policy)
    except ReproError as exc:
        return str(exc)
    if isinstance(result, DegradedResult):
        return result
    return DegradedResult(
        value=result,
        coverage=CoverageReport(requested=periods, covered=periods),
    )


def _count_shard_requests(coordinator):
    """Count each backend's ``point_persistent`` calls, by shard."""
    calls = {}
    for shard, backend in coordinator.backends.items():
        calls[shard] = 0

        def counted(*args, _shard=shard, _call=backend.point_persistent,
                    **kwargs):
            calls[_shard] += 1
            return _call(*args, **kwargs)

        backend.point_persistent = counted
    return calls


def _deadline_counter(stage):
    return obs.counter(
        "repro_deadline_exceeded_total",
        "Requests aborted because their deadline expired, by stage.",
        stage=stage,
    )


class _CountdownDeadline(Deadline):
    """A deadline that runs out after its first ``checks`` looks."""

    def __init__(self, checks):
        super().__init__(float("inf"))
        self.checks = checks

    @property
    def expired(self):
        self.checks -= 1
        return self.checks < 0


@pytest.fixture()
def single_server():
    server = CentralServer(s=3, load_factor=2.0)
    for record in _records():
        server.receive_record(record)
    return server


@pytest.fixture()
def coordinator():
    backends = {
        shard: LocalShardBackend(ShardEngine(shard_id=shard))
        for shard in range(3)
    }
    coord = ShardedCoordinator(backends)
    for record in _records():
        ack = coord.ingest_frame(frame_payload(record.to_payload()))
        assert ack["outcome"] == "delivered"
    yield coord
    coord.close()


class TestMergeParity:
    def test_bit_for_bit_parity_with_single_process(
        self, coordinator, single_server
    ):
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        assert [o.location for o in merged.outcomes] == _LOCATIONS
        for outcome in merged.outcomes:
            expected = single_server.point_persistent(
                PointPersistentQuery(
                    location=outcome.location, periods=_PERIODS
                ),
                policy=_POLICY,
            )
            assert outcome.answered
            assert isinstance(expected, DegradedResult)
            # Dataclass equality on PointEstimate compares the raw
            # IEEE doubles: identical records -> identical bits.
            assert outcome.result.value == expected.value
            assert outcome.result.coverage == expected.coverage

    def test_holes_surface_as_uncovered_cells(self, coordinator):
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        assert set(merged.uncovered) == _HOLES
        assert merged.degraded
        assert merged.requested_cells == len(_LOCATIONS) * len(_PERIODS)
        assert merged.covered_cells == merged.requested_cells - len(_HOLES)
        assert merged.coverage_fraction == pytest.approx(
            1 - len(_HOLES) / merged.requested_cells
        )

    def test_strict_answers_are_normalized_to_full_coverage(
        self, coordinator, single_server
    ):
        # policy=None: shards answer raw PointEstimates for fully
        # covered locations; the merge must still expose coverage.
        covered = [
            loc
            for loc in _LOCATIONS
            if not any(h[0] == loc for h in _HOLES)
        ]
        merged = coordinator.multi_point_persistent(
            covered, _PERIODS, policy=None
        )
        assert merged.uncovered == ()
        assert not merged.degraded
        for outcome in merged.outcomes:
            expected = single_server.point_persistent(
                PointPersistentQuery(
                    location=outcome.location, periods=_PERIODS
                )
            )
            assert outcome.result.value == expected


class TestBatchedQueries:
    @pytest.mark.parametrize(
        "policy", [None, _POLICY], ids=["strict", "policy"]
    )
    @pytest.mark.parametrize("draw", range(5))
    def test_every_outcome_matches_single_process(
        self, coordinator, single_server, policy, draw
    ):
        rng = np.random.default_rng([_SEED, draw])
        shuffled = [int(loc) for loc in rng.permutation(_LOCATIONS)]
        if draw == 0:  # one location alone
            locations = shuffled[:1]
        elif draw == 1:  # a location asked twice
            locations = shuffled[:2] + shuffled[:1]
        else:
            locations = shuffled[: int(rng.integers(2, len(shuffled) + 1))]
        periods = tuple(
            sorted(int(p) for p in rng.choice(_PERIODS, 3, replace=False))
        )
        calls = _count_shard_requests(coordinator)
        merged = coordinator.multi_point_persistent(
            locations, periods, policy=policy
        )
        assert [o.location for o in merged.outcomes] == locations
        for outcome in merged.outcomes:
            expected = _expected(
                single_server, outcome.location, periods, policy
            )
            if isinstance(expected, str):
                assert outcome.result is None
                assert outcome.error == expected
            else:
                assert outcome.result == expected
        owners = {coordinator.router.shard_for(loc) for loc in locations}
        assert {s for s, n in calls.items() if n} == owners
        assert all(n <= 1 for n in calls.values())

    def test_refused_location_leaves_its_neighbours_answered(
        self, coordinator, single_server
    ):
        # Location 2 holds neither period 4 nor 5: below the floor.
        refused = 2
        shard = coordinator.router.shard_for(refused)
        group = [
            loc for loc in _LOCATIONS
            if coordinator.router.shard_for(loc) == shard
        ]
        assert len(group) > 1
        periods = (4, 5)
        calls = _count_shard_requests(coordinator)
        merged = coordinator.multi_point_persistent(
            group, periods, policy=_POLICY
        )
        assert calls[shard] == 1
        outcome = merged.outcome_for(refused)
        assert outcome.result is None
        assert "policy floor" in outcome.error
        for loc in group:
            if loc != refused:
                assert merged.outcome_for(loc).result == _expected(
                    single_server, loc, periods, _POLICY
                )

    @pytest.mark.parametrize("how", ["killed", "fenced"])
    def test_down_shard_uncovers_only_its_group(
        self, coordinator, single_server, how
    ):
        down = coordinator.router.shard_for(_LOCATIONS[0])
        if how == "killed":
            coordinator.backends[down].kill()
        else:
            coordinator.replace_backend(down, FencedShardBackend(down))
        calls = _count_shard_requests(coordinator)
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        assert set(calls.values()) == {1}
        dead = [
            loc for loc in _LOCATIONS
            if coordinator.router.shard_for(loc) == down
        ]
        assert set(merged.dead_locations) == set(dead)
        assert {cell for cell in merged.uncovered if cell[0] in dead} == {
            (loc, period) for loc in dead for period in _PERIODS
        }
        for loc in _LOCATIONS:
            if loc not in dead:
                assert merged.outcome_for(loc).result == _expected(
                    single_server, loc, _PERIODS, _POLICY
                )

    def test_deadline_expired_before_the_fanout_uncovers_every_cell(
        self, coordinator
    ):
        obs.enable()
        calls = _count_shard_requests(coordinator)
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY,
            deadline=Deadline.after(-1.0),
        )
        assert set(merged.dead_locations) == set(_LOCATIONS)
        assert merged.covered_cells == 0
        assert set(calls.values()) == {0}
        groups = coordinator.router.group_locations(_LOCATIONS)
        assert _deadline_counter("fanout").value == len(groups)
        assert _deadline_counter("shard").value == 0

    def test_deadline_expiring_mid_batch_answers_the_head(
        self, coordinator, single_server
    ):
        obs.enable()
        groups = coordinator.router.group_locations(_LOCATIONS)
        group = max(groups.values(), key=len)
        assert len(group) >= 3
        answered = 2
        # One look before the fan-out sends the request, then one per
        # location the shard starts.
        deadline = _CountdownDeadline(checks=1 + answered)
        merged = coordinator.multi_point_persistent(
            group, _PERIODS, policy=_POLICY, deadline=deadline
        )
        for loc in group[:answered]:
            assert merged.outcome_for(loc).result == _expected(
                single_server, loc, _PERIODS, _POLICY
            )
        assert merged.dead_locations == tuple(group[answered:])
        assert set(merged.uncovered) >= {
            (loc, period) for loc in group[answered:] for period in _PERIODS
        }
        assert _deadline_counter("shard").value == 1
        assert _deadline_counter("fanout").value == 0


class TestDeadShardMerging:
    def test_dead_shard_reports_exact_uncovered_cells(self, coordinator):
        dead_shard = coordinator.router.shard_for(_LOCATIONS[0])
        dead_locations = [
            loc
            for loc in _LOCATIONS
            if coordinator.router.shard_for(loc) == dead_shard
        ]
        surviving = [
            loc for loc in _LOCATIONS if loc not in dead_locations
        ]
        assert dead_locations and surviving  # the split is non-trivial
        coordinator.backends[dead_shard].kill()

        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        expected_dark = {
            (loc, period)
            for loc in dead_locations
            for period in _PERIODS
        }
        expected_holes = {
            cell for cell in _HOLES if cell[0] not in dead_locations
        }
        assert set(merged.uncovered) == expected_dark | expected_holes
        assert set(merged.dead_locations) == set(dead_locations)
        for loc in dead_locations:
            outcome = merged.outcome_for(loc)
            assert not outcome.answered
            assert outcome.error

    def test_surviving_shards_still_match_single_process(
        self, coordinator, single_server
    ):
        dead_shard = coordinator.router.shard_for(_LOCATIONS[0])
        coordinator.backends[dead_shard].kill()
        surviving = [
            loc
            for loc in _LOCATIONS
            if coordinator.router.shard_for(loc) != dead_shard
        ]
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        for loc in surviving:
            outcome = merged.outcome_for(loc)
            expected = single_server.point_persistent(
                PointPersistentQuery(location=loc, periods=_PERIODS),
                policy=_POLICY,
            )
            assert outcome.answered
            assert outcome.result.value == expected.value
            assert outcome.result.coverage == expected.coverage

    def test_revived_shard_answers_again(self, coordinator):
        dead_shard = coordinator.router.shard_for(_LOCATIONS[0])
        coordinator.backends[dead_shard].kill()
        assert coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        ).dead_locations
        coordinator.backends[dead_shard].revive()
        merged = coordinator.multi_point_persistent(
            _LOCATIONS, _PERIODS, policy=_POLICY
        )
        assert merged.dead_locations == ()


def _merged(coordinator, kind):
    """A merged answer of one kind, over every location and period."""
    if kind == "strict":
        covered = [
            loc for loc in _LOCATIONS if not any(h[0] == loc for h in _HOLES)
        ]
        return coordinator.multi_point_persistent(covered, _PERIODS)
    if kind == "degraded":  # location 5 misses period 0
        return coordinator.multi_point_persistent(
            [1, 5, 7], _PERIODS, policy=_POLICY
        )
    if kind == "refused":  # location 2 holds neither period 4 nor 5
        return coordinator.multi_point_persistent(
            _LOCATIONS, (3, 4, 5), policy=_POLICY
        )
    coordinator.backends[coordinator.router.shard_for(1)].kill()
    return coordinator.multi_point_persistent(
        _LOCATIONS, _PERIODS, policy=_POLICY
    )


class TestMergedWireForm:
    @pytest.mark.parametrize(
        "kind", ["strict", "degraded", "refused", "dead_shard"]
    )
    def test_round_trip_is_exact(self, coordinator, kind):
        merged = _merged(coordinator, kind)
        wired = json.loads(json.dumps(encode_sharded_result(merged)))
        assert decode_sharded_result(wired) == merged

    def test_round_trips_cover_every_outcome_shape(self, coordinator):
        assert not _merged(coordinator, "strict").degraded
        degraded = _merged(coordinator, "degraded").outcome_for(5)
        assert degraded.result.coverage.missing == (0,)
        assert _merged(coordinator, "refused").outcome_for(2).error
        assert _merged(coordinator, "dead_shard").dead_locations

    def test_full_coverage_is_sent_as_the_bare_estimate(self, coordinator):
        encoded = encode_sharded_result(_merged(coordinator, "degraded"))
        results = {
            entry["location"]: entry["result"] for entry in encoded["outcomes"]
        }
        for location in (1, 7):
            assert results[location]["type"] == "point"
            assert "requested" not in results[location]
            assert "covered" not in results[location]
        assert results[5]["type"] == "degraded"
        assert results[5]["requested"] == list(_PERIODS)
        assert results[5]["covered"] == list(_PERIODS[1:])


class TestIngestFaults:
    def test_unroutable_frame_dead_letters_at_the_front_door(
        self, coordinator
    ):
        before = len(coordinator.dead_letters)
        ack = coordinator.ingest_frame(b"garbage, not a frame")
        assert ack == {"outcome": "quarantined", "reason": "malformed"}
        assert len(coordinator.dead_letters) == before + 1
        assert coordinator.dead_letters.entries[-1].reason == "malformed"

    def test_corrupt_frame_dead_letters_at_its_shard(self, coordinator):
        frame = bytearray(frame_payload(_record(1, 0).to_payload()))
        frame[-1] ^= 0xFF  # payload damage: routes fine, checksum fails
        shard = coordinator.router.shard_for(1)
        engine = coordinator.backends[shard].engine
        before = len(engine.dead_letters)
        ack = coordinator.ingest_frame(bytes(frame))
        assert ack["outcome"] == "quarantined"
        assert ack["reason"] == "checksum"
        assert len(engine.dead_letters) == before + 1

    def test_frames_for_a_dead_shard_are_quarantined_not_raised(
        self, coordinator
    ):
        shard = coordinator.router.shard_for(3)
        coordinator.backends[shard].kill()
        ack = coordinator.ingest_frame(
            frame_payload(_record(3, 0).to_payload())
        )
        assert ack == {"outcome": "quarantined", "reason": "shard_down"}
        assert (
            coordinator.dead_letters.entries[-1].reason == "shard_down"
        )

    def test_batch_with_a_dead_shard_counts_honestly(self, coordinator):
        shard = coordinator.router.shard_for(3)
        doomed = [
            loc
            for loc in range(100, 160)
            if coordinator.router.shard_for(loc) == shard
        ][:4]
        safe = [
            loc
            for loc in range(100, 160)
            if coordinator.router.shard_for(loc) != shard
        ][:6]
        coordinator.backends[shard].kill()
        frames = [
            frame_payload(_record(loc, 0).to_payload())
            for loc in doomed + safe
        ] + [b"junk"]
        counts = coordinator.ingest_batch(frames)
        assert counts["delivered"] == len(safe)
        assert counts["quarantined"] == len(doomed) + 1


    def test_batch_counts_every_routed_outcome(self):
        obs.enable()
        coordinator = ShardedCoordinator(
            {
                shard: LocalShardBackend(ShardEngine(shard_id=shard))
                for shard in range(2)
            }
        )
        try:
            duplicate = frame_payload(_record(100, 0).to_payload())
            assert coordinator.ingest_frame(duplicate)["outcome"] == (
                "delivered"
            )
            corrupt = bytearray(frame_payload(_record(104, 0).to_payload()))
            corrupt[-1] ^= 0xFF
            fresh = [
                frame_payload(_record(loc, 0).to_payload())
                for loc in (101, 102, 103)
            ]
            outcomes = ("delivered", "duplicate", "quarantined")
            routed = {
                outcome: obs.counter(
                    "repro_ingest_frames_total",
                    "Upload frames routed by the sharded front door, by "
                    "outcome.",
                    outcome=outcome,
                )
                for outcome in outcomes
            }
            before = {o: routed[o].value for o in outcomes}
            counts = coordinator.ingest_batch(
                fresh + [duplicate, bytes(corrupt)]
            )
            assert counts == {"delivered": 3, "duplicate": 1, "quarantined": 1}
            assert {o: routed[o].value - before[o] for o in outcomes} == counts
        finally:
            coordinator.close()


class TestMergedStats:
    def test_stats_sum_records_across_shards(self, coordinator):
        stats = coordinator.stats()
        assert stats["records"] == len(_records())
        assert set(stats["shards"]) == {"0", "1", "2"}
        per_shard = sum(
            payload["records"] for payload in stats["shards"].values()
        )
        assert per_shard == stats["records"]
        assert json.dumps(stats)  # the payload must stay JSON-safe

    def test_stats_mark_dead_shards(self, coordinator):
        coordinator.backends[1].kill()
        stats = coordinator.stats()
        assert stats["shards"]["1"]["alive"] is False
        assert stats["shards"]["0"]["alive"] is True
