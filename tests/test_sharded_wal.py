"""Write-ahead log durability and the WAL → archive-repair replay."""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.rsu.record import TrafficRecord
from repro.server.persistence import RecordArchive
from repro.server.sharded.engine import ShardEngine
from repro.server.sharded.wal import ShardWriteAheadLog, replay_into_archive
from repro.server.sharded.worker import ShardConfig, recover_engine
from repro.sketch.bitmap import Bitmap
from repro.faults.transport import frame_payload


def _record(location, period, seed=0, bits=128):
    rng = np.random.default_rng([seed, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(bits, rng.random(bits) < 0.5),
    )


class TestWalRoundTrip:
    def test_append_then_replay(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        payloads = [_record(1, p).to_payload() for p in range(5)]
        for payload in payloads:
            wal.append(payload)
        assert wal.entries_written == 5
        assert list(wal.replay()) == payloads

    def test_replay_from_fresh_handle(self, tmp_path):
        # A restarted process opens the same file and sees everything.
        path = tmp_path / "wal.log"
        first = ShardWriteAheadLog(path)
        first.append(b"alpha")
        first.append(b"beta")
        first.close()
        second = ShardWriteAheadLog(path)
        assert list(second.replay()) == [b"alpha", b"beta"]
        assert second.entries_written == 0  # replays aren't appends

    def test_truncate_drops_entries(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        wal.append(b"gone")
        wal.truncate()
        assert list(wal.replay()) == []
        wal.append(b"kept")
        assert list(wal.replay()) == [b"kept"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = ShardWriteAheadLog(path)
        wal.append(b"intact entry")
        wal.append(b"torn entry")
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # the SIGKILL-mid-write case
        assert list(ShardWriteAheadLog(path).replay()) == [b"intact entry"]

    def test_corrupt_tail_crc_is_tolerated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = ShardWriteAheadLog(path)
        wal.append(b"intact entry")
        wal.append(b"flipped entry")
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert list(ShardWriteAheadLog(path).replay()) == [b"intact entry"]

    def test_mid_file_corruption_raises(self, tmp_path):
        # Damage *before* intact entries is not a torn tail — the
        # operator must hear about it instead of silently losing acks.
        path = tmp_path / "wal.log"
        wal = ShardWriteAheadLog(path)
        wal.append(b"first entry payload")
        wal.append(b"second entry payload")
        wal.close()
        data = bytearray(path.read_bytes())
        data[8] ^= 0xFF  # first entry's payload byte -> CRC mismatch
        path.write_bytes(bytes(data))
        with pytest.raises(DataError):
            list(ShardWriteAheadLog(path).replay())


class TestReplayIntoArchive:
    def test_wal_payloads_become_repaired_records(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        records = [_record(7, p) for p in range(3)]
        for record in records:
            wal.append(record.to_payload())
        archive, recovered = replay_into_archive(wal, tmp_path / "archive")
        assert sorted(recovered) == [(7, 0), (7, 1), (7, 2)]
        assert archive.entries() == [(7, 0), (7, 1), (7, 2)]
        for record in records:
            assert archive.load(record.location, record.period) == record
        # Success truncates: the records are durable in the archive now.
        assert list(wal.replay()) == []

    def test_existing_archive_files_win(self, tmp_path):
        # A record already archived (earlier recovery or save) must not
        # be clobbered by a WAL payload of the same (location, period).
        archive_dir = tmp_path / "archive"
        first = _record(3, 1, seed=1)
        RecordArchive(archive_dir).save(first)
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        wal.append(first.to_payload())
        archive, recovered = replay_into_archive(wal, archive_dir)
        assert recovered == []
        assert archive.load(3, 1) == first

    def test_undecodable_wal_payload_is_skipped(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        wal.append(b"this is not a traffic record")
        wal.append(_record(2, 0).to_payload())
        archive, recovered = replay_into_archive(wal, tmp_path / "archive")
        assert recovered == [(2, 0)]
        assert len(archive) == 1


class TestEngineWalContract:
    def test_delivered_acks_are_replayable(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        engine = ShardEngine(shard_id=0, wal=wal)
        records = [_record(5, p) for p in range(4)]
        for record in records:
            ack = engine.handle_frame(frame_payload(record.to_payload()))
            assert ack["outcome"] == "delivered"
        assert wal.entries_written == 4
        assert list(wal.replay()) == [r.to_payload() for r in records]

    def test_duplicates_and_quarantines_never_hit_the_wal(self, tmp_path):
        wal = ShardWriteAheadLog(tmp_path / "wal.log")
        engine = ShardEngine(shard_id=0, wal=wal)
        frame = frame_payload(_record(5, 0).to_payload())
        assert engine.handle_frame(frame)["outcome"] == "delivered"
        assert engine.handle_frame(frame)["outcome"] == "duplicate"
        corrupt = bytearray(frame)
        corrupt[10] ^= 0xFF
        assert (
            engine.handle_frame(bytes(corrupt))["outcome"] == "quarantined"
        )
        assert wal.entries_written == 1

    def test_sigkill_then_recover_engine_restores_acked_records(
        self, tmp_path
    ):
        # The in-process version of the kill-and-replay drill: the
        # engine is dropped without any close/flush courtesy (the WAL
        # flushes per append, so SIGKILL loses nothing acknowledged),
        # and recover_engine runs the worker's exact startup path.
        config = ShardConfig(shard_id=0, data_dir=str(tmp_path))
        wal = ShardWriteAheadLog(config.wal_path)
        engine = ShardEngine(shard_id=0, wal=wal)
        records = [_record(loc, p) for loc in (1, 2) for p in range(3)]
        for record in records:
            ack = engine.handle_frame(frame_payload(record.to_payload()))
            assert ack["outcome"] == "delivered"
        del engine  # no close(): simulated SIGKILL

        revived = recover_engine(config)
        assert len(revived.server.store) == len(records)
        for record in records:
            assert revived.server.store.get(record.location, record.period) == record
        # The archive now owns the records; the WAL starts empty.
        assert list(revived.wal.replay()) == []

    def test_failed_wal_append_leaves_the_retry_deliverable(
        self, tmp_path, monkeypatch
    ):
        # A WAL write error must not leave the record in memory only:
        # the retry would then be acked ``duplicate`` and a restart
        # would lose an acknowledged record.
        config = ShardConfig(shard_id=0, data_dir=str(tmp_path))
        wal = ShardWriteAheadLog(config.wal_path)
        engine = ShardEngine(shard_id=0, wal=wal)
        append = wal.append
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def append_failing_once(payload):
            if failures:
                raise failures.pop()
            append(payload)

        monkeypatch.setattr(wal, "append", append_failing_once)
        record = _record(3, 1)
        frame = frame_payload(record.to_payload())
        with pytest.raises(OSError):
            engine.handle_frame(frame)
        assert engine.handle_frame(frame)["outcome"] == "delivered"
        assert list(wal.replay()) == [record.to_payload()]
        del engine  # no close(): simulated SIGKILL

        revived = recover_engine(config)
        assert len(revived.server.store) == 1
        assert revived.server.store.get(3, 1) == record

    def test_recovery_is_idempotent_across_restarts(self, tmp_path):
        config = ShardConfig(shard_id=0, data_dir=str(tmp_path))
        wal = ShardWriteAheadLog(config.wal_path)
        engine = ShardEngine(shard_id=0, wal=wal)
        record = _record(9, 2)
        engine.handle_frame(frame_payload(record.to_payload()))
        del engine

        first = recover_engine(config)
        first.wal.close()
        second = recover_engine(config)
        assert len(second.server.store) == 1
        assert second.server.store.get(9, 2) == record
