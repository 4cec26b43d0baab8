"""Sharded TCP ingest throughput: shards and framing, measured honestly.

The unit of work is one RFR1 upload frame crossing a real socket into
a shard worker (parse, checksum, decode, store, WAL append).  Two
dimensions are swept, every figure landing in ``BENCH_ingest.json`` at
the repo root:

* **shard count** — the same batched workload against a 1-shard and a
  2-shard tier, five timed passes each in ABBA order (a fresh tier per
  pass), compared by the ratio of their median seconds: one pass lasts
  about a tenth of a second, so a single pair of passes can land on
  either side of 1.0 by chance.  Shard scaling needs real cores: the
  2 > 1 shard assertion runs here only when ``os.cpu_count() >= 2``
  (the ``projected_4core_speedup`` convention of the estimator bench),
  but CI asserts the recorded JSON unconditionally — GitHub runners
  are multi-core, so a scaling regression fails the build there.
* **framing** — the same records pushed one ``MSG_UPLOAD`` round trip
  per frame vs ``MSG_UPLOAD_BATCH`` sub-frame packing.  Batching
  amortizes the per-message round trip, so its win holds even on one
  core and is asserted here unconditionally.

Every run is verified before timing is trusted: the tier must report
exactly the pushed record count, with zero quarantines.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.common import bench_environment
from repro.faults.transport import frame_payload
from repro.rsu.record import TrafficRecord
from repro.server.sharded.client import ShardClient
from repro.server.sharded.service import ShardedIngestService
from repro.sketch.bitmap import Bitmap

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_ingest.json"

_SEED = 2017
#: Workload shape: 50 locations x 60 periods of 2^12-bit records.
_LOCATIONS = 50
_PERIODS = 60
_BITS = 1 << 12
_BATCH_SIZE = 250
#: Frames pushed one round trip at a time for the framing comparison.
_UNBATCHED_FRAMES = 400
#: Timed batched passes per shard count.
_TRIALS = 5


def _build_frames():
    rng = np.random.default_rng([_SEED, 0x1962])
    frames = []
    for location in range(1, _LOCATIONS + 1):
        for period in range(_PERIODS):
            bitmap = Bitmap(_BITS, rng.random(_BITS) < 0.4)
            record = TrafficRecord(
                location=location, period=period, bitmap=bitmap
            )
            frames.append(frame_payload(record.to_payload()))
    return frames


def _timed_ingest(n_shards, frames, batch_size):
    """Push ``frames`` into a fresh ``n_shards``-shard tier; returns
    (seconds, records/s), having verified every frame landed."""
    with tempfile.TemporaryDirectory(prefix="bench-ingest-") as tmp:
        with ShardedIngestService(n_shards, tmp) as service:
            client = ShardClient("127.0.0.1", service.port)
            try:
                delivered = 0
                started = time.perf_counter()
                if batch_size > 1:
                    for start in range(0, len(frames), batch_size):
                        counts = client.upload_batch(
                            frames[start : start + batch_size]
                        )
                        delivered += counts.get("delivered", 0)
                else:
                    for frame in frames:
                        ack = client.upload(frame)
                        delivered += ack["outcome"] == "delivered"
                seconds = time.perf_counter() - started
                stats = client.stats()
                assert delivered == len(frames), (
                    f"{delivered}/{len(frames)} frames delivered"
                )
                assert stats["records"] == len(frames)
            finally:
                client.close()
    return seconds, len(frames) / seconds


def test_ingest_throughput():
    frames = _build_frames()
    cpu_count = os.cpu_count() or 1

    # ABBA order: drift in the host's load falls on both shard counts.
    trials = {1: [], 2: []}
    for trial in range(2 * _TRIALS):
        shards = (1, 2, 2, 1)[trial % 4]
        trials[shards].append(_timed_ingest(shards, frames, _BATCH_SIZE)[0])
    single_seconds = float(np.median(trials[1]))
    sharded_seconds = float(np.median(trials[2]))
    single_rps = len(frames) / single_seconds
    sharded_rps = len(frames) / sharded_seconds
    unbatched_seconds, unbatched_rps = _timed_ingest(
        1, frames[:_UNBATCHED_FRAMES], 1
    )

    shard_speedup = sharded_rps / single_rps
    framing_speedup = single_rps / unbatched_rps

    payload = {
        "workload": {
            "records": len(frames),
            "bitmap_bits": _BITS,
            "locations": _LOCATIONS,
            "periods": _PERIODS,
            "batch_size": _BATCH_SIZE,
            "unbatched_frames": _UNBATCHED_FRAMES,
            "batched_trials": _TRIALS,
        },
        "hardware": {"cpu_count": cpu_count},
        "environment": bench_environment(),
        "seconds": {
            "single_shard_batched": round(single_seconds, 4),
            "two_shard_batched": round(sharded_seconds, 4),
            "single_shard_unbatched": round(unbatched_seconds, 4),
        },
        "trial_seconds": {
            "single_shard_batched": [round(t, 4) for t in trials[1]],
            "two_shard_batched": [round(t, 4) for t in trials[2]],
        },
        "records_per_second": {
            "single_shard_batched": round(single_rps, 1),
            "two_shard_batched": round(sharded_rps, 1),
            "single_shard_unbatched": round(unbatched_rps, 1),
        },
        "speedup": {
            "two_shard_vs_single": round(shard_speedup, 3),
            "batched_vs_unbatched": round(framing_speedup, 3),
        },
        "notes": (
            "Batched figures are medians of trial_seconds: 1- and "
            "2-shard passes alternate in ABBA order, each on a fresh "
            "tier. CI asserts two_shard_vs_single > 1.0 and "
            "batched_vs_unbatched > 1.0 on the regenerated JSON "
            "(multi-core runners). In-test, the shard assertion is "
            "gated on cpu_count >= 2: two processes cannot out-ingest "
            "one on a single core."
        ),
    }
    _BENCH_PATH.write_text(
        json.dumps({"ingest": payload}, indent=2) + "\n"
    )
    assert json.loads(_BENCH_PATH.read_text())["ingest"]

    # Framing amortization does not need cores — always asserted.
    assert framing_speedup > 1.0, (
        f"batched framing only {framing_speedup:.2f}x unbatched "
        f"({single_rps:.0f} vs {unbatched_rps:.0f} records/s)"
    )
    # Shard scaling needs real parallel hardware.
    if cpu_count >= 2:
        assert shard_speedup > 1.0, (
            f"2 shards only {shard_speedup:.2f}x a single shard "
            f"({sharded_rps:.0f} vs {single_rps:.0f} records/s)"
        )
