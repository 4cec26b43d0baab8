"""CI ingest smoke: boot a sharded tier, batter it, kill it, revive it.

Run as a *file* (``python scripts/ingest_smoke.py``), never piped to
stdin: the shard workers use the ``spawn`` multiprocessing context,
which re-imports ``__main__`` from its path in each child.

The drill, end to end over real TCP:

1. boot a 2-shard tier on an ephemeral port, with the full cluster
   observability plane up: worker telemetry shipping, a front-door
   :class:`~repro.obs.cluster.ClusterTelemetry` collector, and a
   cluster-merged :class:`~repro.obs.httpd.MetricsServer`;
2. push a few thousand RFR1 frames in batches, plus one RFR2 frame
   carrying a client trace context and one corrupted frame that must
   be dead-lettered — not crash anything;
3. scrape ``/metrics``, ``/traces`` and ``/shards`` mid-drill and
   assert the merged view: cluster upload totals match what the tier
   acknowledged, the traced upload renders as one connected
   cross-process trace (client context + shard-side spans), both
   shards report alive.  The scrape bodies are written next to the
   repo root (``smoke_metrics.prom``, ``smoke_traces.json``,
   ``smoke_shards.json``) for CI to archive;
4. SIGKILL one shard and assert the merged query degrades honestly
   (every cell of the dead shard's locations reported uncovered) and
   that ``/shards`` reports the dead worker;
5. restart the shard and assert WAL replay restored every
   acknowledged record, bit-for-bit queryable again, and ``/shards``
   shows the tier healthy.
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.request

import numpy as np

from repro import obs
from repro.faults.transport import frame_payload
from repro.obs.trace import TraceContext, new_span_id, new_trace_id
from repro.rsu.record import TrafficRecord
from repro.server.degradation import CoveragePolicy
from repro.server.sharded.client import ShardClient
from repro.server.sharded.engine import policy_to_payload
from repro.server.sharded.frontdoor import decode_sharded_result
from repro.server.sharded.service import ShardedIngestService
from repro.sketch.bitmap import Bitmap

SEED = 2017
LOCATIONS = 40
PERIODS = 50  # 40 x 50 = 2000 frames
BITS = 1 << 10
BATCH = 200
POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)

#: Scrape artifacts CI uploads (written to the working directory).
METRICS_ARTIFACT = "smoke_metrics.prom"
TRACES_ARTIFACT = "smoke_traces.json"
SHARDS_ARTIFACT = "smoke_shards.json"


def build_frames():
    rng = np.random.default_rng([SEED, 0x51])
    frames = []
    for location in range(1, LOCATIONS + 1):
        for period in range(PERIODS):
            record = TrafficRecord(
                location=location,
                period=period,
                bitmap=Bitmap(BITS, rng.random(BITS) < 0.4),
            )
            frames.append(frame_payload(record.to_payload()))
    return frames


def scrape(port: int, path: str) -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read()


def scrape_shards(port: int) -> dict:
    payload = json.loads(scrape(port, "/shards"))
    return payload["shards"]


def query(client, locations):
    reply = client.query(
        {
            "kind": "multi_point_persistent",
            "locations": locations,
            "periods": list(range(PERIODS)),
            "policy": policy_to_payload(POLICY),
        }
    )
    assert reply["ok"], reply
    return decode_sharded_result(reply["result"])


def observability_drill(service, client, http_port: int, delivered: int):
    """Mid-drill scrapes: merged metrics, connected trace, shard health.

    Uploads one RFR2 frame whose embedded client context must come back
    from ``/traces`` joined with the shard-side spans it caused, then
    asserts the cluster-merged ``/metrics`` accounts every upload the
    tier acknowledged.  Each scrape body is archived for CI.
    """
    context = TraceContext(new_trace_id(), new_span_id())
    rng = np.random.default_rng([SEED, 0x7C])
    traced_record = TrafficRecord(
        location=1,
        period=PERIODS,  # a cell none of the bulk frames used
        bitmap=Bitmap(BITS, rng.random(BITS) < 0.4),
    )
    ack = client.upload(
        frame_payload(traced_record.to_payload(), context=context)
    )
    assert ack["outcome"] == "delivered", ack

    metrics_text = scrape(http_port, "/metrics").decode("utf-8")
    with open(METRICS_ARTIFACT, "w") as handle:
        handle.write(metrics_text)
    samples = obs.parse_prometheus(metrics_text)
    uploads = {
        labels: value
        for (name, labels), value in samples.items()
        if name == "repro_shard_uploads_total"
    }
    outcome_totals = {}
    for labels, value in uploads.items():
        outcome = dict(labels).get("outcome")
        outcome_totals[outcome] = outcome_totals.get(outcome, 0) + value
    assert outcome_totals.get("delivered") == delivered + 1, outcome_totals
    assert outcome_totals.get("quarantined", 0) >= 1, outcome_totals
    shipped = sum(
        value
        for (name, _), value in samples.items()
        if name == "repro_telemetry_spans_shipped_total"
    )
    assert shipped >= 1, "no shard shipped any spans"

    traces_body = scrape(http_port, "/traces").decode("utf-8")
    with open(TRACES_ARTIFACT, "w") as handle:
        handle.write(traces_body)
    traces = json.loads(traces_body)["traces"]
    by_id = {trace["trace_id"]: trace for trace in traces}
    assert context.trace_id in by_id, (
        context.trace_id,
        sorted(by_id),
    )
    span_names = {
        span["name"] for span in by_id[context.trace_id]["spans"]
    }
    assert "shard.ingest" in span_names, span_names
    assert "shard.wal_append" in span_names, span_names

    shards_body = scrape(http_port, "/shards").decode("utf-8")
    with open(SHARDS_ARTIFACT, "w") as handle:
        handle.write(shards_body)
    shards = json.loads(shards_body)["shards"]
    assert len(shards) == service.n_shards, shards
    assert all(entry["alive"] for entry in shards.values()), shards
    print(
        f"mid-drill scrapes ok: {len(samples)} merged samples, "
        f"trace {context.trace_id} connected across "
        f"{len(span_names)} span names, {len(shards)} shards alive"
    )


def main() -> int:
    frames = build_frames()
    locations = list(range(1, LOCATIONS + 1))
    obs.enable(registry=obs.MetricsRegistry(), trace=obs.TraceBuffer())
    http_server = None
    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        with ShardedIngestService(2, tmp, shard_telemetry=True) as service:
            cluster = service.cluster_telemetry()
            http_server = obs.MetricsServer(port=0, cluster=cluster)
            http_port = http_server.start()
            client = ShardClient("127.0.0.1", service.port)
            try:
                delivered = 0
                for start in range(0, len(frames), BATCH):
                    counts = client.upload_batch(frames[start : start + BATCH])
                    delivered += counts.get("delivered", 0)
                assert delivered == len(frames), (delivered, len(frames))
                print(f"delivered {delivered} frames over TCP")

                corrupt = bytearray(frames[0])
                corrupt[-1] ^= 0xFF
                ack = client.upload(bytes(corrupt))
                assert ack == {
                    "outcome": "quarantined",
                    "reason": "checksum",
                }, ack
                assert client.ping(), "tier died on a corrupted frame"
                stats = client.stats()
                assert stats["records"] == len(frames), stats["records"]
                dead_letters = sum(
                    shard["dead_letters"]
                    for shard in stats["shards"].values()
                )
                assert dead_letters >= 1, stats
                print("corrupted frame dead-lettered, tier still serving")

                observability_drill(service, client, http_port, delivered)
                total_records = len(frames) + 1  # bulk + traced frame

                healthy = query(client, locations)
                assert not healthy.degraded, healthy.uncovered[:5]

                service.kill_shard(0)
                degraded = query(client, locations)
                dead = set(degraded.dead_locations)
                expected_dead = {
                    loc
                    for loc in locations
                    if service.coordinator.router.shard_for(loc) == 0
                }
                assert dead == expected_dead and dead, (dead, expected_dead)
                assert set(degraded.uncovered) == {
                    (loc, period)
                    for loc in dead
                    for period in range(PERIODS)
                }
                shards = scrape_shards(http_port)
                assert not shards["0"]["alive"], shards["0"]
                assert shards["1"]["alive"], shards["1"]
                print(
                    f"killed shard 0: {len(dead)} locations / "
                    f"{len(degraded.uncovered)} cells reported uncovered, "
                    f"/shards reports the dead worker"
                )

                service.restart_shard(0)
                recovered = query(client, locations)
                assert recovered.dead_locations == (), recovered.dead_locations
                assert not recovered.degraded, recovered.uncovered[:5]
                assert client.stats()["records"] == total_records
                shards = scrape_shards(http_port)
                assert all(entry["alive"] for entry in shards.values()), shards
                print(
                    f"restarted shard 0: WAL replay restored all "
                    f"{total_records} acknowledged records, "
                    f"/shards healthy again"
                )
            finally:
                client.close()
                http_server.stop()
                obs.disable()
    print("ingest smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
