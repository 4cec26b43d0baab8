"""perfbench's traced mode still reaches every layer it wraps.

``perfbench/spans.py`` wraps program functions by name from outside
the program (``install_driver`` in the load generator,
``install_tier`` in each tier process), and some wrappers accept only
the call shape the program uses today.  A function renamed, moved off
its class or called in another shape leaves a layer without rows, or
fails the request; before this test only CI's traced perfbench smoke
saw that.  Here a fresh interpreter installs both wrapper sets, drives
one upload, one ``multi_point_persistent`` query and one
``point_persistent`` query through an in-process front door to an
in-process shard worker's request server, and reports which layers
recorded rows.  A fresh interpreter, because the wrappers patch
classes and modules for the rest of the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_ROOT = Path(repro.__file__).resolve().parents[2]
_SRC = _ROOT / "src"
_PERFBENCH = _ROOT / "perfbench"

#: Layers an upload crosses; each row carries the upload's key, its
#: (location, period), which joins the rows across processes.
_UPLOAD_LAYERS = (
    # load generator
    "rsu.record.to_payload",
    "faults.transport.frame",
    "faults.transport.send",
    "server.sharded.client.upload",
    # front door
    "server.sharded.frontdoor.dispatch",
    "server.sharded.coordinator.ingest_frame",
    "server.sharded.frontdoor.deliver_frame",
    # shard
    "server.sharded.engine.handle_frame",
    "faults.transport.parse",
    "rsu.record.from_payload",
    "server.central.receive_record",
    "server.sharded.wal.append",
)
#: Every other layer the requests and the shard's recovery reach (all
#: but the service start, which an in-process front door does not run).
_OTHER_LAYERS = (
    "server.sharded.client.query",
    "server.sharded.wire.sent",
    "server.sharded.wire.received",
    "server.sharded.coordinator.multi_point_persistent",
    "server.sharded.frontdoor.point_persistent",
    "server.sharded.engine.handle_query",
    "server.central.point_persistent",
    "server.cache.split_join",
    "sketch.join.split_and_join",
    "core.point.estimate_from_split",
    "server.sharded.worker.recover_engine",
    "server.sharded.wal.replay_into_archive",
)

_DRIVE = r"""
import json
import sys
import threading
from pathlib import Path

import numpy as np

from repro.rsu.record import TrafficRecord
from repro.server.sharded import wal, wire, worker
from repro.sketch.bitmap import Bitmap

LOCATION = 7


def record(period):
    rng = np.random.default_rng([2017, LOCATION, period])
    bits = rng.random(256) < 0.4
    return TrafficRecord(
        location=LOCATION, period=period, bitmap=Bitmap(256, bits)
    )


config = worker.ShardConfig(shard_id=0, data_dir=sys.argv[2])
Path(config.data_dir).mkdir(parents=True)
# Period 0 reaches the shard through its WAL replay, period 1 over TCP.
log = wal.ShardWriteAheadLog(config.wal_path)
log.append(record(0).to_payload())
log.close()

sys.path.insert(0, sys.argv[1])
import spans

spans.install_driver()
spans.install_tier()

from repro.faults.transport import UploadTransport
from repro.server.sharded.client import ShardClient, TcpUploadClient
from repro.server.sharded.coordinator import ShardedCoordinator
from repro.server.sharded.frontdoor import FrontDoor, RemoteShardBackend

shard = worker._ShardServer(("127.0.0.1", 0), worker.recover_engine(config))
serving = threading.Thread(
    target=shard.serve_forever, kwargs={"poll_interval": 0.05}
)
serving.start()
backend = RemoteShardBackend(0, "127.0.0.1", shard.server_address[1])
door = FrontDoor(ShardedCoordinator({0: backend}))
door.start()
uploads = TcpUploadClient.connect(f"tcp://127.0.0.1:{door.port}")
receipt = UploadTransport(wire=uploads).send(record(1))
analyst = ShardClient("127.0.0.1", door.port)
multi = analyst.query(
    {
        "kind": "multi_point_persistent",
        "locations": [LOCATION],
        "periods": [0, 1],
    }
)
point = analyst.query(
    {"kind": "point_persistent", "location": LOCATION, "periods": [0, 1]}
)
analyst.close()
uploads.close()
door.stop()
door.coordinator.close()
shard.shutdown()
serving.join()
# A graceful worker shutdown closes its server, which dumps the rows.
shard.server_close()

rows = spans.load(Path(sys.argv[3]))
everything = np.concatenate(list(rows.values()))
dispatch = spans.named(everything, "server.sharded.frontdoor.dispatch")
keys = {}
for name, key in everything[:, [spans.NAME, spans.KEY]].tolist():
    keys.setdefault(spans.NAMES[name], set()).add(key)
print(json.dumps({
    "roles": sorted(rows),
    "outcome": receipt.outcome.value,
    "answered": [multi["ok"], point["ok"]],
    "keys": {name: sorted(found) for name, found in keys.items()},
    "upload_key": spans.record_key(LOCATION, 1),
    "dispatched": sorted(set(dispatch[:, spans.VALUE].tolist())),
    "types": [wire.MSG_UPLOAD, wire.MSG_QUERY],
}))
"""


def test_traced_requests_record_every_layer_they_reach(tmp_path):
    span_dir = tmp_path / "spans"
    span_dir.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(_SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PERFBENCH_SPAN_DIR=str(span_dir),
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _DRIVE,
            str(_PERFBENCH),
            str(tmp_path / "shard-0"),
            str(span_dir),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # One process played every role; the worker's dump names it.
    assert report["roles"] == ["shard0"]
    assert report["outcome"] == "delivered"
    assert report["answered"] == [True, True]
    keys = report["keys"]
    missing = [
        name
        for name in _UPLOAD_LAYERS
        if report["upload_key"] not in keys.get(name, ())
    ] + [name for name in _OTHER_LAYERS if name not in keys]
    assert not missing, f"no rows for {missing}"
    # The layer budget splits the front door's rows by message type.
    assert report["dispatched"] == sorted(report["types"])
