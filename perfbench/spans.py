"""Spans around the calls into each layer, recorded from outside the program.

:func:`install_driver` wraps the client-side layers in the benchmark's
own process; :func:`install_tier` wraps the server-side layers in every
tier process (``traced_serve.py`` calls it when imported, which also
reaches the spawned shard workers).  Each wrapped call appends one row
to an in-memory ``array('q')``::

    name, thread id, op key, start ns, end ns, self ns, value

``start``/``end`` come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC,
shared by every process on the host), so spans of different processes
can be laid on one time line.  "Self" is the call's duration minus the
durations of wrapped calls nested in it on the same thread.  The op
key of an upload is its ``(location, period)``, read from the frame,
payload or record the call receives, so an upload's spans join across
processes exactly.  Queries carry no key; the benchmark issues them on
one connection, one at a time, so time containment assigns them.

Tier processes write their rows when they shut down gracefully: shard
workers as their socket server closes, the serve process at exit.
"""

from __future__ import annotations

import atexit
import inspect
import os
import signal
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Environment variable naming the directory tier processes dump into.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

NAMES = (
    # driver
    "rsu.record.to_payload",
    "faults.transport.frame",
    "faults.transport.send",
    "server.sharded.client.upload",
    "server.sharded.client.query",
    "server.sharded.wire.sent",
    "server.sharded.wire.received",
    # front door
    "server.sharded.frontdoor.dispatch",
    "server.sharded.coordinator.ingest_frame",
    "server.sharded.frontdoor.deliver_frame",
    "server.sharded.coordinator.multi_point_persistent",
    "server.sharded.frontdoor.point_persistent",
    "server.sharded.service.start",
    # shard
    "server.sharded.engine.handle_frame",
    "faults.transport.parse",
    "rsu.record.from_payload",
    "server.central.receive_record",
    "server.sharded.wal.append",
    "server.sharded.engine.handle_query",
    "server.central.point_persistent",
    "server.cache.split_join",
    "sketch.join.split_and_join",
    "core.point.estimate_from_split",
    "server.sharded.worker.recover_engine",
    "server.sharded.wal.replay_into_archive",
)
ID = {name: index for index, name in enumerate(NAMES)}
FIELDS = 7
(NAME, TID, KEY, START, END, SELF, VALUE) = range(FIELDS)

_rows = array("q")
_local = threading.local()
_process = {"role": "driver", "dumped": False}
_now = time.perf_counter_ns
_tid = threading.get_native_id


def record_key(location: int, period: int) -> int:
    """The op key of one upload."""
    return (int(location) << 32) | int(period)


def _payload_key(payload) -> int:
    return record_key(
        int.from_bytes(payload[:8], "little"),
        int.from_bytes(payload[8:16], "little"),
    )


#: Payload offset in an RFR1 frame (magic + SHA-256) and in an RFR2
#: frame (which adds a 24-byte trace context).
_RFR1_PAYLOAD = 4 + 32
_RFR2_PAYLOAD = _RFR1_PAYLOAD + 24


def _frame_key(frame) -> int:
    offset = _RFR2_PAYLOAD if frame[:4] == b"RFR2" else _RFR1_PAYLOAD
    return _payload_key(frame[offset : offset + 16])


def _stack() -> List[int]:
    """This thread's stack of child-time accumulators; slot 0 is its tid."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = [_tid()]
    return stack


def _timed(
    name: str,
    original: Callable,
    key: Optional[Callable] = None,
    value: Optional[Callable] = None,
) -> Callable:
    """Wrap ``original`` so each call appends one span row."""
    name_id = ID[name]

    def wrapper(*args, **kwargs):
        stack = _stack()
        stack.append(0)
        start = _now()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = _now()
            children = stack.pop()
            if len(stack) > 1:
                stack[-1] += end - start
            _rows.extend(
                (
                    name_id,
                    stack[0],
                    key(*args, **kwargs) if key is not None else 0,
                    start,
                    end,
                    end - start - children,
                    value(result, *args, **kwargs) if value is not None else 0,
                )
            )

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


def _counted(name: str, original: Callable, value: Callable) -> Callable:
    """Wrap ``original`` so each call appends a zero-length count row.

    Count rows stay off the self-time stack: their time belongs to the
    enclosing timed call.
    """
    name_id = ID[name]

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        now = _now()
        _rows.extend((name_id, _stack()[0], 0, now, now, 0, value(result, *args)))
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install_driver() -> None:
    """Wrap the RSU/client layers in this (the load generator's) process."""
    from repro.faults import transport
    from repro.rsu.record import TrafficRecord
    from repro.server.sharded import wire
    from repro.server.sharded.client import ShardClient

    _patch(TrafficRecord, "to_payload", lambda f: _timed(
        "rsu.record.to_payload", f,
        key=lambda rec: record_key(rec.location, rec.period)))
    _patch(transport, "frame_payload", lambda f: _timed(
        "faults.transport.frame", f, key=lambda payload, *a: _payload_key(payload)))
    _patch(transport.UploadTransport, "send", lambda f: _timed(
        "faults.transport.send", f,
        key=lambda self, rec: record_key(rec.location, rec.period),
        value=lambda receipt, *a: receipt.attempts - 1 if receipt else 0))
    _patch(ShardClient, "upload", lambda f: _timed(
        "server.sharded.client.upload", f,
        key=lambda self, frame, *a, **k: _frame_key(frame)))
    _patch(ShardClient, "query", lambda f: _timed(
        "server.sharded.client.query", f))
    header = wire._HEADER.size
    _patch(wire, "send_message", lambda f: _counted(
        "server.sharded.wire.sent", f,
        value=lambda result, sock, msg_type, body=b"": header + len(body)))
    _patch(wire, "recv_message", lambda f: _counted(
        "server.sharded.wire.received", f,
        value=lambda result, sock: header + len(result[1]) if result else 0))


def install_tier() -> None:
    """Wrap the front-door and shard layers in this tier process."""
    from repro.core.point import PointPersistentEstimator
    from repro.rsu.record import TrafficRecord
    from repro.server import central
    from repro.server.cache import JoinCache
    from repro.server.sharded import engine, service, wal, wire, worker
    from repro.server.sharded.coordinator import ShardedCoordinator
    from repro.server.sharded.frontdoor import FrontDoor, RemoteShardBackend

    def dispatch_key(self, sock, msg_type, body):
        return _frame_key(body) if msg_type == wire.MSG_UPLOAD else 0

    _patch(FrontDoor, "dispatch", lambda f: _timed(
        "server.sharded.frontdoor.dispatch", f, key=dispatch_key,
        value=lambda result, self, sock, msg_type, body: msg_type))
    _patch(ShardedCoordinator, "ingest_frame", lambda f: _timed(
        "server.sharded.coordinator.ingest_frame", f,
        key=lambda self, frame, *a, **k: _frame_key(frame)))
    _patch(RemoteShardBackend, "deliver_frame", lambda f: _timed(
        "server.sharded.frontdoor.deliver_frame", f,
        key=lambda self, frame, *a, **k: _frame_key(frame),
        value=lambda result, self, *a, **k: self.shard_id))
    _patch(ShardedCoordinator, "multi_point_persistent", lambda f: _timed(
        "server.sharded.coordinator.multi_point_persistent", f))
    _patch(RemoteShardBackend, "point_persistent", lambda f: _timed(
        "server.sharded.frontdoor.point_persistent", f,
        value=lambda result, self, *a, **k: self.shard_id))

    def start(original):
        timed = _timed("server.sharded.service.start", original)

        def wrapper(*args, **kwargs):
            _process["role"] = "frontdoor"
            atexit.register(dump)
            return timed(*args, **kwargs)

        return wrapper

    _patch(service.ShardedIngestService, "start", start)

    _patch(engine.ShardEngine, "handle_frame", lambda f: _timed(
        "server.sharded.engine.handle_frame", f,
        key=lambda self, frame: _frame_key(frame),
        value=lambda result, self, frame: self.shard_id))
    _patch(engine, "parse_frame", lambda f: _timed(
        "faults.transport.parse", f, key=lambda frame: _frame_key(frame)))
    _patch(TrafficRecord, "from_payload", lambda f: _timed(
        "rsu.record.from_payload", f,
        key=lambda cls, payload: _payload_key(payload)))
    _patch(central.CentralServer, "receive_record", lambda f: _timed(
        "server.central.receive_record", f,
        key=lambda self, rec: record_key(rec.location, rec.period)))
    entry = wal._ENTRY_HEADER.size
    _patch(wal.ShardWriteAheadLog, "append", lambda f: _timed(
        "server.sharded.wal.append", f,
        key=lambda self, payload: _payload_key(payload),
        value=lambda result, self, payload: entry + len(payload)))
    _patch(engine.ShardEngine, "handle_query", lambda f: _timed(
        "server.sharded.engine.handle_query", f,
        value=lambda result, self, *a, **k: self.shard_id))
    _patch(central.CentralServer, "point_persistent", lambda f: _timed(
        "server.central.point_persistent", f))
    _patch(JoinCache, "split_join", lambda f: _counted(
        "server.cache.split_join", f, value=lambda result, *a: 1))
    _patch(central, "split_and_join", lambda f: _timed(
        "sketch.join.split_and_join", f))
    _patch(PointPersistentEstimator, "estimate_from_split", lambda f: _timed(
        "core.point.estimate_from_split", f))

    def recover(original):
        timed = _timed("server.sharded.worker.recover_engine", original)

        def wrapper(config):
            _process["role"] = f"shard{config.shard_id}"
            return timed(config)

        return wrapper

    _patch(worker, "recover_engine", recover)
    _patch(worker, "replay_into_archive", lambda f: _timed(
        "server.sharded.wal.replay_into_archive", f))

    def server_close(original):
        def wrapper(self):
            # The supervisor may SIGTERM a worker that is already on its
            # way out; the dump must not be cut short by SystemExit.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            dump()
            return original(self)

        return wrapper

    _patch(worker._ShardServer, "server_close", server_close)


def dump() -> None:
    """Write this process's rows to ``$PERFBENCH_SPAN_DIR`` (once)."""
    directory = os.environ.get(SPAN_DIR_ENV)
    if not directory or _process["dumped"]:
        return
    _process["dumped"] = True
    path = Path(directory) / f"{_process['role']}.{os.getpid()}.bin"
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        _rows.tofile(handle)
    os.replace(tmp, path)


def driver_rows() -> np.ndarray:
    """This process's rows as an ``(n, FIELDS)`` int64 matrix."""
    return np.frombuffer(_rows, dtype=np.int64).reshape(-1, FIELDS).copy()


def load(directory: Path) -> Dict[str, np.ndarray]:
    """Role -> rows of every tier process that dumped into ``directory``."""
    out: Dict[str, np.ndarray] = {}
    for path in sorted(Path(directory).glob("*.bin")):
        role = path.name.split(".", 1)[0]
        rows = np.fromfile(path, dtype=np.int64).reshape(-1, FIELDS)
        out[role] = np.concatenate([out[role], rows]) if role in out else rows
    return out


def named(rows: np.ndarray, name: str) -> np.ndarray:
    """The rows of one span name."""
    return rows[rows[:, NAME] == ID[name]]
