"""The shard worker: one process, one keyspace partition, one socket.

``run_shard`` is the entry point the supervisor spawns (and the target
``python -m repro serve`` ultimately runs N times).  Startup order is
the crash-recovery contract:

1. open the shard's write-ahead log and *replay it first* — every
   payload a previous incarnation acknowledged lands in the shard
   archive through :func:`~repro.server.sharded.wal.replay_into_archive`
   (i.e. the ordinary
   :meth:`~repro.server.persistence.RecordArchive.repair` orphan
   adoption);
2. load the repaired archive into a fresh
   :class:`~repro.server.central.CentralServer`;
3. bind the listening socket, publish the bound port to
   ``<data_dir>/port`` (written atomically so the supervisor never
   reads half a number), and serve.

The archive is *not* attached to the live server — per-record fsyncs
would put two disk round-trips on the ingest hot path.  Durability
during serving comes from the WAL alone; the archive is only brought
up to date at the next restart's replay.
"""

from __future__ import annotations

import gc
import os
import signal
import socketserver
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import TransportError, WireProtocolError
from repro.obs import runtime as obs
from repro.server.central import CentralServer
from repro.server.sharded import wire
from repro.server.sharded.engine import ShardEngine, count_deadline
from repro.server.sharded.wal import ShardWriteAheadLog, replay_into_archive

#: File (under the shard data dir) announcing the bound port.
PORT_FILENAME = "port"
#: The shard's append-only write-ahead log.
WAL_FILENAME = "wal.log"
#: Directory (under the shard data dir) of the durable record archive.
ARCHIVE_DIRNAME = "archive"
#: JSONL mirror of the shard's dead-letter quarantine.
DEAD_LETTER_FILENAME = "dead_letters.jsonl"


@dataclass(frozen=True)
class ShardConfig:
    """Everything one shard worker needs, picklable for ``spawn``.

    Attributes
    ----------
    shard_id:
        This worker's index in the router's ``0 .. n-1`` range.
    data_dir:
        Per-shard directory holding the WAL, archive, dead-letter
        mirror and port file.  Must not be shared between shards.
    host / port:
        Listening address; port 0 binds an ephemeral port, published
        via the port file.
    s / load_factor:
        Estimator parameters of the shard's central server.
    metrics:
        When True the worker enables its own metrics registry so
        ``stats()`` replies carry a snapshot the front door can fold
        through :meth:`~repro.obs.metrics.MetricsRegistry.merge`.
    telemetry:
        When True the worker's trace buffer is a
        :class:`~repro.obs.cluster.TelemetryBuffer`, so spans recorded
        in this process ship to the front door (piggy-backed on stats
        replies and via ``MSG_TELEMETRY`` drains).  Implies an enabled
        registry even when ``metrics`` is False, because tracing needs
        an active runtime.  Off by default, so a tier whose front door
        collects no telemetry records no spans.
    """

    shard_id: int
    data_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    s: int = 3
    load_factor: float = 2.0
    metrics: bool = True
    telemetry: bool = False

    @property
    def wal_path(self) -> Path:
        return Path(self.data_dir) / WAL_FILENAME

    @property
    def archive_dir(self) -> Path:
        return Path(self.data_dir) / ARCHIVE_DIRNAME

    @property
    def port_file(self) -> Path:
        return Path(self.data_dir) / PORT_FILENAME

    @property
    def dead_letter_path(self) -> Path:
        return Path(self.data_dir) / DEAD_LETTER_FILENAME


class _ShardHandler(socketserver.BaseRequestHandler):
    """One connection: a loop of length-prefixed request messages."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        while True:
            try:
                message = wire.recv_message(self.request)
            except WireProtocolError:
                self._count_wire_error()
                return
            except (TransportError, OSError):
                return
            if message is None:
                return
            msg_type, body = message
            try:
                if not self._dispatch(msg_type, body):
                    return
            except WireProtocolError:
                # Structural damage: the stream framing can no longer
                # be trusted, so drop the connection without replying.
                self._count_wire_error()
                return
            except (TransportError, OSError) as exc:
                try:
                    wire.send_json(
                        self.request, wire.MSG_ERROR, {"error": str(exc)}
                    )
                except OSError:
                    pass
                return

    @staticmethod
    def _count_wire_error() -> None:
        if obs.ACTIVE:
            obs.counter(
                "repro_wire_errors_total",
                "Connections dropped for structural wire-protocol "
                "damage.",
                endpoint="shard",
            ).inc()

    def _dispatch(self, msg_type: int, body: bytes) -> bool:
        engine: ShardEngine = self.server.engine
        sock = self.request
        deadline = None
        if msg_type == wire.MSG_DEADLINE:
            deadline, msg_type, body = wire.unwrap_deadline(body)
            if msg_type == wire.MSG_DEADLINE:
                raise WireProtocolError("nested deadline envelope")
        if msg_type == wire.MSG_UPLOAD:
            if deadline is not None and deadline.expired:
                count_deadline("shard")
                wire.send_json(
                    sock,
                    wire.MSG_ACK,
                    {"outcome": "rejected", "reason": "deadline"},
                )
            else:
                wire.send_json(
                    sock, wire.MSG_ACK, engine.handle_frame(body)
                )
        elif msg_type == wire.MSG_UPLOAD_BATCH:
            counts = engine.handle_batch(
                wire.unpack_frames(body), deadline=deadline
            )
            wire.send_json(sock, wire.MSG_ACK_BATCH, counts)
        elif msg_type == wire.MSG_QUERY:
            reply = engine.handle_query(
                wire.decode_json(body), deadline=deadline
            )
            wire.send_json(sock, wire.MSG_RESULT, reply)
        elif msg_type == wire.MSG_STATS:
            wire.send_json(sock, wire.MSG_STATS_REPLY, engine.stats())
        elif msg_type == wire.MSG_TELEMETRY:
            wire.send_json(
                sock, wire.MSG_TELEMETRY_REPLY, engine.telemetry()
            )
        elif msg_type == wire.MSG_PING:
            wire.send_message(sock, wire.MSG_PONG)
        elif msg_type == wire.MSG_SHUTDOWN:
            wire.send_message(sock, wire.MSG_PONG)
            # shutdown() blocks until serve_forever returns, so it must
            # run off this handler thread.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return False
        else:
            wire.send_json(
                sock,
                wire.MSG_ERROR,
                {"error": f"unknown message type 0x{msg_type:02x}"},
            )
        return True


class _ShardServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, engine: ShardEngine):
        super().__init__(address, _ShardHandler)
        self.engine = engine


def _publish_port(port_file: Path, port: int) -> None:
    """Atomically write the bound port for the supervisor to read."""
    tmp = port_file.with_name(port_file.name + ".tmp")
    tmp.write_text(f"{port}\n")
    os.replace(tmp, port_file)


def recover_engine(config: ShardConfig) -> ShardEngine:
    """Replay the WAL into the archive and build the serving engine.

    Separated from :func:`run_shard` so tests can exercise the exact
    recovery path a restarted worker runs, in-process.
    """
    wal = ShardWriteAheadLog(config.wal_path)
    archive, _recovered = replay_into_archive(wal, config.archive_dir)
    server = CentralServer(s=config.s, load_factor=config.load_factor)
    for record in archive.load_all():
        server.receive_record(record)
    return ShardEngine(
        shard_id=config.shard_id,
        server=server,
        wal=wal,
        dead_letter_path=config.dead_letter_path,
    )


def run_shard(config: ShardConfig) -> None:
    """Process entry point: recover, bind, publish the port, serve."""
    Path(config.data_dir).mkdir(parents=True, exist_ok=True)
    if config.metrics or config.telemetry:
        from repro import obs
        from repro.obs.cluster import TelemetryBuffer, register_cluster_metrics

        registry = obs.enable(
            registry=obs.MetricsRegistry(),
            trace=TelemetryBuffer() if config.telemetry else None,
        )
        register_cluster_metrics(registry)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main-thread (tests)
        pass

    started = time.perf_counter()
    engine = recover_engine(config)
    engine.recover_seconds = time.perf_counter() - started
    # The replayed archive is permanent state: collect once, then
    # freeze it out of the collector's scan set so steady-state ingest
    # (which allocates records, spans and acks at wire rate) does not
    # drag ever-longer GC pauses over a growing resident heap.
    gc.collect()
    gc.freeze()
    server = _ShardServer((config.host, config.port), engine)
    try:
        _publish_port(config.port_file, server.server_address[1])
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        if engine.wal is not None:
            engine.wal.close()
