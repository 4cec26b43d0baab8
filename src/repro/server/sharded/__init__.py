"""Sharded multi-process ingest tier.

The single-process :class:`~repro.server.central.CentralServer` stack
tops out at one core.  This package partitions the ``(location,
period)`` keyspace across N worker *processes* — each running its own
:class:`~repro.server.store.RecordStore`,
:class:`~repro.server.cache.JoinCache` and write-ahead log — behind a
thread-pool front door speaking the checksummed RFR1/RFR2 upload
frames of :mod:`repro.faults.transport` over real TCP sockets.

Layers (bottom up):

* :mod:`~repro.server.sharded.router` — deterministic location-hash
  partitioning of the keyspace.
* :mod:`~repro.server.sharded.wire` — length-prefixed socket framing
  for upload frames, queries, stats and control messages, and the
  request server that the front door and every worker run.
* :mod:`~repro.server.sharded.wal` — the per-shard append-only
  write-ahead log whose replay feeds
  :meth:`~repro.server.persistence.RecordArchive.repair`.
* :mod:`~repro.server.sharded.merge` — cross-shard
  :class:`~repro.server.degradation.DegradedResult` coverage merging.
* :mod:`~repro.server.sharded.coordinator` — routing and fan-out over
  abstract shard backends (in-process or remote).
* :mod:`~repro.server.sharded.worker` — the shard server process.
* :mod:`~repro.server.sharded.frontdoor` — the accepting TCP tier.
* :mod:`~repro.server.sharded.client` — blocking RPC clients,
  including the :class:`~repro.faults.transport.UploadTransport` TCP
  backend.
* :mod:`~repro.server.sharded.breaker` — per-shard circuit breakers
  turning connect-timeout stalls into fast local failures.
* :mod:`~repro.server.sharded.supervisor` — the self-healing watchdog:
  liveness/ping probing, backoff restarts, flap fencing.
* :mod:`~repro.server.sharded.service` — process lifecycle: spawn,
  kill, restart, fence.
"""

from repro.server.sharded.breaker import CircuitBreaker
from repro.server.sharded.client import (
    ShardClient,
    TcpUploadClient,
    parse_server_url,
)
from repro.server.sharded.coordinator import (
    FencedShardBackend,
    LocalShardBackend,
    ShardDownError,
    ShardedCoordinator,
)
from repro.server.sharded.engine import ShardEngine
from repro.server.sharded.frontdoor import FrontDoor, RemoteShardBackend
from repro.server.sharded.merge import LocationOutcome, ShardedQueryResult
from repro.server.sharded.router import ShardRouter
from repro.server.sharded.service import ShardedIngestService
from repro.server.sharded.supervisor import RestartPolicy, ShardSupervisor
from repro.server.sharded.wal import ShardWriteAheadLog, replay_into_archive
from repro.server.sharded.wire import Deadline
from repro.server.sharded.worker import ShardConfig, run_shard

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "FencedShardBackend",
    "FrontDoor",
    "LocalShardBackend",
    "LocationOutcome",
    "RemoteShardBackend",
    "RestartPolicy",
    "ShardClient",
    "ShardConfig",
    "ShardDownError",
    "ShardEngine",
    "ShardRouter",
    "ShardSupervisor",
    "ShardWriteAheadLog",
    "ShardedCoordinator",
    "ShardedIngestService",
    "ShardedQueryResult",
    "TcpUploadClient",
    "parse_server_url",
    "replay_into_archive",
    "run_shard",
]
