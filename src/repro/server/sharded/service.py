"""Process supervision for the sharded ingest tier.

:class:`ShardedIngestService` owns the whole stack: it spawns N shard
worker processes (``spawn`` context — the front door runs threads in
this process, and forking a threaded parent is a deadlock lottery),
waits for each worker to publish its bound port, wires
:class:`~repro.server.sharded.frontdoor.RemoteShardBackend` pools into
a coordinator, and starts the front door.  ``kill_shard`` /
``restart_shard`` are the crash-drill API the kill-and-replay test
(and the CI ingest smoke) drive: SIGKILL the process, restart it on
the same data directory, and the worker's WAL replay restores every
acknowledged record.

With ``supervise=True`` a
:class:`~repro.server.sharded.supervisor.ShardSupervisor` watches the
workers and restarts dead or wedged ones automatically — with
exponential backoff, and fencing a shard that flaps past its restart
budget (its cells then report honestly uncovered).  Supervision is
opt-in here and default-on in ``python -m repro serve``: crash-drill
tests kill shards on purpose and must not race a watchdog.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Set

from repro.exceptions import TransportError
from repro.server.sharded.coordinator import (
    FencedShardBackend,
    ShardedCoordinator,
)
from repro.server.sharded.frontdoor import FrontDoor, RemoteShardBackend
from repro.server.sharded.router import ShardRouter
from repro.server.sharded.supervisor import RestartPolicy, ShardSupervisor
from repro.server.sharded.worker import ShardConfig, run_shard

logger = logging.getLogger("repro.server.sharded")

#: How long to wait for a spawned worker to publish its port.
_STARTUP_TIMEOUT = 30.0


class ShardedIngestService:
    """Spawns, supervises and tears down a sharded ingest tier.

    Parameters
    ----------
    n_shards:
        Worker process count (>= 1).
    data_dir:
        Root directory; shard ``k`` lives in ``<data_dir>/shard-<k>``.
    host / port:
        Front-door listening address (port 0 picks a free port).
    s / load_factor:
        Estimator parameters for every shard's server.
    shard_metrics:
        Enable per-worker metric registries (folded into the front
        door's ``stats()`` reply).
    shard_telemetry:
        Give each worker a telemetry-exporting trace buffer so its
        spans ship to the front door (see
        :class:`~repro.obs.cluster.ClusterTelemetry`).  Off by
        default: only a collector built by :meth:`cluster_telemetry`
        absorbs shipped spans, and without one each query would still
        pay for a span per location in every shard.  ``python -m repro
        serve`` turns it on exactly when ``--serve-metrics`` is given.
    timeout:
        Socket timeout (seconds) of every front-door-to-shard
        connection.
    max_inflight:
        Front-door concurrent-request bound (None disables shedding).
    supervise:
        Run a :class:`~repro.server.sharded.supervisor.ShardSupervisor`
        that auto-restarts dead/wedged workers.
    restart_policy:
        Supervision knobs (defaults to
        :class:`~repro.server.sharded.supervisor.RestartPolicy`).
    """

    def __init__(
        self,
        n_shards: int,
        data_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        s: int = 3,
        load_factor: float = 2.0,
        shard_metrics: bool = True,
        shard_telemetry: bool = False,
        timeout: float = 10.0,
        max_inflight: Optional[int] = 64,
        supervise: bool = False,
        restart_policy: Optional[RestartPolicy] = None,
    ):
        if n_shards < 1:
            raise TransportError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._data_dir = Path(data_dir)
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._max_inflight = max_inflight
        self._supervise = bool(supervise)
        self._restart_policy = (
            restart_policy if restart_policy is not None else RestartPolicy()
        )
        self._mp = multiprocessing.get_context("spawn")
        self._configs: Dict[int, ShardConfig] = {
            shard: ShardConfig(
                shard_id=shard,
                data_dir=str(self._data_dir / f"shard-{shard}"),
                host=host,
                s=s,
                load_factor=load_factor,
                metrics=shard_metrics,
                telemetry=shard_telemetry,
            )
            for shard in range(self._n_shards)
        }
        self._processes: Dict[int, multiprocessing.Process] = {}
        #: Guards every spawn/kill/restart/fence transition, so the
        #: supervisor thread and drill/test code never race a respawn.
        self._lifecycle = threading.RLock()
        #: Shards killed on purpose (manual drill) — off-limits to the
        #: supervisor until restarted.
        self._held: Set[int] = set()
        #: Shard -> fencing reason for shards past their restart budget.
        self._fenced: Dict[int, str] = {}
        self._restart_counts: Dict[int, int] = {}
        #: Shard -> monotonic time of its last spawn, and the seconds
        #: that spawn took to publish a port.
        self._spawned_at: Dict[int, float] = {}
        self._start_seconds: Dict[int, float] = {}
        self.coordinator: Optional[ShardedCoordinator] = None
        self.front_door: Optional[FrontDoor] = None
        self.supervisor: Optional[ShardSupervisor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def host(self) -> str:
        return self._host

    @property
    def timeout(self) -> float:
        """Socket timeout of front-door-to-shard connections."""
        return self._timeout

    @property
    def port(self) -> int:
        """The front door's bound port (after :meth:`start`)."""
        if self.front_door is None:
            raise TransportError("service is not started")
        return self.front_door.port

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self.port}"

    @property
    def running(self) -> bool:
        """True while the front door is accepting connections.

        Goes False after :meth:`stop` — including the remote-initiated
        stop a ``MSG_SHUTDOWN`` client triggers — so a serving loop
        can poll it instead of sleeping forever.
        """
        return self.front_door is not None and self.front_door.running

    def shard_port(self, shard: int) -> int:
        """The bound port of one worker (from its port file)."""
        return int(self._configs[shard].port_file.read_text().strip())

    def shard_alive(self, shard: int) -> bool:
        """Whether the shard's worker process is currently running."""
        process = self._processes.get(shard)
        return process is not None and process.is_alive()

    def is_held(self, shard: int) -> bool:
        """Whether the shard was killed on purpose (supervisor keeps off)."""
        return shard in self._held

    def is_fenced(self, shard: int) -> bool:
        """Whether the shard is permanently fenced (restart budget gone)."""
        return shard in self._fenced

    @property
    def fenced(self) -> Dict[int, str]:
        """Fenced shard -> reason (read-only copy)."""
        return dict(self._fenced)

    def restart_count(self, shard: int) -> int:
        """How many times this shard has been respawned since start."""
        return self._restart_counts.get(shard, 0)

    @property
    def start_seconds(self) -> Dict[int, float]:
        """Shard -> seconds from its last spawn until it published a port."""
        return dict(self._start_seconds)

    def _spawn(self, shard: int) -> None:
        config = self._configs[shard]
        Path(config.data_dir).mkdir(parents=True, exist_ok=True)
        # A stale port file from a killed incarnation must not be
        # mistaken for the new worker's announcement.
        try:
            config.port_file.unlink()
        except FileNotFoundError:
            pass
        process = self._mp.Process(
            target=run_shard, args=(config,), name=f"shard-{shard}"
        )
        process.daemon = True
        self._spawned_at[shard] = time.monotonic()
        process.start()
        self._processes[shard] = process

    def _await_port(self, shard: int) -> int:
        config = self._configs[shard]
        process = self._processes[shard]
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            if config.port_file.exists():
                text = config.port_file.read_text().strip()
                if text:
                    self._start_seconds[shard] = (
                        time.monotonic() - self._spawned_at[shard]
                    )
                    return int(text)
            if not process.is_alive():
                raise TransportError(
                    f"shard {shard} exited with code {process.exitcode} "
                    "before publishing its port"
                )
            time.sleep(0.02)
        raise TransportError(
            f"shard {shard} did not publish a port within "
            f"{_STARTUP_TIMEOUT:.0f}s"
        )

    def _make_backend(self, shard: int, port: int) -> RemoteShardBackend:
        return RemoteShardBackend(
            shard, self._host, port, timeout=self._timeout
        )

    def start(self) -> int:
        """Spawn every worker, start the front door; returns its port."""
        if self.front_door is not None:
            raise TransportError("service is already started")
        with self._lifecycle:
            for shard in range(self._n_shards):
                self._spawn(shard)
            backends = {
                shard: self._make_backend(shard, self._await_port(shard))
                for shard in range(self._n_shards)
            }
            self.coordinator = ShardedCoordinator(
                backends, router=ShardRouter(self._n_shards)
            )
            self.front_door = FrontDoor(
                self.coordinator,
                host=self._host,
                port=self._port,
                max_inflight=self._max_inflight,
            )
            port = self.front_door.start()
            if self._supervise:
                self.supervisor = ShardSupervisor(self, self._restart_policy)
                self.supervisor.start()
            return port

    def kill_shard(self, shard: int, auto_restart: bool = False) -> None:
        """SIGKILL one worker — no flush, no goodbye (the crash drill).

        By default the shard is *held* afterwards: a running supervisor
        will not resurrect it until :meth:`restart_shard` clears the
        hold (a crash drill wants the corpse to stay down while it
        checks degraded answers).  ``auto_restart=True`` leaves the
        shard eligible for supervised restart.
        """
        with self._lifecycle:
            if not auto_restart:
                self._held.add(shard)
            process = self._processes[shard]
            process.kill()
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - unkillable
                logger.warning(
                    "shard %d still alive 10s after SIGKILL", shard
                )

    def respawn_shard(self, shard: int) -> int:
        """Respawn a dead worker and swap in its new backend.

        The supervised-restart primitive: recovers the shard (WAL
        replay before first accept) and clears a manual hold, but does
        *not* touch fencing or supervision history — that is
        :meth:`restart_shard`'s (the human operator's) privilege.
        """
        with self._lifecycle:
            process = self._processes.get(shard)
            if process is not None and process.is_alive():
                raise TransportError(
                    f"shard {shard} is still running; kill it first"
                )
            self._spawn(shard)
            port = self._await_port(shard)
            if self.coordinator is not None:
                self.coordinator.replace_backend(
                    shard, self._make_backend(shard, port)
                )
            self._held.discard(shard)
            self._restart_counts[shard] = (
                self._restart_counts.get(shard, 0) + 1
            )
            return port

    def restart_shard(self, shard: int) -> int:
        """Manually respawn a (dead) worker; returns its new port.

        The new incarnation replays its WAL into the shard archive
        before accepting connections, so every previously acknowledged
        record is queryable again.  The coordinator's backend is
        swapped to the new port, a fence on the shard is lifted, and
        the supervisor's failure history for it is forgotten.
        """
        with self._lifecycle:
            port = self.respawn_shard(shard)
            self._fenced.pop(shard, None)
            if self.supervisor is not None:
                self.supervisor.reset(shard)
            return port

    def cluster_telemetry(
        self,
        buffer=None,
        registry=None,
        max_staleness: float = 1.0,
    ):
        """Build (once) the cluster telemetry collector for this tier.

        Returns a :class:`~repro.obs.cluster.ClusterTelemetry` wired to
        this service and attached to the coordinator, so telemetry
        piggy-backed on ``stats()`` pulls is absorbed into the
        front-door trace buffer.  Idempotent: repeated calls return
        the same collector.  Shard spans reach it only when the
        service was built with ``shard_telemetry=True``; otherwise the
        collector still merges shard metrics and health.
        """
        from repro.obs.cluster import ClusterTelemetry

        existing = getattr(self, "_cluster_telemetry", None)
        if existing is not None:
            return existing
        collector = ClusterTelemetry(
            self,
            buffer=buffer,
            registry=registry,
            max_staleness=max_staleness,
        )
        self._cluster_telemetry = collector
        if self.coordinator is not None:
            self.coordinator.telemetry_collector = collector
        return collector

    def fence_shard(self, shard: int, reason: str) -> None:
        """Mark a shard permanently dead and tombstone its backend.

        Queries keep answering with the shard's cells honestly
        uncovered; the supervisor stops trying to restart it.  Lifted
        only by a manual :meth:`restart_shard`.
        """
        with self._lifecycle:
            self._fenced[shard] = reason
            if self.coordinator is not None:
                self.coordinator.replace_backend(
                    shard, FencedShardBackend(shard, reason)
                )

    def stop(self) -> None:
        """Stop the supervisor, the front door, and every worker.

        Shutdown is asserted, not assumed: a worker ignoring SIGTERM
        past the join grace is SIGKILLed, and either escalation is
        logged rather than silently swallowed.
        """
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self.front_door is not None:
            self.front_door.stop()
            self.front_door = None
        if self.coordinator is not None:
            for backend in self.coordinator.backends.values():
                if isinstance(backend, RemoteShardBackend):
                    backend.shutdown()
            self.coordinator.close()
            self.coordinator = None
        with self._lifecycle:
            for process in self._processes.values():
                if process.is_alive():
                    process.terminate()
            for shard, process in self._processes.items():
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - stuck worker
                    logger.warning(
                        "shard %d ignored SIGTERM for 10s; escalating "
                        "to SIGKILL",
                        shard,
                    )
                    process.kill()
                    process.join(timeout=5)
                    if process.is_alive():  # pragma: no cover
                        logger.error(
                            "shard %d still alive after SIGKILL", shard
                        )
            self._processes.clear()
            self._held.clear()
            self._fenced.clear()

    def __enter__(self) -> "ShardedIngestService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
