"""A wire-level chaos proxy: real TCP faults between client and tier.

:class:`ChaosProxy` sits on the socket path between upload clients and
a sharded front door (or a single shard worker) and perturbs the
*bytes in flight* — the fault classes no in-process injector can
produce:

* **connection drops** (``wire_drop``) — the TCP stream dies at accept
  time or between chunks, mid-conversation;
* **stalls** (``wire_delay``) — a forwarded chunk arrives late, eating
  into client timeouts and deadlines;
* **truncation** (``wire_truncate``) — half a chunk is forwarded and
  the connection severed, leaving the receiver holding a torn
  length-prefixed message (exactly what
  :func:`~repro.server.sharded.wire.recv_message` must surface as
  :class:`~repro.exceptions.WireProtocolError`);
* **partitions** — :meth:`partition` refuses new connections and
  severs live ones until :meth:`heal`.

Fault decisions draw from the same seeded
:class:`~repro.faults.plan.FaultInjector` substreams as every other
fault in the repo, so a chaos drill replays byte-for-byte from one
master seed.  Faults are applied to the client→upstream direction
only: requests are what retry loops own; mangling replies would
punish the server for damage it never saw.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Tuple

from repro.faults.plan import FaultInjector

#: Forwarding buffer size; small enough that a multi-message burst
#: spans several chunks (giving per-chunk faults something to cut).
_CHUNK_BYTES = 16 * 1024


def _sever(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.

    On Linux ``close()`` does not wake a thread blocked in ``recv()``
    or ``accept()`` on the same socket, and the peer sees no EOF until
    that call returns; ``shutdown()`` wakes it and sends the FIN at
    once.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down or closed
    try:
        sock.close()
    except OSError:
        pass


class ChaosProxy:
    """A TCP forwarder that injects wire faults on the request path.

    Parameters
    ----------
    upstream_host / upstream_port:
        Where honest bytes would have gone (normally the front door).
    injector:
        Fault source; None forwards everything faithfully (the no-op
        proxy, useful as a partition-only switch).
    host / port:
        Listening address (port 0 picks a free port).
    delay_seconds:
        Stall length of one injected ``wire_delay``.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        injector: Optional[FaultInjector] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        delay_seconds: float = 0.05,
    ):
        self._upstream = (upstream_host, int(upstream_port))
        self._injector = injector
        self._delay_seconds = float(delay_seconds)
        # The injector's numpy substreams are not thread-safe and every
        # connection pump consults them concurrently.
        self._injector_lock = threading.Lock()
        self._partitioned = threading.Event()
        self._stopped = threading.Event()
        self._conn_lock = threading.Lock()
        self._open_pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(32)
        self._host = host
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        """The ``tcp://host:port`` clients should dial."""
        return f"tcp://{self._host}:{self.port}"

    def start(self) -> int:
        """Begin accepting; returns the bound port."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self.port

    def stop(self) -> None:
        """Stop accepting and sever every live connection."""
        self._stopped.set()
        _sever(self._listener)
        self._sever_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    def partition(self) -> None:
        """Sever every live connection and refuse new ones."""
        self._partitioned.set()
        self._sever_all()

    def heal(self) -> None:
        """End the partition; new connections flow again."""
        self._partitioned.clear()

    def _sever_all(self) -> None:
        with self._conn_lock:
            pairs, self._open_pairs = self._open_pairs, []
        for downstream, upstream in pairs:
            _sever(downstream)
            _sever(upstream)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                downstream, _peer = self._listener.accept()
            except OSError:
                return
            if self._partitioned.is_set() or self._draw("drop"):
                # Refused at the door: the client sees a reset/EOF.
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            try:
                upstream = socket.create_connection(self._upstream, timeout=10)
            except OSError:
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            with self._conn_lock:
                self._open_pairs.append((downstream, upstream))
            threading.Thread(
                target=self._pump,
                args=(downstream, upstream, True),
                name="chaos-proxy-up",
                daemon=True,
            ).start()
            threading.Thread(
                target=self._pump,
                args=(upstream, downstream, False),
                name="chaos-proxy-down",
                daemon=True,
            ).start()

    def _draw(self, kind: str) -> bool:
        if self._injector is None:
            return False
        with self._injector_lock:
            if kind == "drop":
                return self._injector.drop_connection()
            if kind == "delay":
                return self._injector.delay_chunk()
            return self._injector.truncate_chunk()

    def _pump(
        self, source: socket.socket, sink: socket.socket, faulty: bool
    ) -> None:
        """Forward one direction until EOF/error; faults only upstream."""
        try:
            while not self._stopped.is_set():
                try:
                    chunk = source.recv(_CHUNK_BYTES)
                except OSError:
                    break
                if not chunk:
                    break
                if faulty:
                    if self._draw("drop"):
                        break
                    if self._draw("delay"):
                        time.sleep(self._delay_seconds)
                    if self._draw("truncate") and len(chunk) > 1:
                        try:
                            sink.sendall(chunk[: len(chunk) // 2])
                        except OSError:
                            pass
                        break
                try:
                    sink.sendall(chunk)
                except OSError:
                    break
        finally:
            _sever(source)
            _sever(sink)
            with self._conn_lock:
                self._open_pairs = [
                    pair
                    for pair in self._open_pairs
                    if source not in pair and sink not in pair
                ]
