"""Live metrics endpoint: a stdlib-only background HTTP server.

PR 1's exporters write a static file at process exit, which is useless
while a long ``faultgrid`` sweep is still running.  This module serves
the *live* registry instead:

* ``GET /metrics`` — Prometheus text exposition (0.0.4) of the active
  registry, scrapeable mid-run;
* ``GET /healthz`` — JSON liveness: status, uptime, metric-family and
  resident-trace counts;
* ``GET /traces`` — recent traces from the installed
  :class:`~repro.obs.trace.TraceBuffer` as JSON, newest first
  (``?limit=N`` caps the count);
* ``GET /shards`` — per-shard liveness/health of an attached sharded
  tier (404 unless the server was built with ``cluster=...``).

With a :class:`~repro.obs.cluster.ClusterTelemetry` attached,
``/metrics`` serves the *cluster-merged* view (front door plus every
shard's registry, refreshed on scrape within the collector's
staleness bound) and ``/traces`` refreshes shard telemetry first so
cross-process traces render connected.

Everything is standard library (``http.server``): no new dependencies,
one daemon thread, bound to localhost by default.  Start with port 0
to let the OS pick a free port — :meth:`MetricsServer.start` returns
the bound port, and the CLI prints it so scripts can scrape it.

>>> from repro import obs
>>> from repro.obs.httpd import MetricsServer
>>> registry = obs.enable()
>>> server = MetricsServer(registry=registry)
>>> port = server.start()
>>> # ... scrape http://127.0.0.1:{port}/metrics ...
>>> server.stop()
>>> _ = obs.disable()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.obs import export, runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuffer

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The endpoints this server knows about (pre-registered scrape labels).
ENDPOINTS = ("/metrics", "/healthz", "/traces", "/shards")


class MetricsServer:
    """Background HTTP server exposing the live registry and traces.

    ``registry``/``traces`` default to whatever is active in
    :mod:`repro.obs.runtime` *at request time*, so a server started
    before ``obs.enable()`` serves the right registry afterwards.

    ``cluster`` (a :class:`~repro.obs.cluster.ClusterTelemetry`)
    upgrades the server to the tier-wide view: merged ``/metrics``,
    telemetry-refreshed ``/traces``, and a live ``/shards`` endpoint.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        traces: Optional[TraceBuffer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cluster=None,
    ):
        self._registry = registry
        self._traces = traces
        self._cluster = cluster
        self._host = host
        self._port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Resolution: explicit wiring beats the runtime globals.
    # ------------------------------------------------------------------

    def resolve_registry(self):
        """The registry requests read (falls back to the runtime one)."""
        if self._registry is not None:
            return self._registry
        return runtime.registry()

    def resolve_traces(self) -> Optional[TraceBuffer]:
        """The trace buffer requests read, or None."""
        if self._traces is not None:
            return self._traces
        return runtime.trace_buffer()

    @property
    def port(self) -> int:
        """The bound port (0 until :meth:`start`)."""
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self._host}:{self._port}"

    def uptime(self) -> float:
        """Seconds since :meth:`start` (0.0 when not running)."""
        if self._started_at == 0.0:
            return 0.0
        return time.time() - self._started_at

    def start(self) -> int:
        """Bind, spawn the serving thread, and return the bound port.

        Idempotent: calling start on a running server returns the
        existing port.  Pre-registers the per-endpoint scrape counter
        so every endpoint's series exports at zero before the first
        request.
        """
        if self._httpd is not None:
            return self._port
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass  # never write scrape noise to stderr

            def _send(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                parsed = urlparse(self.path)
                path = parsed.path.rstrip("/") or "/"
                if path == "/metrics":
                    server._count_scrape("/metrics")
                    cluster = server._cluster
                    if cluster is not None:
                        cluster.refresh()
                        exported = cluster.merged_registry()
                    else:
                        exported = server.resolve_registry()
                    body = export.to_prometheus(exported).encode("utf-8")
                    self._send(200, PROMETHEUS_CONTENT_TYPE, body)
                elif path == "/healthz":
                    server._count_scrape("/healthz")
                    traces = server.resolve_traces()
                    payload = {
                        "status": "ok",
                        "uptime_seconds": server.uptime(),
                        "metric_families": len(
                            server.resolve_registry().families()
                        ),
                        "traces": len(traces) if traces is not None else 0,
                        "tracing": traces is not None,
                    }
                    self._send(
                        200,
                        "application/json",
                        json.dumps(payload).encode("utf-8"),
                    )
                elif path == "/traces":
                    server._count_scrape("/traces")
                    if server._cluster is not None:
                        # Pull shard spans in first, so a trace whose
                        # tail lives in a worker renders connected.
                        server._cluster.refresh()
                    traces = server.resolve_traces()
                    limit = None
                    query = parse_qs(parsed.query)
                    if "limit" in query:
                        try:
                            limit = int(query["limit"][0])
                        except ValueError:
                            limit = None
                    payload = {
                        "traces": (
                            traces.to_payloads(limit)
                            if traces is not None
                            else []
                        ),
                    }
                    self._send(
                        200,
                        "application/json",
                        json.dumps(payload).encode("utf-8"),
                    )
                elif path == "/shards":
                    server._count_scrape("/shards")
                    cluster = server._cluster
                    if cluster is None:
                        self._send(
                            404,
                            "text/plain; charset=utf-8",
                            b"no sharded tier attached to this endpoint\n",
                        )
                        return
                    cluster.refresh()
                    payload = {
                        "shards": cluster.shards_payload(),
                        "staleness_seconds": cluster.staleness(),
                    }
                    self._send(
                        200,
                        "application/json",
                        json.dumps(payload).encode("utf-8"),
                    )
                else:
                    self._send(
                        404,
                        "text/plain; charset=utf-8",
                        b"not found; try /metrics, /healthz, /traces, "
                        b"/shards\n",
                    )

        self._httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        self._httpd.daemon_threads = True
        self._port = self._httpd.server_address[1]
        self._started_at = time.time()
        for endpoint in ENDPOINTS:
            self.resolve_registry().counter(
                "repro_httpd_scrapes_total",
                help="HTTP requests served by the live metrics endpoint.",
                endpoint=endpoint,
            )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-httpd",
            daemon=True,
        )
        self._thread.start()
        return self._port

    def _count_scrape(self, endpoint: str) -> None:
        # Safe with a NullRegistry: the counter call is then a no-op.
        self.resolve_registry().counter(
            "repro_httpd_scrapes_total",
            help="HTTP requests served by the live metrics endpoint.",
            endpoint=endpoint,
        ).inc()

    def stop(self) -> None:
        """Shut down the server and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
        self._started_at = 0.0

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
