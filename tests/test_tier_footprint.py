"""What a tier process loads, and ``python -m repro serve`` run as users run it.

Each tier process should import only what it serves: bitmap joins and
the closed forms of Eq. 12 and Eq. 21.  SciPy (only the k >= 3
multi-split root finder needs it), the CLI, the experiment stack and
the chaos harness stay off a shard worker's import path; the front
door still imports the CLI, but never SciPy, the chaos harness or an
experiment it is not running.  Likewise a worker records spans only
when the front door collects them: plain ``serve`` keeps none,
``serve --serve-metrics`` ships them.

The import guard runs fresh interpreters, because this test process
has long since imported everything.  The ``spawn`` start method runs
the launching ``__main__`` module as ``__mp_main__`` in every shard
worker before it imports the worker module, so the worker case does
the same.
"""

from __future__ import annotations

import contextlib
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults.transport import frame_payload
from repro.rsu.record import TrafficRecord
from repro.server.central import CentralServer
from repro.server.degradation import CoveragePolicy
from repro.server.queries import PointPersistentQuery
from repro.server.sharded.client import ShardClient
from repro.server.sharded.engine import policy_to_payload
from repro.server.sharded.frontdoor import decode_sharded_result
from repro.sketch.bitmap import Bitmap

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Packages no shard worker may load.
_WORKER_FORBIDDEN = (
    "scipy",
    "repro.cli",
    "repro.experiments",
    "repro.analysis",
    "repro.privacy",
    "repro.traffic",
    "repro.faults.chaos",
    "repro.faults.drill",
)
#: Packages the front door may not load.  It does load the CLI, and
#: through it ``repro.experiments.common``, but no experiment that the
#: CLI would only load to run it.
_FRONT_DOOR_FORBIDDEN = (
    "scipy",
    "repro.faults.chaos",
    "repro.faults.drill",
    "repro.analysis",
    "repro.privacy",
    "repro.traffic",
) + tuple(
    f"repro.experiments.{module.name}"
    for module in pkgutil.iter_modules(
        [str(Path(repro.__file__).parent / "experiments")]
    )
    if module.name != "common"
)

_WORKER_SPAWN_PATH = """
import runpy
runpy.run_module("repro.__main__", run_name="__mp_main__")
import repro.server.sharded.worker
"""
_FRONT_DOOR = """
import repro.cli, repro.server.sharded.service
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _loaded_modules(code):
    """Every module name a fresh interpreter holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _within(modules, packages):
    return sorted(
        name
        for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )


class TestImportGuard:
    def test_worker_spawn_path_stays_lean(self):
        modules = _loaded_modules(_WORKER_SPAWN_PATH)
        assert "repro.server.sharded.worker" in modules
        assert _within(modules, _WORKER_FORBIDDEN) == []

    def test_front_door_loads_no_scipy_or_chaos(self):
        modules = _loaded_modules(_FRONT_DOOR)
        assert "repro.server.sharded.service" in modules
        assert _within(modules, _FRONT_DOOR_FORBIDDEN) == []


# ----------------------------------------------------------------------
# python -m repro serve, as a user launches it
# ----------------------------------------------------------------------

_SEED = 2017
_LOCATIONS = list(range(1, 9))
_PERIODS = tuple(range(4))
_BITS = 128
_POLICY = CoveragePolicy(min_coverage=0.5, min_periods=2)
_PORT_LINE = re.compile(r"tcp://[0-9.]+:(\d+)")
_METRICS_LINE = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
#: A mapped file inside SciPy's own package directory (numpy's wheel
#: ships ``numpy.libs/libscipy_openblas64_*.so``, which must not match).
_SCIPY_DIR = re.compile(r"/(?:site|dist)-packages/scipy/")


def _record(location, period):
    rng = np.random.default_rng([_SEED, location, period])
    return TrafficRecord(
        location=location,
        period=period,
        bitmap=Bitmap(_BITS, rng.random(_BITS) < 0.5),
    )


def _await_port(proc, log, line=_PORT_LINE, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = line.search(log.read_text(errors="replace"))
        if match:
            return int(match.group(1))
        assert proc.poll() is None, log.read_text(errors="replace")
        time.sleep(0.02)
    pytest.fail("serve did not announce its port")


@contextlib.contextmanager
def _serve(tmp_path, *flags):
    """``python -m repro serve --shards 2`` in its own session.

    Yields the process and its log; the whole session is killed on the
    way out if the test did not stop the tier itself.
    """
    log = tmp_path / "serve.log"
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--shards", "2", "--port", "0",
                "--data-dir", str(tmp_path / "data"),
                *flags,
            ],
            env=_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
    try:
        yield proc, log
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _get_json(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return json.loads(response.read())


def _tier_pids(session):
    """Live pids in ``session``, without multiprocessing's resource tracker."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            if b"resource_tracker" not in cmdline:
                pids.append(int(entry))
    return sorted(pids)


class TestServeProcess:
    def test_serve_answers_exactly_and_exits_cleanly(self, tmp_path):
        with _serve(tmp_path) as (proc, log):
            port = _await_port(proc, log)
            client = ShardClient("127.0.0.1", port, timeout=30.0)
            try:
                records = [
                    _record(loc, per) for loc in _LOCATIONS for per in _PERIODS
                ]
                counts = client.upload_batch(
                    [frame_payload(r.to_payload()) for r in records]
                )
                assert counts["delivered"] == len(records)
                reply = client.query(
                    {
                        "kind": "multi_point_persistent",
                        "locations": _LOCATIONS,
                        "periods": list(_PERIODS),
                        "policy": policy_to_payload(_POLICY),
                    }
                )
                if sys.platform.startswith("linux"):
                    pids = _tier_pids(proc.pid)
                    assert len(pids) == 3, pids  # serve and two workers
                    for pid in pids:
                        maps = Path(f"/proc/{pid}/maps").read_text()
                        assert not _SCIPY_DIR.search(maps), pid
                stats = client.stats()
                client.shutdown()
            finally:
                client.close()
            assert proc.wait(timeout=60) == 0, log.read_text(errors="replace")

        # Nothing collects worker spans without --serve-metrics, so no
        # shard may have buffered any for the next stats() to carry.
        assert sorted(stats["shards"]) == ["0", "1"]
        assert [
            shard for shard, entry in stats["shards"].items()
            if "telemetry" in entry
        ] == []
        assert reply["ok"], reply
        single = CentralServer(s=3, load_factor=2.0)
        for record in records:
            single.receive_record(record)
        merged = decode_sharded_result(reply["result"])
        assert not merged.degraded
        assert [o.location for o in merged.outcomes] == _LOCATIONS
        for outcome in merged.outcomes:
            expected = single.point_persistent(
                PointPersistentQuery(
                    location=outcome.location, periods=_PERIODS
                ),
                policy=_POLICY,
            )
            assert outcome.result.value == expected.value
            assert outcome.result.coverage == expected.coverage

    def test_serve_metrics_ships_worker_spans(self, tmp_path):
        with _serve(tmp_path, "--serve-metrics", "0") as (proc, log):
            port = _await_port(proc, log)
            http_port = _await_port(proc, log, line=_METRICS_LINE)
            client = ShardClient("127.0.0.1", port, timeout=30.0)
            try:
                periods = list(_PERIODS[:2])
                counts = client.upload_batch(
                    [
                        frame_payload(_record(loc, per).to_payload())
                        for loc in _LOCATIONS
                        for per in periods
                    ]
                )
                assert counts["delivered"] == len(_LOCATIONS) * len(periods)
                reply = client.query(
                    {
                        "kind": "multi_point_persistent",
                        "locations": _LOCATIONS,
                        "periods": periods,
                        "policy": policy_to_payload(_POLICY),
                    }
                )
                assert reply["ok"], reply
                # /traces pulls shard telemetry once the collector's
                # snapshot is older than its staleness bound (1 s).
                names = set()
                deadline = time.monotonic() + 5.0
                while "shard.query" not in names:
                    assert time.monotonic() < deadline, sorted(names)
                    time.sleep(0.1)
                    traces = _get_json(http_port, "/traces")["traces"]
                    names = {
                        span["name"]
                        for trace in traces
                        for span in trace["spans"]
                    }
                shards = _get_json(http_port, "/shards")["shards"]
                assert sorted(shards) == ["0", "1"]
                assert all(entry["alive"] for entry in shards.values())
                client.shutdown()
            finally:
                client.close()
            assert proc.wait(timeout=60) == 0, log.read_text(errors="replace")
