"""Launch, observe and tear down ``python -m repro serve`` as users run it.

The tier runs in its own session (so its own process group), never in
the benchmark's interpreter: an in-process service would run the
front door's threads under the load generator's GIL.  Teardown kills
the whole group and waits until no member is left, also after a
failure.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.exceptions import TransportError
from repro.server.sharded.client import ShardClient

SHARDS = 2
HOST = "127.0.0.1"
_PORT_LINE = re.compile(r"tcp://[0-9.]+:(\d+)")
_LAUNCH_TIMEOUT = 120.0
_TICK = os.sysconf("SC_CLK_TCK")


class TierError(RuntimeError):
    """The tier failed to start or answer."""


class Tier:
    """One ``serve --shards 2`` process group on one data directory."""

    def __init__(self, root: Path, data_dir: Path, log: Path,
                 command: List[str], env: Optional[Dict[str, str]] = None):
        self.root = root
        self.data_dir = data_dir
        self.log = log
        self.command = command
        self.env = env or {}
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    @property
    def url(self) -> str:
        return f"tcp://{HOST}:{self.port}"

    def client(self, timeout: float = 30.0) -> ShardClient:
        return ShardClient(HOST, self.port, timeout=timeout)

    def launch(self) -> float:
        """Start the tier and wait until it answers a ping; returns seconds."""
        env = dict(os.environ, **self.env)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.data_dir.mkdir(parents=True, exist_ok=True)
        argv = self.command + [
            "serve", "--shards", str(SHARDS), "--port", "0",
            "--data-dir", str(self.data_dir),
        ]
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        self.port = self._await_port(started)
        client = self.client(timeout=5.0)
        try:
            while not client.ping():
                self._check_alive()
                if time.perf_counter() - started > _LAUNCH_TIMEOUT:
                    raise TierError("tier did not answer a ping")
                time.sleep(0.002)
        finally:
            client.close()
        return time.perf_counter() - started

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise TierError(
                f"serve exited with code {self.proc.returncode}; see {self.log}"
            )

    def _await_port(self, started: float) -> int:
        offset = self.log.stat().st_size if self.log.exists() else 0
        while time.perf_counter() - started < _LAUNCH_TIMEOUT:
            with open(self.log, "rb") as handle:
                handle.seek(offset)
                for line in handle.read().decode("utf-8", "replace").splitlines():
                    match = _PORT_LINE.search(line)
                    if match:
                        return int(match.group(1))
            self._check_alive()
            time.sleep(0.002)
        raise TierError("serve did not announce its port")

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def members(self) -> List[int]:
        """Live (non-zombie) pids of serve and its shard workers."""
        if self.proc is None:
            return []
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read_stat(int(entry))
            if stat is None or stat[2] == "Z" or int(stat[4]) != self.proc.pid:
                continue
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            # multiprocessing's resource tracker is not part of the tier.
            if b"resource_tracker" not in cmdline:
                pids.append(int(entry))
        return sorted(pids)

    def cpu_seconds(self) -> float:
        """User plus system CPU consumed so far by the tier's processes."""
        total = 0
        for pid in self.members():
            stat = _read_stat(pid)
            if stat is not None:
                total += int(stat[13]) + int(stat[14])
        return total / _TICK

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the tier's processes, in MiB."""
        total_kb = 0
        for pid in self.members():
            try:
                text = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stored_bytes(self) -> int:
        """Bytes of the WAL and archive files under the data directory.

        Port files (rewritten with a different number at every launch)
        are not stored data and are left out.
        """
        total = 0
        for path in self.data_dir.rglob("*"):
            if path.is_file() and path.name not in ("port", "port.tmp"):
                total += path.stat().st_size
        return total

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 60.0) -> None:
        """Graceful stop (``MSG_SHUTDOWN``), then make sure the group is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            client = self.client(timeout=10.0)
            try:
                client.shutdown()
            except (TransportError, OSError):
                pass  # already gone: the kill below reaps it
            finally:
                client.close()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is empty."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 30.0
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.005)
        if self.members():
            print(
                f"warning: tier processes {self.members()} outlived SIGKILL",
                file=sys.stderr,
            )


def _read_stat(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields with the command name removed."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    head, _, tail = raw.rpartition(")")
    fields = [head.split(" (", 1)[0], "comm"] + tail.split()
    return fields
