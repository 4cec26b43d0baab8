"""Self-tests of the benchmark: seeded inputs and exact counts repeat.

Run from the repository root (they launch the tier; about five minutes
in all)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

#: Counts that depend only on the inputs, never on timing, per workload
#: (from a traced run with a fixed op count).
EXACT = {
    "upload": ("server.sharded.wire.upload_bytes",
               "server.sharded.wal.bytes_per_record"),
    "query": ("server.sharded.wire.query_bytes",
              "server.sharded.coordinator.shard_calls_per_query",
              "server.cache.hit_ratio"),
    "live": ("server.sharded.coordinator.shard_calls_per_query",
             "server.sharded.wal.bytes_per_record"),
}
ALWAYS = ("server.store.resident_mb",)
OPS = {"upload": 3, "query": 200, "live": 2}


def test_same_seed_same_frames_and_queries():
    days = range(inputs.MONTH_DAYS)
    first = inputs.digest(inputs.Inputs(3), days)
    assert inputs.digest(inputs.Inputs(3), days) == first
    assert inputs.digest(inputs.Inputs(4), days) != first


def _traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "1",
         "--ops", str(OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], out.stdout[-3000:]
    assert result["failed"] == 0
    record_path = next(line.split(" ", 2)[2] for line in lines
                       if line.startswith("result written "))
    record = json.loads(Path(record_path).read_text())
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["stored_bytes_per_byte"] = record["end_to_end"]["stored_bytes_per_byte"]
    return values


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat(workload):
    first = _traced_run(workload, seed=5)
    second = _traced_run(workload, seed=5)
    for name in EXACT[workload] + ALWAYS + ("stored_bytes_per_byte",):
        assert first[name] == second[name], name
        assert first[name] > 0, name


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in (ROOT / "perfbench").glob("*.py"):
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "query",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
