#!/usr/bin/env python3
"""End-to-end benchmark of the sharded tier: ``upload``, ``query``, ``live``.

Run from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

It launches ``python -m repro serve --shards 2`` in its own process
group, generates the workload's inputs from ``--seed``, drives the tier
through ``UploadTransport(wire=TcpUploadClient)`` and
``ShardClient.query`` in closed loops for ``--seconds``, checks every
answer against an in-process ``CentralServer`` rebuilt from the same
records, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from spans recorded
around each layer's calls, in every process) with ``--trace 1``.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("upload", "query", "live")
#: Tier launches per run; ``setup_s`` is their median.
SETUPS = 3
UPLOAD_CONNECTIONS = 2
#: Untimed warm-up before the clock starts.
WARM_DAYS = 2
WARM_QUERIES = 300
#: Days preloaded during set-up.
PRELOAD_DAYS = {"upload": 0, "query": 30, "live": 14}
#: Trailing days the post-restart full-coverage query asks for.
RESTART_WINDOW = 7

#: End-to-end metrics, the same on every workload (BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rss_mb": "MB",
    "tier_cpu_ms_per_op": "ms",
    "stored_bytes_per_byte": "ratio",
}
#: Figures printed beside them and kept in the result file, but not
#: gated: the per-kind ones exist on only some workloads, and the
#: throughputs, p99s and ``restart_s`` spread wider between runs than
#: any bound (README.md, "Noise").
PRINTED = {
    "ops_per_s": "1/s", "op_p99_ms": "ms", "restart_s": "s",
    "upload_per_s": "1/s", "upload_p50_ms": "ms", "upload_p99_ms": "ms",
    "query_per_s": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms",
}


class Failures:
    """Failed ops by kind; the first of each kind is printed."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        self.first: Dict[str, str] = {}

    def add(self, kind: str, detail: str, count: int = 1) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + count
            self.first.setdefault(kind, detail)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def report(self) -> None:
        for kind in sorted(self.counts):
            print(f"FAILED {kind} x{self.counts[kind]}: first: {self.first[kind]}")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


# ----------------------------------------------------------------------
# Closed loops
# ----------------------------------------------------------------------


class DayFeed:
    """Hands out records day after day to any number of upload loops.

    Once ``done()`` says so, the feed stops at the next day boundary,
    so every run ends with whole days stored.
    """

    def __init__(self, inputs, first_day: int, done):
        from inputs import N_RSU

        self._inputs = inputs
        self._done = done
        self._lock = threading.Lock()
        self._n = N_RSU
        self.day = first_day
        self._index = 0
        self.days_started = 1

    def next(self):
        with self._lock:
            if self._index == self._n:
                if self._done(self.days_started):
                    return None
                self.day += 1
                self._index = 0
                self.days_started += 1
            rsu = self._inputs.upload_order[self._index]
            self._index += 1
            return self._inputs.record(self.day, rsu)


def upload_loop(transport, feed: DayFeed, latencies, acked, failures,
                on_ack=None) -> None:
    """One RSU connection: send, wait for the receipt, repeat."""
    from repro.faults.transport import UploadOutcome

    while True:
        record = feed.next()
        if record is None:
            return
        started = time.perf_counter()
        try:
            receipt = transport.send(record)
        except Exception as exc:  # noqa: BLE001 - counted, loop goes on
            failures.add("upload_error", f"{record.location}/{record.period}: {exc!r}")
            continue
        now = time.perf_counter()
        latencies.append((now, now - started))
        if receipt.outcome is UploadOutcome.DELIVERED:
            acked.append((record.location, record.period))
            if on_ack is not None:
                on_ack(record)
        else:
            failures.add(
                f"upload_{receipt.outcome.value}",
                f"{record.location}/{record.period}: {receipt.reason}",
            )


@contextmanager
def upload_transports(tier, connections: int):
    """RSU transports, each with its own socket to the front door."""
    from repro.faults.transport import UploadTransport
    from repro.server.sharded.client import TcpUploadClient

    wires = [TcpUploadClient.connect(tier.url, timeout=30.0) for _ in range(connections)]
    try:
        yield [UploadTransport(wire=wire) for wire in wires]
    finally:
        for wire in wires:
            wire.close()


def run_uploads(transports, feed: DayFeed, failures, on_ack=None) -> dict:
    """Closed-loop uploads, one thread per transport, until the feed stops."""
    latencies: List[tuple] = []
    acked: list = []
    threads = [
        threading.Thread(
            target=upload_loop,
            args=(t, feed, latencies, acked, failures, on_ack),
        )
        for t in transports
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "latencies": latencies, "acked": len(acked),
        "elapsed": time.perf_counter() - started, "last_day": feed.day,
    }


def run_queries(client, make_query, done, failures, answers) -> dict:
    """One analyst connection: ask, wait for the answer, repeat."""
    latencies: List[tuple] = []
    index = 0
    started = time.perf_counter()
    while not done(index):
        payload = make_query(index)
        index += 1
        begun = time.perf_counter()
        try:
            reply = client.query(payload)
        except Exception as exc:  # noqa: BLE001 - counted, loop goes on
            failures.add("query_error", f"{payload}: {exc!r}")
            continue
        now = time.perf_counter()
        latencies.append((now, now - begun))
        if not reply.get("ok"):
            failures.add(
                f"query_refused_{reply.get('error_kind')}",
                f"{payload['kind']}: {reply.get('error')}",
            )
            continue
        answers.append((payload, reply["result"]))
    return {"latencies": latencies, "elapsed": time.perf_counter() - started,
            "count": index}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


class Reference:
    """An in-process ``CentralServer`` over the same records."""

    def __init__(self, inputs, days):
        from inputs import LOAD_FACTOR, S
        from repro.server.central import CentralServer

        self._server = CentralServer(s=S, load_factor=LOAD_FACTOR)
        for day in days:
            for record in inputs.day_records(day):
                self._server.receive_record(record)
        self._memo: Dict[tuple, object] = {}

    def estimate(self, location: int, periods: tuple):
        from repro.server.queries import PointPersistentQuery

        key = (location, periods)
        if key not in self._memo:
            self._memo[key] = self._server.point_persistent(
                PointPersistentQuery(location=location, periods=periods)
            )
        return self._memo[key]


def check_multi(reference, payload, result, failures) -> None:
    """Every location of a merged answer: covered and bit-identical.

    At most one failure is counted per answer; the first is described.
    """
    from repro.server.sharded.frontdoor import decode_sharded_result

    periods = tuple(payload["periods"])
    merged = decode_sharded_result(result)
    if [o.location for o in merged.outcomes] != list(payload["locations"]):
        failures.add("missing_cell", f"answer locations differ from {payload['locations']}")
        return
    for outcome in merged.outcomes:
        where = f"location {outcome.location} periods {periods[0]}..{periods[-1]}"
        if outcome.result is None:
            failures.add("uncovered_cell", f"{where}: {outcome.error}")
            return
        if tuple(outcome.result.coverage.covered) != periods:
            failures.add("uncovered_cell", f"{where}: covered {outcome.result.coverage.covered}")
            return
        if outcome.result.value != reference.estimate(outcome.location, periods):
            failures.add("mismatch", f"{where}: {outcome.result.value}")
            return


def check_point(reference, payload, result, failures) -> None:
    """A single-location answer: the estimate and V statistics, bit for bit."""
    from repro.server.sharded import wire

    periods = tuple(payload["periods"])
    value = wire.decode_estimate(result)
    if value != reference.estimate(payload["location"], periods):
        failures.add(
            "mismatch",
            f"location {payload['location']} periods {periods[0]}..{periods[-1]}: {value}",
        )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


class Run:
    """One workload and seed: set-up, warm-up, timed phase, restart, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 ops: Optional[int], work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = ops
        self.work = work
        self.tiers: list = []
        self.failures = Failures()
        self.attempted = 0
        self.info: Dict[str, object] = {}
        #: (check function, payload, answer) of every answered query.
        self.answers: list = []

    # -- tiers ---------------------------------------------------------

    def new_tier(self, name: str, data_dir: Optional[Path] = None):
        from spans import SPAN_DIR_ENV
        from tier import Tier

        if self.trace:
            command = [sys.executable, str(HERE / "traced_serve.py")]
        else:
            command = [sys.executable, "-m", "repro"]
        span_dir = self.work / f"spans-{name}"
        span_dir.mkdir(parents=True, exist_ok=True)
        tier = Tier(ROOT, data_dir or self.work / f"data-{name}",
                    self.work / f"serve-{name}.log", command,
                    env={SPAN_DIR_ENV: str(span_dir)})
        tier.name = name
        tier.span_dir = span_dir
        self.tiers.append(tier)
        return tier

    def stop_tier(self, tier) -> None:
        """Kill the group; a traced tier first shuts down so it dumps spans."""
        if self.trace:
            tier.shutdown()
        else:
            tier.kill()

    def setup(self, inputs):
        """Launch the tier ``SETUPS`` times (with preload); keep the last."""
        preload = [inputs.day_frames(d) for d in range(PRELOAD_DAYS[self.workload])]
        setups, readies = [], []
        tier = None
        for rep in range(SETUPS):
            if tier is not None:
                self.stop_tier(tier)
                shutil.rmtree(tier.data_dir, ignore_errors=True)
            tier = self.new_tier(f"setup{rep}")
            started = time.perf_counter()
            readies.append(tier.launch())
            client = tier.client()
            try:
                for day, frames in enumerate(preload):
                    counts = client.upload_batch(frames)
                    self.attempted += len(frames)
                    if counts.get("delivered") != len(frames):
                        self.failures.add("preload", f"day {day}: {counts}")
            finally:
                client.close()
            setups.append(time.perf_counter() - started)
        self.info["setup_samples"] = setups
        self.info["ready_samples"] = readies
        self.info["setup_s"] = statistics.median(setups)
        return tier

    def run(self) -> Dict[str, object]:
        from inputs import Inputs

        inputs = Inputs(self.seed)
        self.payload_len = [
            [len(inputs.record(d, i).to_payload()) for i in range(len(inputs.locations))]
            for d in range(len(inputs.month))
        ]
        if self.trace:
            import spans

            spans.install_driver()
        tier = self.setup(inputs)
        self.main_tier = tier
        last_day = getattr(self, f"_{self.workload}")(inputs, tier)
        expected = (last_day + 1) * len(inputs.locations)
        if self.info["records"] != expected:
            self.failures.add("lost_record", f"{self.info['records']} records stored, "
                              f"{expected} acknowledged",
                              count=abs(expected - self.info["records"]))
        self.info["stored_bytes_per_byte"] = self.info["stored_bytes"] / sum(
            sum(self.payload_len[d % len(self.payload_len)]) for d in range(last_day + 1)
        )
        if self.workload == "upload":
            self._restart(inputs, tier, last_day, expected)
        else:
            self.stop_tier(tier)
        self._check(inputs, last_day)
        return self.info

    # -- the timed phase -----------------------------------------------

    def _stop_rule(self):
        """Timed phase end: ``--seconds`` elapsed, or ``--ops`` units done."""
        if self.ops is not None:
            return lambda count: count >= self.ops
        end = time.perf_counter() + self.seconds
        return lambda _count: time.perf_counter() >= end

    def _begin(self, tier) -> None:
        gc.collect()
        gc.freeze()
        self.cpu0 = tier.cpu_seconds()
        self.t0 = time.perf_counter_ns()

    def _end(self, tier, uploads: Optional[dict], queries: Optional[dict]) -> None:
        self.t1 = time.perf_counter_ns()
        samples: list = []
        for kind, result in (("upload", uploads), ("query", queries)):
            if result is not None:
                self._kind_metrics(kind, result["latencies"], result["elapsed"])
                samples += result["latencies"]
        self.attempted += len(samples)
        self.info["ops"] = len(samples)
        self.info["ops_per_s"] = len(samples) / ((self.t1 - self.t0) / 1e9)
        self._kind_metrics("op", samples, (self.t1 - self.t0) / 1e9, rate=False)
        cpu = tier.cpu_seconds() - self.cpu0
        self.info["tier_cpu_ms_per_op"] = cpu * 1000.0 / max(len(samples), 1)
        self.info["rss_mb"] = tier.peak_rss_mb()
        client = tier.client()
        try:
            stats = client.stats()
        finally:
            client.close()
        self.info["records"] = stats["records"]
        self.info["resident_mb"] = _metric(stats, "repro_store_bits") / 8 / 2**20
        self.info["stored_bytes"] = tier.stored_bytes()

    def _kind_metrics(self, kind: str, samples: list, elapsed: float, rate=True):
        latencies = [latency for _, latency in samples]
        if rate:
            self.info[f"{kind}_per_s"] = len(latencies) / elapsed
        self.info[f"{kind}_p50_ms"] = percentile(latencies, 50) * 1000
        self.info[f"{kind}_p99_ms"] = percentile(latencies, 99) * 1000
        self.info[f"{kind}_samples"] = len(latencies)
        self._beyond(kind, len(latencies))
        start = self.t0 / 1e9
        windows: Dict[int, list] = {}
        for end, latency in samples:
            windows.setdefault(int(end - start), []).append(latency)
        self.info[f"{kind}_windows"] = [
            (second, len(v), statistics.median(v) * 1000)
            for second, v in sorted(windows.items())
        ]

    def _beyond(self, kind: str, count: int) -> None:
        beyond = count - int(-(-99 * count // 100))
        self.info[f"{kind}_p99_beyond"] = beyond
        if beyond < 10:
            print(f"warning: {kind}_p99_ms has only {beyond} samples beyond it")

    def _upload(self, inputs, tier) -> int:
        with upload_transports(tier, UPLOAD_CONNECTIONS) as transports:
            warm = run_uploads(transports, DayFeed(inputs, 0, lambda d: d >= WARM_DAYS),
                               self.failures)
            self.attempted += len(warm["latencies"])
            self._begin(tier)
            result = run_uploads(
                transports, DayFeed(inputs, WARM_DAYS, self._stop_rule()), self.failures
            )
            self._end(tier, result, None)
        return result["last_day"]

    def _query(self, inputs, tier) -> int:
        from inputs import MONTH_DAYS

        stream = inputs.queries

        def make(index):
            locations, periods = stream[index % len(stream)]
            return {"kind": "multi_point_persistent", "locations": list(locations),
                    "periods": list(periods), "policy": None}

        answers: list = []
        client = tier.client()
        try:
            warm = run_queries(client, make, lambda i: i >= WARM_QUERIES,
                               self.failures, answers)
            self.attempted += warm["count"]
            self._begin(tier)
            result = run_queries(client, lambda i: make(WARM_QUERIES + i),
                                 self._stop_rule(), self.failures, answers)
            self._end(tier, None, result)
        finally:
            client.close()
        self.answers += [(check_multi, p, a) for p, a in answers]
        return MONTH_DAYS - 1

    def _live(self, inputs, tier) -> int:
        from inputs import N_RSU

        first = PRELOAD_DAYS["live"]
        complete = [first - 1]
        sent_today = [0]

        def on_ack(record):
            # One upload connection: acks arrive in order, day by day.
            sent_today[0] += 1
            if sent_today[0] == N_RSU:
                sent_today[0] = 0
                complete[0] = record.period

        issued = [0]

        def make(index):
            (location,), periods = inputs.live_query(issued[0] + index, complete[0])
            return {"kind": "point_persistent", "location": location,
                    "periods": list(periods), "policy": None}

        answers: list = []

        def phase(first_day, timed):
            finished = threading.Event()
            queries: dict = {}
            if timed:
                self._begin(tier)
                upload_done = self._stop_rule()
            else:
                upload_done = lambda days: days >= 1  # noqa: E731
            stop_queries = (
                upload_done if timed and self.ops is None
                else (lambda _i: finished.is_set())
            )
            dashboard = threading.Thread(target=lambda: queries.update(
                run_queries(client, make, stop_queries, self.failures, answers)))
            dashboard.start()
            try:
                uploads = run_uploads(transports, DayFeed(inputs, first_day, upload_done),
                                      self.failures, on_ack)
            finally:
                finished.set()
                dashboard.join()
            issued[0] += queries["count"]
            return uploads, queries

        client = tier.client()
        try:
            with upload_transports(tier, 1) as transports:
                # Warm-up: one day of uploads beside the dashboard, untimed.
                uploads, queries = phase(first, timed=False)
                self.attempted += len(uploads["latencies"]) + queries["count"]
                uploads, queries = phase(first + 1, timed=True)
                self._end(tier, uploads, queries)
        finally:
            client.close()
        self.answers += [(check_point, p, a) for p, a in answers]
        return uploads["last_day"]

    # -- restart and checks --------------------------------------------

    def _restart(self, inputs, tier, last_day: int, expected: int) -> None:
        """Kill the tier, relaunch it on its data, ask over every RSU.

        ``restart_s`` runs from the SIGKILL until the relaunched tier
        answers a full-coverage query over every RSU; the answer and
        the record count are checked against everything acknowledged.
        A traced tier is shut down gracefully instead, so it can write
        its spans.
        """
        self.restart_days = range(max(0, last_day - RESTART_WINDOW + 1), last_day + 1)
        payload = {"kind": "multi_point_persistent", "locations": list(inputs.locations),
                   "periods": list(self.restart_days), "policy": None}
        started = time.perf_counter()
        self.stop_tier(tier)
        again = self.new_tier("restart", data_dir=tier.data_dir)
        again.launch()
        client = again.client(timeout=60.0)
        try:
            reply = client.query(payload)
            self.info["restart_s"] = time.perf_counter() - started
            records = client.stats()["records"]
        finally:
            client.close()
        self.attempted += 2
        if records != expected:
            self.failures.add("lost_record", f"after restart {records} records, "
                              f"{expected} acknowledged", count=abs(expected - records))
        if reply.get("ok"):
            self.answers.append((check_multi, payload, reply["result"]))
        else:
            self.failures.add("restart_query", str(reply))
        self.stop_tier(again)

    def _check(self, inputs, last_day: int) -> None:
        """Rebuild a CentralServer from the records; check every answer."""
        first = self.restart_days[0] if self.workload == "upload" else 0
        reference = Reference(inputs, range(first, last_day + 1))
        for check, payload, answer in self.answers:
            check(reference, payload, answer, self.failures)

    def cleanup(self) -> None:
        for tier in self.tiers:
            try:
                tier.kill()
            except Exception as exc:  # noqa: BLE001 - keep tearing down
                print(f"warning: teardown: {exc!r}", file=sys.stderr)


def _metric(stats: dict, name: str) -> float:
    family = stats.get("metrics", {}).get(name, {})
    return float(sum(child["value"] for child in family.get("children", [])))


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------


def provenance(args) -> Dict[str, object]:
    """What a result was measured on, recorded beside it."""
    from repro.experiments.common import bench_environment
    from tier import SHARDS

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
        "shards": SHARDS, **bench_environment(),
    }


def report(args, run: Run, info: Dict[str, object], layers) -> None:
    failed = run.failures.total
    attempted = max(run.attempted, 1)
    info["failed_frac"] = failed / attempted
    end_to_end = {name: info[name] for name in END_TO_END}
    for name, unit in {**END_TO_END, **PRINTED}.items():
        if name not in info:
            continue
        kind = name.split("_")[0]
        samples = ""
        if name.endswith(("_p50_ms", "_p99_ms")):
            samples = f"  (n={info[kind + '_samples']}"
            if name.endswith("_p99_ms"):
                samples += f", {info[kind + '_p99_beyond']} beyond"
            samples += ")"
        print(f"{name:>24} {info[name]:14.6f} {unit}{samples}")
    print(f"{'failed_frac':>24} {info['failed_frac']:14.6f} ratio  "
          f"({failed} of {attempted} ops)")
    run.failures.report()
    correct = failed == 0 and (layers is None or layers["ok"])
    prov = provenance(args)
    record = {
        "provenance": prov,
        "end_to_end": end_to_end,
        "printed": {name: info[name] for name in PRINTED if name in info},
        "failed_frac": info["failed_frac"],
        "setup_samples": info["setup_samples"],
        "samples": {k: v for k, v in info.items() if k.endswith(("_samples", "_beyond"))},
        "windows": {k: v for k, v in info.items() if k.endswith("_windows")},
        "per_layer": layers["metrics"] if layers else None,
        "correct": correct,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    path = results / f"{name}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"result written {path}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if layers is not None:
        import layers as layer_mod

        layer_mod.print_overhead(results, args.workload, end_to_end)
        metrics = {name: {"value": value, "unit": layer_mod.UNITS[name]}
                   for name, value in layers["metrics"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="end the timed phase after this many days (upload, live) or "
             "queries (query) instead of --seconds (determinism self-test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops, work)
    try:
        info = run.run()
        layers = None
        if run.trace:
            import layers as layer_mod

            layers = layer_mod.analyse(run)
    finally:
        run.cleanup()
        shutil.rmtree(work, ignore_errors=True)
    report(args, run, info, layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
