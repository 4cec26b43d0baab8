"""Command-line front end.

Regenerate any paper artifact, or drive the system as a tool::

    python -m repro table1 --runs 20          # paper artifacts
    python -m repro table2 --empirical
    python -m repro fig4 --runs 10 --step 5
    python -m repro all --runs 5

    python -m repro simulate --periods 5      # end-to-end city run
    python -m repro simulate --fault-plan plan.json   # lossy ingest
    python -m repro chaos                     # fault-grid chaos sweep
    python -m repro attack --s 3 --f 2        # the Sec. V adversary
    python -m repro archive verify DIR        # record-archive tooling
    python -m repro archive inspect DIR
    python -m repro archive repair DIR        # crash recovery

Every simulate/attack/experiment subcommand accepts ``--metrics-out
PATH`` (with ``--metrics-format {prom,json,text}``) to activate the
observability layer for the run and export the collected metrics,
``--serve-metrics PORT`` to expose live ``/metrics``, ``/healthz``
and ``/traces`` endpoints while the run executes (0 picks a free
port), and ``--trace-out PATH`` to dump recent distributed traces as
JSONL.  Without those flags nothing is collected and output is
unchanged.  See ``docs/observability.md`` for the metric catalog and
the endpoint contract; for function hotspots run the command under
``python -m cProfile``.

The experiment defaults favour quick regeneration; the paper's own
setting is 1000 runs per cell (``--runs 1000``).  ``--workers N`` fans
independent sweep cells over N processes with byte-identical output
(see ``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import DEFAULT_RUNS, ExperimentConfig

#: The paper-artifact subcommands: the names of
#: ``repro.experiments.EXPERIMENTS``, spelled out so that ``serve`` and
#: every other command load no experiment module they do not run.
_EXPERIMENTS = ("fig4", "fig5", "fig6", "table1", "table2")
_EXPERIMENT_NAMES = list(_EXPERIMENTS) + ["all"]

#: Exporter formats accepted by --metrics-format.
_METRICS_FORMATS = ("prom", "json", "text")


def _add_metrics_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect runtime metrics and write them to PATH",
    )
    parser.add_argument(
        "--metrics-format",
        choices=_METRICS_FORMATS,
        default="prom",
        help="exporter for --metrics-out (default: prom)",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live /metrics, /healthz and /traces on this localhost "
            "port while the run executes (0 picks a free port, printed "
            "at startup)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write recent traces as JSONL to PATH when the run ends",
    )


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help=f"simulation runs per cell (default {DEFAULT_RUNS}; paper: 1000)",
    )
    parser.add_argument("--seed", type=int, default=2017, help="master random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "processes for independent experiment cells (default 1 = "
            "serial; any value yields byte-identical output)"
        ),
    )
    parser.add_argument(
        "--step",
        type=int,
        default=1,
        help="fig4 sweep subsampling (keep every Nth point)",
    )
    parser.add_argument(
        "--points-per-target",
        type=int,
        default=1,
        help="fig5/fig6 measurements per swept target",
    )
    parser.add_argument(
        "--empirical",
        action="store_true",
        help="table2: also run the simulated tracking attack per cell",
    )
    parser.add_argument(
        "--from-trip-table",
        action="store_true",
        help="table1: derive workload parameters from the embedded OD matrix",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description=(
            "Persistent traffic measurement through V2I communications "
            "(ICDCS 2017 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENT_NAMES:
        sub = subparsers.add_parser(
            name,
            help=(
                "regenerate every table and figure"
                if name == "all"
                else f"regenerate the paper's {name}"
            ),
        )
        _add_experiment_options(sub)
        _add_metrics_options(sub)

    extra_help = {
        "losscurve": "extension: persistent estimation under V2I loss",
        "tradeoff": "extension: measured accuracy-privacy frontier",
        "tsweep": "extension: error vs number of measurement periods",
        "faultgrid": "extension: estimator error under injected ingest faults",
    }
    for extra, help_text in extra_help.items():
        sub = subparsers.add_parser(extra, help=help_text)
        sub.add_argument("--runs", type=int, default=DEFAULT_RUNS)
        sub.add_argument("--seed", type=int, default=2017)
        _add_metrics_options(sub)

    simulate = subparsers.add_parser(
        "simulate", help="run the end-to-end city simulation"
    )
    simulate.add_argument("--periods", type=int, default=5)
    simulate.add_argument("--commuters", type=int, default=150)
    simulate.add_argument("--transients", type=int, default=800)
    simulate.add_argument(
        "--locations",
        type=int,
        nargs="+",
        default=[10, 16, 17],
        help="zones to instrument with RSUs",
    )
    simulate.add_argument("--detection-rate", type=float, default=1.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--archive",
        metavar="DIR",
        default=None,
        help="also persist every collected record to this archive",
    )
    simulate.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="inject faults from a FaultPlan JSON file (see docs/robustness.md)",
    )
    simulate.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "answer queries from surviving periods when at least this "
            "fraction is covered (default: strict, or 0.5 with --fault-plan)"
        ),
    )
    simulate.add_argument(
        "--dead-letter",
        metavar="PATH",
        default=None,
        help="append quarantined uploads to this JSONL dead-letter log",
    )
    simulate.add_argument(
        "--explain",
        action="store_true",
        help=(
            "with --server: ask the tier to explain the remote query "
            "(per-shard wire/engine latency, cache deltas, coverage "
            "contribution, deadline budget) and print the breakdown"
        ),
    )
    simulate.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help=(
            "after the run, upload every collected record to a sharded "
            "ingest tier at tcp://host:port and re-answer the "
            "persistent-traffic queries remotely (see `serve`)"
        ),
    )
    simulate.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="socket timeout (seconds) for --server uploads and queries",
    )
    simulate.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "memoize per-location joins in the server's query-plan "
            "cache (--no-cache recomputes every join; estimates are "
            "bit-identical either way)"
        ),
    )
    _add_metrics_options(simulate)

    chaos = subparsers.add_parser(
        "chaos", help="sweep injected faults through the city pipeline"
    )
    chaos.add_argument("--seed", type=int, default=2017)
    chaos.add_argument("--periods", type=int, default=6)
    chaos.add_argument("--commuters", type=int, default=120)
    chaos.add_argument("--transients", type=int, default=600)
    chaos.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "run the distributed drill instead: a supervised sharded "
            "tier behind a wire-level chaos proxy — kill, partition "
            "and flap shards under live TCP ingest, asserting zero "
            "acknowledged-record loss and coverage-honest answers"
        ),
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=3,
        help="worker process count of the --distributed drill",
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the --distributed drill report as JSON to PATH",
    )
    _add_metrics_options(chaos)

    attack = subparsers.add_parser(
        "attack", help="run the Section V tracking adversary"
    )
    attack.add_argument("--s", type=int, default=3, dest="s")
    attack.add_argument("--f", type=float, default=2.0, dest="f")
    attack.add_argument("--volume", type=int, default=4096)
    attack.add_argument("--trials", type=int, default=2000)
    attack.add_argument("--seed", type=int, default=0)
    _add_metrics_options(attack)

    archive = subparsers.add_parser(
        "archive", help="inspect, verify, or repair a record archive"
    )
    archive.add_argument("action", choices=["verify", "inspect", "repair"])
    archive.add_argument("directory")

    serve = subparsers.add_parser(
        "serve", help="run the sharded multi-process TCP ingest tier"
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="worker process count"
    )
    serve.add_argument(
        "--port", type=int, default=0, help="front-door port (0 = free port)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help=(
            "root for per-shard WALs and archives (default: a fresh "
            "temporary directory, printed at startup)"
        ),
    )
    serve.add_argument("--s", type=int, default=3, dest="s")
    serve.add_argument("--load-factor", type=float, default=2.0)
    serve.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="front-door-to-shard socket timeout in seconds",
    )
    serve.add_argument(
        "--supervise",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "watch shard workers and auto-restart dead or wedged ones "
            "(exponential backoff; a flapping shard is fenced after "
            "its restart budget and its cells report uncovered)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help=(
            "front-door concurrent-request bound; excess requests are "
            "refused with a retryable MSG_BUSY (0 sheds everything)"
        ),
    )
    serve.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve the cluster-merged live endpoints (/metrics, "
            "/healthz, /traces, /shards) on this localhost port (0 "
            "picks a free port, printed at startup)"
        ),
    )

    return parser


def _run_experiment_command(name: str, args: argparse.Namespace) -> int:
    names = _EXPERIMENTS if name == "all" else [name]
    for experiment in names:
        started = time.time()
        config = ExperimentConfig(
            runs=args.runs, seed=args.seed, workers=args.workers
        )
        if experiment == "table1":
            from repro.experiments.table1 import format_table1, run_table1

            output = format_table1(
                run_table1(config, from_trip_table=args.from_trip_table)
            )
        elif experiment == "table2":
            from repro.experiments.table2 import format_table2, run_table2

            output = format_table2(run_table2(config, empirical=args.empirical))
        elif experiment == "fig4":
            from repro.experiments.fig4 import format_fig4, run_fig4

            output = format_fig4(run_fig4(config, fraction_step=args.step))
        elif experiment == "fig5":
            from repro.experiments.fig5 import format_fig5, run_fig5

            output = format_fig5(
                run_fig5(config, points_per_target=args.points_per_target)
            )
        elif experiment == "fig6":
            from repro.experiments.fig6 import format_fig6, run_fig6

            output = format_fig6(
                run_fig6(config, points_per_target=args.points_per_target)
            )
        else:  # pragma: no cover - registry and CLI enumerate together
            raise KeyError(experiment)
        elapsed = time.time() - started
        print(output)
        print(f"\n[{experiment} regenerated in {elapsed:.1f}s]\n")
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    from repro.exceptions import CoverageError
    from repro.network.road import sioux_falls_network
    from repro.server.degradation import CoveragePolicy
    from repro.server.persistence import RecordArchive
    from repro.server.queries import PointPersistentQuery
    from repro.sim.scenario import CityScenario
    from repro.traffic.sioux_falls import sioux_falls_trip_table

    fault_plan = None
    if args.fault_plan:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan)
    scenario = CityScenario(
        network=sioux_falls_network(),
        trip_table=sioux_falls_trip_table(),
        persistent_vehicles=args.commuters,
        transient_vehicles_per_period=args.transients,
        rsu_locations=args.locations,
        seed=args.seed,
        detection_rate=args.detection_rate,
        fault_plan=fault_plan,
        dead_letter_path=args.dead_letter,
        cache=args.cache,
    )
    for summary in scenario.run(args.periods):
        line = (
            f"period {summary.period}: {summary.encounters} encounters, "
            f"{summary.missed} missed, {summary.rejected} rejected"
        )
        if fault_plan is not None:
            line += f", {summary.lost} lost, {summary.outaged} outaged"
        print(line)
    if scenario.transport is not None:
        stats = scenario.transport.stats
        print(
            f"transport: {stats.delivered}/{stats.uploads} delivered, "
            f"{stats.retries} retries, {stats.duplicates} duplicates, "
            f"{stats.quarantined} quarantined"
        )
    policy = None
    if args.min_coverage is not None or fault_plan is not None:
        policy = CoveragePolicy(
            min_coverage=(
                args.min_coverage if args.min_coverage is not None else 0.5
            ),
            min_periods=min(2, args.periods),
        )
    periods = tuple(range(args.periods))
    if len(periods) >= 2:
        print("\npoint persistent traffic (actual vs estimated):")
        for location in args.locations:
            actual = scenario.truth.point_persistent(location, periods)
            query = PointPersistentQuery(location=location, periods=periods)
            if policy is None:
                estimate = scenario.server.point_persistent(query)
                print(f"  zone {location}: {actual} vs {estimate.clamped:.1f}")
                continue
            try:
                result = scenario.server.point_persistent(query, policy=policy)
            except CoverageError as exc:
                print(f"  zone {location}: {actual} vs unavailable ({exc})")
                continue
            tag = ""
            if result.degraded:
                tag = (
                    f"  [degraded: {len(result.covered_periods)}/"
                    f"{len(result.requested_periods)} periods]"
                )
            print(
                f"  zone {location}: {actual} vs "
                f"{result.value.clamped:.1f}{tag}"
            )
    else:
        print("\nsingle-period volumes (actual vs estimated):")
        from repro.server.queries import PointVolumeQuery

        for location in args.locations:
            actual = len(scenario.truth.ids_at(location, 0))
            estimate = scenario.server.point_volume(
                PointVolumeQuery(location=location, period=0)
            )
            print(f"  zone {location}: {actual} vs {estimate:.1f}")
    if scenario.server.cache is not None:
        cache_stats = scenario.server.cache.stats
        print(
            f"\nquery-plan cache: {cache_stats.hits} hits / "
            f"{cache_stats.lookups} lookups "
            f"(hit rate {cache_stats.hit_rate:.0%}), "
            f"{cache_stats.evictions} evictions, "
            f"{cache_stats.invalidations} invalidations"
        )
    if args.archive:
        archive = RecordArchive(args.archive)
        count = archive.save_all(scenario.server.store.all_records())
        print(f"\narchived {count} records to {args.archive}")
    if args.server:
        return _push_to_server(args, scenario, periods, policy)
    return 0


def _push_to_server(args, scenario, periods, policy) -> int:
    """Ship a finished simulation's records to a sharded tier over TCP
    and re-answer the persistent-traffic queries remotely."""
    from repro.faults.transport import frame_payload
    from repro.server.sharded.client import ShardClient
    from repro.server.sharded.engine import policy_to_payload
    from repro.server.sharded.frontdoor import decode_sharded_result

    client = ShardClient.from_url(args.server, timeout=args.timeout)
    try:
        frames = [
            frame_payload(record.to_payload())
            for record in scenario.server.store.all_records()
        ]
        counts = client.upload_batch(frames)
        print(
            f"\nuploaded {len(frames)} records to {args.server}: "
            f"{counts.get('delivered', 0)} delivered, "
            f"{counts.get('duplicate', 0)} duplicate, "
            f"{counts.get('quarantined', 0)} quarantined"
        )
        if len(periods) < 2:
            return 0
        reply = client.query(
            {
                "kind": "multi_point_persistent",
                "locations": [int(loc) for loc in args.locations],
                "periods": [int(p) for p in periods],
                "policy": policy_to_payload(policy),
            },
            explain=getattr(args, "explain", False),
        )
        if not reply.get("ok"):
            print(f"remote query failed: {reply.get('error')}")
            return 1
        result = decode_sharded_result(reply["result"])
        print("remote sharded estimates:")
        for outcome in result.outcomes:
            if outcome.result is None:
                print(
                    f"  zone {outcome.location} (shard {outcome.shard}): "
                    f"unavailable ({outcome.error})"
                )
                continue
            coverage = outcome.result.coverage
            tag = ""
            if outcome.result.degraded:
                tag = (
                    f"  [degraded: {len(coverage.covered)}/"
                    f"{len(coverage.requested)} periods]"
                )
            print(
                f"  zone {outcome.location} (shard {outcome.shard}): "
                f"{outcome.result.value.clamped:.1f}{tag}"
            )
        if getattr(args, "explain", False) and result.explain:
            _print_explain(result.explain)
    finally:
        client.close()
    return 0


def _print_explain(explain: dict) -> None:
    """Render a sharded query's explain payload for the terminal."""
    print(
        f"query explain: {explain['total_seconds'] * 1000:.1f} ms total, "
        f"{explain['locations']} location(s) x {explain['periods']} "
        f"period(s), coverage {explain['coverage_fraction']:.0%}"
    )
    budget = explain.get("deadline_budget_seconds")
    if budget is not None:
        consumed = explain.get("deadline_consumed_seconds") or 0.0
        print(
            f"  deadline: {consumed * 1000:.1f} ms of "
            f"{budget * 1000:.1f} ms budget consumed"
        )
    for shard in sorted(explain.get("per_shard", {}), key=int):
        detail = explain["per_shard"][shard]
        timing = ""
        if detail.get("wall_seconds") is not None:
            timing = f", wall {detail['wall_seconds'] * 1000:.1f} ms"
        if detail.get("engine_seconds") is not None:
            timing += f", engine {detail['engine_seconds'] * 1000:.1f} ms"
        if detail.get("wire_seconds") is not None:
            timing += f", wire {detail['wire_seconds'] * 1000:.1f} ms"
        cache = ""
        if detail.get("cache_lookups") is not None:
            cache = (
                f", cache {detail.get('cache_hits', 0)}/"
                f"{detail['cache_lookups']}"
            )
        print(
            f"  shard {shard}: {detail.get('answered', 0)}/"
            f"{detail.get('locations', 0)} location(s) answered, "
            f"{detail.get('covered_cells', 0)}/"
            f"{detail.get('requested_cells', 0)} cell(s) covered"
            f"{timing}{cache}"
        )


def _run_serve(args) -> int:
    import tempfile

    from repro.server.sharded.service import ShardedIngestService

    data_dir = args.data_dir
    if data_dir is None:
        data_dir = tempfile.mkdtemp(prefix="repro-shards-")
    # Workers trace only when a telemetry collector will absorb their
    # spans, and --serve-metrics is the one path that builds it.
    serve_metrics = getattr(args, "serve_metrics", None) is not None
    service = ShardedIngestService(
        n_shards=args.shards,
        data_dir=data_dir,
        host=args.host,
        port=args.port,
        s=args.s,
        load_factor=args.load_factor,
        shard_telemetry=serve_metrics,
        timeout=args.timeout,
        max_inflight=args.max_inflight,
        supervise=args.supervise,
    )
    port = service.start()
    print(f"[shard data under {data_dir}]")
    print(
        f"[sharded ingest tier: {args.shards} shard(s) behind "
        f"tcp://{args.host}:{port}"
        f"{', supervised' if args.supervise else ''}]",
        flush=True,
    )
    metrics_server = None
    if serve_metrics:
        from repro import obs

        # The obs session in _dispatch already enabled the registry
        # and trace buffer; here we attach the tier's telemetry
        # collector so the endpoints serve the *cluster-merged* view.
        cluster = service.cluster_telemetry()
        metrics_server = obs.MetricsServer(
            port=args.serve_metrics, cluster=cluster
        )
        bound = metrics_server.start()
        print(
            f"[metrics server listening on http://127.0.0.1:{bound}]",
            flush=True,
        )
    try:
        # A client's MSG_SHUTDOWN stops the front door remotely; exit
        # then, not just on Ctrl-C.
        while service.running:
            time.sleep(0.5)
        print("shut down by client request")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        service.stop()
    return 0


def _run_attack(args: argparse.Namespace) -> int:
    from repro.privacy.analysis import (
        detection_probability,
        noise_probability,
        noise_to_information_ratio,
    )
    from repro.privacy.attack import TrackingAttack
    from repro.sketch.sizing import next_power_of_two

    m_prime = next_power_of_two(int(args.volume * args.f))
    n_prime = int(round(m_prime / args.f))
    attack = TrackingAttack(
        n_prime=n_prime, m_prime=m_prime, s=args.s, seed=args.seed
    )
    result = attack.run(args.trials)
    p = noise_probability(n_prime, m_prime)
    p_prime = detection_probability(p, args.s)
    ratio = noise_to_information_ratio(n_prime, m_prime, args.s)
    print(f"adversary setting: s={args.s}, f={args.f:g}, n'={n_prime}, m'={m_prime}")
    print(f"noise p           : analytic {p:.4f}, attack {result.empirical_p:.4f}")
    print(
        f"detection p'      : analytic {p_prime:.4f}, "
        f"attack {result.empirical_p_prime:.4f}"
    )
    print(
        f"noise/information : analytic {ratio:.4f}, "
        f"attack {result.empirical_ratio:.4f}"
    )
    verdict = "questionable" if ratio > 1 else "dangerously confident"
    print(f"=> tracking evidence from the records is {verdict}")
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import ChaosConfig, format_chaos, run_chaos

    if args.distributed:
        return _run_distributed_chaos(args)
    config = ChaosConfig(
        seed=args.seed,
        periods=args.periods,
        commuters=args.commuters,
        transients=args.transients,
    )
    result = run_chaos(config)
    print(format_chaos(result))
    if not result.ok:
        print(
            f"\nchaos sweep FAILED: {len(result.violations)} violation(s)",
            file=sys.stderr,
        )
        for violation in result.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def _run_distributed_chaos(args: argparse.Namespace) -> int:
    from repro.faults.drill import (
        DistributedChaosConfig,
        format_distributed_chaos,
        run_distributed_chaos,
    )

    config = DistributedChaosConfig(seed=args.seed, shards=args.shards)
    result = run_distributed_chaos(config)
    print(format_distributed_chaos(result))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"\n[drill report written to {args.report}]")
    if not result.ok:
        print(
            f"\ndistributed drill FAILED: {len(result.violations)} "
            "violation(s)",
            file=sys.stderr,
        )
        for violation in result.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def _run_archive(args: argparse.Namespace) -> int:
    from repro.server.persistence import RecordArchive

    if args.action == "repair":
        archive, report = RecordArchive.recover(args.directory)
        print(
            f"archive {args.directory}: {len(archive)} records after repair"
        )
        print(
            f"  recovered {len(report.recovered)} orphan(s), "
            f"dropped {len(report.dropped)} vanished entr(ies), "
            f"quarantined {len(report.quarantined)} corrupt file(s)"
        )
        if report.clean:
            print("  manifest was already consistent")
        return 0

    archive = RecordArchive(args.directory)
    if args.action == "verify":
        count = archive.verify()
        print(f"{count} records verified OK in {args.directory}")
        return 0
    print(f"archive {args.directory}: {len(archive)} records")
    for location, period in archive.entries():
        record = archive.load(location, period)
        print(
            f"  location {location}, period {period}: m={record.size}, "
            f"{record.bitmap.ones()} bits set, "
            f"~{record.point_estimate():.0f} vehicles"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-traffic`` and ``python -m repro``.

    Library failures (:class:`~repro.exceptions.ReproError`) print a
    one-line diagnosis and exit 1 instead of dumping a traceback.
    """
    from repro.exceptions import ReproError

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_metrics(registry, path: str, fmt: str) -> None:
    from repro import obs

    renderers = {
        "prom": obs.to_prometheus,
        "json": obs.to_json,
        "text": obs.format_report,
    }
    text = renderers[fmt](registry)
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_traces(traces, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for payload in traces.to_payloads():
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _dispatch(args: argparse.Namespace) -> int:
    metrics_out = getattr(args, "metrics_out", None)
    serve_port = getattr(args, "serve_metrics", None)
    trace_out = getattr(args, "trace_out", None)
    if not metrics_out and serve_port is None and not trace_out:
        return _dispatch_command(args)

    # Observability opted in: collect (and trace) for the duration of
    # the command, then export and (for simulate) print the run report.
    # Exporters run in the finally block, so the files are complete
    # even when the run raises mid-flight.
    from repro import obs

    traces = obs.TraceBuffer()
    registry = obs.enable(registry=obs.MetricsRegistry(), trace=traces)
    http_server = None
    # `serve` wires its own cluster-aware MetricsServer inside
    # _run_serve (it needs the running service to merge shard
    # telemetry); the obs session here still owns enable/disable.
    if serve_port is not None and args.command != "serve":
        http_server = obs.MetricsServer(
            registry=registry, traces=traces, port=serve_port
        )
        bound = http_server.start()
        # Flush before dispatch so scrape scripts reading our stdout
        # learn the port while the run is still executing.
        print(
            f"[metrics server listening on http://127.0.0.1:{bound}]",
            flush=True,
        )
    code: Optional[int] = None
    export_failed = False
    try:
        code = _dispatch_command(args)
    finally:
        if http_server is not None:
            http_server.stop()
        obs.disable()
        if code == 0 and args.command == "simulate":
            print()
            print(obs.format_report(registry))
        if metrics_out:
            try:
                _write_metrics(registry, metrics_out, args.metrics_format)
                print(
                    f"[metrics written to {metrics_out} "
                    f"({args.metrics_format})]"
                )
            except OSError as exc:
                print(
                    f"error: cannot write {metrics_out}: {exc}",
                    file=sys.stderr,
                )
                export_failed = True
        if trace_out:
            try:
                _write_traces(traces, trace_out)
                print(f"[{len(traces)} traces written to {trace_out}]")
            except OSError as exc:
                print(
                    f"error: cannot write {trace_out}: {exc}",
                    file=sys.stderr,
                )
                export_failed = True
    if export_failed and code == 0:
        return 1
    return code


def _dispatch_command(args: argparse.Namespace) -> int:
    if args.command in _EXPERIMENT_NAMES:
        return _run_experiment_command(args.command, args)
    if args.command in ("losscurve", "tradeoff", "tsweep", "faultgrid"):
        from repro.experiments import extras
        from repro.experiments.common import cell_timer

        config = ExperimentConfig(runs=args.runs, seed=args.seed)
        with cell_timer(args.command, "total"):
            if args.command == "losscurve":
                print(extras.format_losscurve(extras.run_losscurve(config)))
            elif args.command == "tradeoff":
                print(extras.format_tradeoff(extras.run_tradeoff(config)))
            elif args.command == "faultgrid":
                print(extras.format_faultgrid(extras.run_faultgrid(config)))
            else:
                print(extras.format_tsweep(extras.run_tsweep(config)))
        return 0
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "attack":
        return _run_attack(args)
    if args.command == "archive":
        return _run_archive(args)
    if args.command == "serve":
        return _run_serve(args)
    raise KeyError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
