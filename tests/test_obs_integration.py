"""End-to-end observability: instrumented pipeline + CLI export."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import runtime
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    reg = runtime.enable(registry=MetricsRegistry())
    yield reg
    runtime.disable()


def _run_small_scenario():
    from repro.network.road import sioux_falls_network
    from repro.sim.scenario import CityScenario
    from repro.traffic.sioux_falls import sioux_falls_trip_table

    return CityScenario(
        network=sioux_falls_network(),
        trip_table=sioux_falls_trip_table(),
        persistent_vehicles=10,
        transient_vehicles_per_period=40,
        rsu_locations=[10],
        seed=7,
        detection_rate=0.8,
    )


class TestServerCounters:
    def test_ingest_and_query_counters_after_simulated_run(self, registry):
        from repro.server.queries import PointPersistentQuery

        scenario = _run_small_scenario()
        scenario.run(3)
        scenario.server.point_persistent(
            PointPersistentQuery(location=10, periods=(0, 1, 2))
        )

        ingested = registry.get("repro_records_ingested_total").labels()
        assert ingested.value == 3.0  # one RSU, three periods
        queries = registry.get("repro_queries_total").labels(
            kind="point_persistent"
        )
        assert queries.value == 1.0
        latency = registry.get("repro_estimate_latency_seconds").labels(
            kind="point_persistent"
        )
        assert latency.count == 1
        assert latency.sum > 0.0
        # The store gauges track the three resident records.
        assert registry.get("repro_store_records").labels().value == 3.0
        assert registry.get("repro_store_bits").labels().value > 0.0
        # Channel faults at detection_rate=0.8 produce loss events.
        assert registry.get("repro_loss_events_total").labels().value > 0.0
        # The point estimator ran a split-join over the records.
        assert registry.get("repro_joins_total").labels(op="split").value >= 1.0
        # Each period was timed as a span.
        spans = registry.get("repro_span_duration_seconds").labels(
            span="sim.period"
        )
        assert spans.count == 3

    def test_monitor_refresh_counter(self, registry):
        from repro.server.monitor import PersistenceMonitor

        scenario = _run_small_scenario()
        scenario.run(3)
        monitor = PersistenceMonitor(location=10, window=2)
        for period in (0, 1, 2):
            monitor.push(scenario.server.store.require(10, period))
        refreshes = registry.get("repro_monitor_refreshes_total").labels(
            location="10"
        )
        assert refreshes.value == 2.0  # warm after 2, refreshed at 3

    def test_nothing_collected_while_disabled(self):
        assert not runtime.enabled()
        scenario = _run_small_scenario()
        scenario.run(1)
        # A registry enabled *afterwards* carries no trace of the run:
        # enable() eagerly rebinds every live handle, so the full
        # catalog exports — but strictly at zero.
        reg = runtime.enable(registry=MetricsRegistry())
        try:
            snapshot = reg.snapshot()
            for name, family in snapshot.items():
                for child in family["children"]:
                    if "value" in child:
                        assert child["value"] == 0.0, name
                    else:  # histogram child
                        assert child["count"] == 0, name
                        assert child["sum"] == 0.0, name
        finally:
            runtime.disable()


class TestCliMetrics:
    SIMULATE = [
        "simulate",
        "--periods", "3",
        "--commuters", "10",
        "--transients", "40",
        "--locations", "10",
    ]

    def test_simulate_writes_prometheus_and_prints_report(
        self, capsys, tmp_path
    ):
        out = tmp_path / "m.prom"
        assert main(self.SIMULATE + ["--metrics-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "run report" in printed
        assert "repro_records_ingested_total" in printed
        assert f"[metrics written to {out} (prom)]" in printed

        samples = parse_prometheus(out.read_text())
        assert samples[("repro_records_ingested_total", ())] == 3.0
        # One instrumented location -> one point-persistent query.
        assert (
            samples[("repro_queries_total", (("kind", "point_persistent"),))]
            == 1.0
        )
        count = samples[
            (
                "repro_estimate_latency_seconds_count",
                (("kind", "point_persistent"),),
            )
        ]
        assert count == 1.0

    def test_simulate_without_flags_prints_no_report(self, capsys):
        assert main(self.SIMULATE) == 0
        printed = capsys.readouterr().out
        assert "run report" not in printed
        assert "metrics written" not in printed
        assert not runtime.enabled()

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        assert (
            main(
                self.SIMULATE
                + ["--metrics-out", str(out), "--metrics-format", "json"]
            )
            == 0
        )
        document = json.loads(out.read_text())
        assert document["repro_records_ingested_total"]["type"] == "counter"

    def test_text_format(self, tmp_path):
        out = tmp_path / "m.txt"
        assert (
            main(
                self.SIMULATE
                + ["--metrics-out", str(out), "--metrics-format", "text"]
            )
            == 0
        )
        assert out.read_text().startswith("run report")

    def test_trace_out_carries_period_counts(self, capsys, tmp_path):
        out = tmp_path / "traces.jsonl"
        assert main(self.SIMULATE + ["--trace-out", str(out)]) == 0
        traces = [json.loads(l) for l in out.read_text().splitlines()]
        periods = [
            span
            for trace in traces
            for span in trace["spans"]
            if span["name"] == "sim.period"
        ]
        assert len(periods) == 3
        assert sorted(int(s["attrs"]["period"]) for s in periods) == [0, 1, 2]
        for period in periods:
            assert int(period["attrs"]["encounters"]) > 0
            for count in ("missed", "rejected", "lost", "outaged"):
                assert int(period["attrs"][count]) >= 0
        assert "traces written to" in capsys.readouterr().out

    def test_attack_accepts_metrics_flags(self, capsys, tmp_path):
        out = tmp_path / "attack.prom"
        assert (
            main(
                [
                    "attack",
                    "--trials", "50",
                    "--volume", "512",
                    "--metrics-out", str(out),
                ]
            )
            == 0
        )
        assert out.exists()

    def test_experiment_subcommand_collects_cell_timings(self, tmp_path):
        out = tmp_path / "fig4.prom"
        assert (
            main(
                [
                    "fig4",
                    "--runs", "1",
                    "--step", "25",
                    "--metrics-out", str(out),
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "repro_experiment_cell_seconds_bucket" in text
        assert 'experiment="fig4"' in text
        assert "repro_joins_total" in text

    def test_obs_disabled_after_cli_run(self, tmp_path):
        main(self.SIMULATE + ["--metrics-out", str(tmp_path / "m.prom")])
        assert not runtime.enabled()
