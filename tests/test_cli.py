"""Tests for the CLI front end."""

import pytest

from repro import cli
from repro.cli import main
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.common import ExperimentConfig


class TestRegistry:
    def test_all_five_artifacts_registered(self):
        assert set(EXPERIMENTS) == {"table1", "table2", "fig4", "fig5", "fig6"}

    def test_cli_subcommands_name_the_registry(self):
        assert cli._EXPERIMENTS == tuple(sorted(EXPERIMENTS))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99", ExperimentConfig())

    def test_run_experiment_returns_text(self):
        text = run_experiment("table2", ExperimentConfig(runs=1))
        assert "Table II" in text


class TestMain:
    def test_table2_smoke(self, capsys):
        assert main(["table2", "--runs", "1"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "regenerated" in output

    def test_fig4_with_step(self, capsys):
        assert main(["fig4", "--runs", "1", "--step", "25"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_unknown_name_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["figure-zero"])

    def test_seed_flag_accepted(self, capsys):
        assert main(["table2", "--seed", "5"]) == 0


class TestToolSubcommands:
    def test_attack(self, capsys):
        assert main(["attack", "--trials", "100", "--volume", "512"]) == 0
        output = capsys.readouterr().out
        assert "noise/information" in output
        assert "analytic" in output and "attack" in output

    def test_simulate_and_archive_roundtrip(self, capsys, tmp_path):
        archive_dir = str(tmp_path / "records")
        assert (
            main(
                [
                    "simulate",
                    "--periods", "2",
                    "--commuters", "20",
                    "--transients", "100",
                    "--locations", "10",
                    "--archive", archive_dir,
                ]
            )
            == 0
        )
        assert "archived 2 records" in capsys.readouterr().out
        assert main(["archive", "verify", archive_dir]) == 0
        assert "2 records verified OK" in capsys.readouterr().out
        assert main(["archive", "inspect", archive_dir]) == 0
        assert "location 10" in capsys.readouterr().out

    def test_simulate_with_loss(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--periods", "1",
                    "--commuters", "20",
                    "--transients", "200",
                    "--locations", "10",
                    "--detection-rate", "0.5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "missed" in output

    def test_archive_verify_missing_dir_is_empty(self, capsys, tmp_path):
        assert main(["archive", "verify", str(tmp_path / "fresh")]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_library_errors_exit_cleanly(self, capsys, tmp_path):
        """Corrupt archives produce a one-line error, not a traceback."""
        import json

        directory = tmp_path / "broken"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({"version": 99}))
        assert main(["archive", "verify", str(directory)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "version" in captured.err
