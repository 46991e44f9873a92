"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_required_arguments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(
            ["simulate", "--nodes", "100", "--files", "50", "--cache", "4"]
        )
        assert args.command == "simulate"
        assert args.strategy == "proximity_two_choice"
        assert args.trials == 10
        assert args.engine == "auto"

    def test_engine_flag_shared_across_subcommands(self):
        for argv in (
            ["simulate", "--nodes", "4", "--files", "2", "--cache", "1"],
            ["stream", "--nodes", "4", "--files", "2", "--cache", "1"],
            ["supermarket", "--nodes", "4", "--files", "2", "--cache", "1"],
            ["figures"],
        ):
            args = build_parser().parse_args(argv + ["--engine", "reference"])
            assert args.engine == "reference"

    def test_figures_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figures", "9"])

    def test_tables_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--tables", "zz"])


class TestSimulateCommand:
    def test_two_choice_run(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "100",
                "--files", "50",
                "--cache", "4",
                "--radius", "5",
                "--trials", "2",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "maximum load L" in out
        assert "communication cost C" in out

    def test_nearest_replica_run(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "100",
                "--files", "50",
                "--cache", "4",
                "--strategy", "nearest_replica",
                "--trials", "2",
            ]
        )
        assert code == 0
        assert "Theorem 3" in capsys.readouterr().out

    def test_zipf_requires_gamma(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "100",
                "--files", "50",
                "--cache", "4",
                "--popularity", "zipf",
                "--trials", "1",
            ]
        )
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_zipf_with_gamma(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "100",
                "--files", "50",
                "--cache", "4",
                "--popularity", "zipf",
                "--gamma", "1.2",
                "--strategy", "nearest_replica",
                "--trials", "1",
            ]
        )
        assert code == 0


class TestStreamCommand:
    def test_stream_reports_windows_and_summary(self, capsys):
        code = main(
            [
                "stream",
                "--nodes", "100",
                "--files", "40",
                "--cache", "4",
                "--radius", "4",
                "--window", "150",
                "--windows", "3",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming 3 windows" in out
        assert "served 450 requests in 3 windows" in out
        # One line per window plus header/summary.
        assert out.count("\n") >= 6

    def test_stream_is_deterministic_given_seed(self, capsys):
        argv = [
            "stream",
            "--nodes", "100",
            "--files", "40",
            "--cache", "4",
            "--window", "100",
            "--windows", "2",
            "--seed", "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_stream_rejects_non_positive_windows(self, capsys):
        code = main(
            [
                "stream",
                "--nodes", "100",
                "--files", "40",
                "--cache", "4",
                "--windows", "0",
            ]
        )
        assert code == 2
        assert "--windows" in capsys.readouterr().err

    def test_stream_rejects_non_positive_window_size(self, capsys):
        code = main(
            [
                "stream",
                "--nodes", "100",
                "--files", "40",
                "--cache", "4",
                "--window", "0",
            ]
        )
        assert code == 2
        assert "--window" in capsys.readouterr().err

    def test_stream_defaults(self):
        args = build_parser().parse_args(
            ["stream", "--nodes", "100", "--files", "40", "--cache", "4"]
        )
        assert args.command == "stream"
        assert args.windows == 10
        assert args.window is None


class TestSupermarketCommand:
    BASE = [
        "supermarket",
        "--nodes", "64",
        "--files", "30",
        "--cache", "4",
        "--radius", "3",
        "--horizon", "6",
        "--seed", "1",
    ]

    def test_sweep_reports_grid(self, capsys):
        code = main(self.BASE + ["--rates", "0.5", "0.8", "--choices", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "supermarket model" in out
        assert "max queue length" in out
        # One row per (rate, d) grid point.
        assert out.count("\n0.5") + out.count("\n0.8") == 4

    def test_stream_windows_reports_per_window(self, capsys):
        code = main(
            self.BASE
            + ["--rates", "0.6", "--choices", "2", "--stream-windows", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming 3 windows" in out
        assert "Qmax" in out

    def test_engines_report_identical_tables(self, capsys):
        main(self.BASE + ["--rates", "0.5", "--engine", "batch"])
        batch_out = capsys.readouterr().out.replace("engine=batch", "")
        main(self.BASE + ["--rates", "0.5", "--engine", "reference"])
        reference_out = capsys.readouterr().out.replace("engine=reference", "")
        assert batch_out == reference_out

    def test_rejects_non_positive_stream_windows(self, capsys):
        code = main(self.BASE + ["--stream-windows", "0"])
        assert code == 2
        assert "stream-windows" in capsys.readouterr().err

    def test_zipf_requires_gamma(self, capsys):
        code = main(self.BASE + ["--popularity", "zipf"])
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(
            ["supermarket", "--nodes", "64", "--files", "30", "--cache", "4"]
        )
        assert args.rates == [0.5, 0.7, 0.9]
        assert args.choices == [1, 2]
        assert args.engine == "auto"
        assert args.weights == "uniform"


class TestEnginesCommand:
    def test_lists_both_families_with_availability(self, capsys):
        code = main(["engines"])
        assert code == 0
        out = capsys.readouterr().out
        assert "assignment engines" in out
        assert "queueing engines" in out
        # Exactly the three builtin engines per family, under a header row;
        # numba is registered either way.
        first_cells = [
            line.split("|")[0].strip() for line in out.splitlines() if "|" in line
        ]
        assert first_cells == ["engine", "numba", "batch", "reference"] * 2
        # Without the module the reason numba is skipped must be spelled out.
        try:
            import numba  # noqa: F401
        except ImportError:
            assert "numba: not importable" in out
        # Auto resolution order is inspectable: the priority column.
        assert "priority" in out

    def test_json_mode_is_machine_readable(self, capsys):
        import json

        code = main(["engines", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        families = {entry["family"] for entry in payload}
        assert families == {"assignment", "queueing"}
        names = [(entry["family"], entry["name"]) for entry in payload]
        assert names == [
            (family, name)
            for family in ("assignment", "queueing")
            for name in ("numba", "batch", "reference")
        ]
        for entry in payload:
            assert set(entry) == {
                "family",
                "name",
                "available",
                "skip_reason",
                "priority",
                "auto_order",
                "supports_streaming",
                "description",
            }
            assert isinstance(entry["available"], bool)
            # Unavailable engines must say why; available ones carry no reason.
            if entry["available"]:
                assert entry["skip_reason"] is None
            else:
                assert isinstance(entry["skip_reason"], str) and entry["skip_reason"]
        # auto_order is 1-based and contiguous within each family.
        for family in families:
            orders = sorted(e["auto_order"] for e in payload if e["family"] == family)
            assert orders == list(range(1, len(orders) + 1))

    def test_unknown_engine_reports_registered_list(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "16",
                "--files", "8",
                "--cache", "2",
                "--topology", "complete",
                "--trials", "1",
                "--engine", "warp",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown assignment engine 'warp'" in err
        assert "batch" in err and "reference" in err


class TestFiguresCommand:
    def test_single_figure_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "figures",
                "--figures", "1",
                "--trials", "1",
                "--output-dir", str(tmp_path),
                "--no-plot",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig1.json").exists()
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.txt").exists()
        out = capsys.readouterr().out
        assert "FIG1" in out


class TestTablesCommand:
    def test_single_table(self, capsys):
        code = main(["tables", "--tables", "bb", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TAB-BB" in out
        assert "two_choice_measured" in out
