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

    def test_reference_engine_streams_the_batch_table(self, capsys):
        # The scalar reference engine serves every window, not just the
        # first, and agrees with batch apart from the engine= token.
        argv = [
            "stream",
            "--nodes", "49",
            "--files", "20",
            "--cache", "3",
            "--radius", "3",
            "--windows", "3",
        ]
        assert main(argv + ["--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert main(argv + ["--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert "engine=reference" in reference_out
        assert "served 147 requests in 3 windows" in reference_out
        assert reference_out.replace("engine=reference", "engine=batch") == batch_out

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
        # Exactly the three engines per family, under a header row; numba is
        # listed either way.
        first_cells = [
            line.split("|")[0].strip() for line in out.splitlines() if "|" in line
        ]
        assert first_cells == ["engine", "numba", "batch", "reference"] * 2
        # Without the module the reason numba is skipped must be spelled out.
        try:
            import numba  # noqa: F401
        except ImportError:
            assert "numba: not importable" in out
        # Auto resolution order is inspectable: the auto order column.
        assert "auto order" in out
        assert "priority" not in out

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
                "auto_order",
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


class TestServeCommand:
    @pytest.mark.parametrize("kind", [[], ["--queueing"]], ids=["static", "queueing"])
    def test_zipf_requires_gamma(self, kind, tmp_path, capsys):
        journal = tmp_path / "wal"
        code = main(
            [
                "serve",
                "--nodes", "16",
                "--files", "8",
                "--cache", "2",
                "--port", "0",
                "--popularity", "zipf",
                "--journal", str(journal),
            ]
            + kind
        )
        assert code == 2
        assert "--gamma" in capsys.readouterr().err
        # Rejected before the session, the journal or the socket exists.
        assert not journal.exists()

    @pytest.mark.parametrize(
        "strategy",
        [
            "nearest_replica",
            "proximity_two_choice",
            "random_replica",
            "least_loaded_in_ball",
            "threshold_hybrid",
        ],
    )
    def test_static_session_matches_point_config(self, strategy):
        """The spec-built session ``serve`` wraps (and ``--recover`` rebuilds)
        is the one ``simulate`` / ``stream`` build from the same flags."""
        import numpy as np

        from repro.cli import _build_point_config, _serve_spec
        from repro.service.journal import build_session_from_spec
        from repro.session import open_session

        args = build_parser().parse_args(
            [
                "serve",
                "--nodes", "49",
                "--files", "20",
                "--cache", "3",
                "--strategy", strategy,
                "--radius", "2",
                "--choices", "3",
                "--popularity", "zipf",
                "--gamma", "0.8",
                "--seed", "5",
            ]
        )
        served = build_session_from_spec(_serve_spec(args))
        direct = open_session(
            _build_point_config(args), seed=args.seed, assignment_engine=args.engine
        )
        assert served.description == direct.description
        np.testing.assert_array_equal(
            served.library.popularity_vector(), direct.library.popularity_vector()
        )
        np.testing.assert_array_equal(served.cache.slots, direct.cache.slots)
        rng = np.random.default_rng(0)
        cached = np.unique(served.cache.slots)
        for _ in range(3):
            origins = rng.integers(0, 49, size=40)
            files = rng.choice(cached, size=40)
            a = served.dispatch_batch(origins, files)
            b = direct.dispatch_batch(origins, files)
            np.testing.assert_array_equal(a.servers, b.servers)
            np.testing.assert_array_equal(a.distances, b.distances)
            np.testing.assert_array_equal(a.fallback_mask, b.fallback_mask)
        assert served.state_digest() == direct.state_digest()


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

    def test_figures_sharing_a_sweep_run_it_once(self, tmp_path, monkeypatch):
        # Figures 3 and 4 plot two metrics of one sweep: asking for both
        # runs it once and writes the files two separate invocations write.
        import repro.experiments.runner as runner

        separate, together = tmp_path / "separate", tmp_path / "together"
        for number in ("3", "4"):
            argv = ["figures", "--figures", number, "--trials", "2"]
            assert main(argv + ["--output-dir", str(separate)]) == 0
        ran, run_experiment = [], runner.run_experiment

        def counting_run_experiment(spec, *args, **kwargs):
            ran.append(spec.experiment_id)
            return run_experiment(spec, *args, **kwargs)

        monkeypatch.setattr(runner, "run_experiment", counting_run_experiment)
        argv = ["figures", "--figures", "3", "4", "--trials", "2"]
        assert main(argv + ["--output-dir", str(together)]) == 0
        assert ran == ["FIG3"]
        names = sorted(path.name for path in separate.iterdir())
        assert names == [f"fig{n}.{ext}" for n in (3, 4) for ext in ("csv", "json", "txt")]
        assert sorted(path.name for path in together.iterdir()) == names
        for name in names:
            assert (together / name).read_bytes() == (separate / name).read_bytes()


class TestTablesCommand:
    def test_single_table(self, capsys):
        code = main(["tables", "--tables", "bb", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TAB-BB" in out
        assert "two_choice_measured" in out
