"""Tests for the experiment runner, report rendering, ASCII plot and IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.figures import figure1_spec, figure5_spec
from repro.experiments.io import load_experiment_result, result_to_csv, save_experiment_result
from repro.experiments.report import render_comparison_table, render_experiment, render_table
from repro.experiments.runner import (
    ExperimentResult,
    PointResult,
    run_experiment,
    run_experiments,
)


@pytest.fixture(scope="module")
def small_result() -> ExperimentResult:
    spec = figure1_spec(sizes=[25, 100], cache_sizes=[1, 5], trials=2)
    return run_experiment(spec, seed=0)


class TestRunner:
    def test_structure(self, small_result):
        assert small_result.experiment_id == "FIG1"
        assert len(small_result.series) == 2
        for series in small_result.series:
            assert len(series.points) == 2
            np.testing.assert_array_equal(series.x_values(), [25.0, 100.0])

    def test_metrics_populated(self, small_result):
        for series in small_result.series:
            assert np.all(series.metric("max_load") >= 1)
            assert np.all(series.metric("communication_cost") >= 0)
            assert np.all(series.metric("predicted_max_load") > 0)

    def test_reproducible(self):
        spec = figure1_spec(sizes=[25], cache_sizes=[1], trials=2)
        a = run_experiment(spec, seed=3)
        b = run_experiment(spec, seed=3)
        assert a.series[0].points[0].max_load_mean == b.series[0].points[0].max_load_mean

    def test_progress_callback(self):
        spec = figure1_spec(sizes=[25], cache_sizes=[1, 5], trials=1)
        calls = []
        run_experiment(spec, seed=0, progress_callback=lambda label, x, p: calls.append(label))
        assert calls == ["Cache size = 1", "Cache size = 5"]

    def test_run_experiments_runs_each_sweep_once(self, monkeypatch):
        # Two specs on one sweep (with different ids, y metrics and extra)
        # and one on another: two runs, and every result equals its own
        # separate run_experiment.
        import dataclasses

        import repro.experiments.runner as runner

        shared = figure1_spec(sizes=[25], cache_sizes=[1, 5], trials=2)
        relabelled = dataclasses.replace(
            shared,
            experiment_id="COST",
            y_metric="communication_cost",
            extra={"parametric": True},
        )
        other = figure1_spec(sizes=[25], cache_sizes=[1], trials=2)
        ran = []
        monkeypatch.setattr(
            runner,
            "run_experiment",
            lambda spec, *args, **kwargs: ran.append(spec) or run_experiment(spec, *args, **kwargs),
        )
        results = list(run_experiments([shared, relabelled, other], seed=4))
        assert ran == [shared, other]
        for spec, result in zip([shared, relabelled, other], results):
            assert result.as_dict() == run_experiment(spec, seed=4).as_dict()

    def test_series_by_label(self, small_result):
        series = small_result.series_by_label("Cache size = 5")
        assert series.label == "Cache size = 5"
        with pytest.raises(ExperimentError):
            small_result.series_by_label("Cache size = 42")

    def test_unknown_metric_raises(self, small_result):
        with pytest.raises(ExperimentError):
            small_result.series[0].metric("latency")

    def test_round_trip_dict(self, small_result):
        rebuilt = ExperimentResult.from_dict(small_result.as_dict())
        assert rebuilt.as_dict() == small_result.as_dict()

    def test_point_result_round_trip(self, small_result):
        point = small_result.series[0].points[0]
        assert PointResult.from_dict(point.as_dict()) == point

    def test_dict_carries_no_wall_clock_time(self, small_result):
        assert "elapsed_seconds" not in small_result.as_dict()

    def test_from_dict_reads_old_elapsed_field(self, small_result):
        old = {**small_result.as_dict(), "elapsed_seconds": 2.5}
        rebuilt = ExperimentResult.from_dict(old)
        assert rebuilt.elapsed_seconds == 2.5
        assert rebuilt.as_dict() == small_result.as_dict()


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "long header"], [[1, 2.5], [300, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_table_validation(self):
        with pytest.raises(ValueError):
            render_table([], [])
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_header_records_resolved_engine(self, small_result):
        from repro.backends.registry import resolve_engine_name

        resolved = resolve_engine_name("auto", "assignment")
        assert small_result.extra["engine"] == resolved
        header = render_experiment(small_result, plot=False).splitlines()[0]
        assert f"engine={resolved}" in header

    def test_config_pinned_engine_recorded_without_override(self):
        # When the point configs pin their own engine and no override is
        # given, the recorded provenance must reflect the pinned engine, not
        # this machine's "auto" resolution.
        import dataclasses

        spec = figure1_spec(sizes=[25], cache_sizes=[1], trials=1)
        pinned = dataclasses.replace(
            spec,
            series=tuple(
                dataclasses.replace(
                    series,
                    points=tuple(
                        dataclasses.replace(
                            point,
                            config=point.config.replace(
                                strategy_params={
                                    **point.config.strategy_params,
                                    "engine": "reference",
                                }
                            ),
                        )
                        for point in series.points
                    ),
                )
                for series in spec.series
            ),
        )
        result = run_experiment(pinned, seed=0)
        assert result.extra["engine"] == "reference"

    def test_engine_override_recorded_and_identical(self):
        spec = figure1_spec(sizes=[25], cache_sizes=[1], trials=2)
        default = run_experiment(spec, seed=0)
        reference = run_experiment(spec, seed=0, assignment_engine="reference")
        assert reference.extra["engine"] == "reference"
        for series_default, series_reference in zip(default.series, reference.series):
            np.testing.assert_array_equal(
                series_default.metric("max_load"), series_reference.metric("max_load")
            )
            np.testing.assert_array_equal(
                series_default.metric("communication_cost"),
                series_reference.metric("communication_cost"),
            )

    def test_render_experiment_contains_series_and_values(self, small_result):
        text = render_experiment(small_result, plot=False)
        assert "FIG1" in text
        assert "Cache size = 1" in text
        assert "max load" in text

    def test_render_experiment_with_plot(self, small_result):
        text = render_experiment(small_result, plot=True)
        assert "legend:" in text
        assert "elapsed" not in text

    def test_render_parametric_experiment(self):
        spec = figure5_spec(radii=[1, 3], cache_sizes=[2], num_nodes=100, num_files=20, trials=1)
        result = run_experiment(spec, seed=0)
        text = render_experiment(result, plot=True)
        assert "average cost" in text

    def test_render_comparison_table(self):
        rows = [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}]
        text = render_comparison_table(rows, title="T")
        assert "== T ==" in text
        assert "a" in text and "b" in text

    def test_render_comparison_table_empty(self):
        with pytest.raises(ValueError):
            render_comparison_table([])

    def test_render_comparison_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = render_comparison_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestAsciiPlot:
    def test_basic_plot(self):
        text = ascii_plot({"s": ([1, 2, 3], [1, 4, 9])}, title="squares")
        assert "squares" in text
        assert "legend: o s" in text

    def test_multiple_series_distinct_markers(self):
        text = ascii_plot({"a": ([1, 2], [1, 2]), "b": ([1, 2], [2, 1])})
        assert "o a" in text and "x b" in text

    def test_constant_series(self):
        text = ascii_plot({"c": ([1, 2, 3], [5, 5, 5])})
        assert "c" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"s": ([1, 2], [1])})
        with pytest.raises(ValueError):
            ascii_plot({"s": ([1], [1])}, width=5)
        with pytest.raises(ValueError):
            ascii_plot({"s": ([], [])})


class TestIO:
    def test_json_round_trip(self, small_result, tmp_path):
        path = save_experiment_result(small_result, tmp_path / "result.json")
        loaded = load_experiment_result(path)
        assert loaded.as_dict() == small_result.as_dict()

    def test_csv_export(self, small_result, tmp_path):
        path = result_to_csv(small_result, tmp_path / "result.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2 series * 2 points
        assert lines[0].startswith("experiment_id,series,x")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_experiment_result(tmp_path / "missing.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ExperimentError):
            load_experiment_result(path)

    def test_load_wrong_version(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"format_version": 99, "result": {}}')
        with pytest.raises(ExperimentError):
            load_experiment_result(path)
