"""Tests for repro.utils.stats."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.stats import SampleSummary, bootstrap_ci, mean_confidence_interval, summarize_samples


class TestMeanConfidenceInterval:
    def test_single_sample_degenerates(self):
        mean, low, high = mean_confidence_interval([3.0])
        assert mean == low == high == 3.0

    def test_constant_samples(self):
        mean, low, high = mean_confidence_interval([2.0, 2.0, 2.0])
        assert mean == low == high == 2.0

    def test_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 2.0, size=200)
        mean, low, high = mean_confidence_interval(samples)
        assert low < mean < high

    def test_wider_confidence_wider_interval(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.0, 1.0, size=50)
        _, low95, high95 = mean_confidence_interval(samples, 0.95)
        _, low99, high99 = mean_confidence_interval(samples, 0.99)
        assert high99 - low99 > high95 - low95

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_bad_confidence_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_coverage_approximately_right(self):
        # With true mean 0, the 95% CI should contain 0 in roughly 95% of
        # repetitions; allow a generous margin for a fast test.
        rng = np.random.default_rng(7)
        hits = 0
        reps = 200
        for _ in range(reps):
            samples = rng.normal(0.0, 1.0, size=30)
            _, low, high = mean_confidence_interval(samples, 0.95)
            hits += low <= 0.0 <= high
        assert hits / reps > 0.85

    @pytest.mark.parametrize(
        "module, run",
        [
            pytest.param("scipy.stats", "", id="scipy.stats"),
            pytest.param("multiprocessing", "", id="multiprocessing"),
            pytest.param(
                "scipy.stats",
                "from repro.experiments.figures import figure3_spec; "
                "repro.experiments.runner.run_experiment("
                "figure3_spec(sizes=(100,), cache_sizes=(2,), trials=2), seed=1)",
                id="scipy.stats-run_experiment",
            ),
        ],
    )
    def test_cli_import_leaves_scipy_stats_unloaded(self, module, run):
        # scipy.stats costs about a second and 64 MB to import, and the t
        # quantile comes from scipy.special, so neither importing the CLI
        # nor computing a confidence interval loads it; the process pool of
        # parallel trials loads multiprocessing only when it starts.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        code = (
            "import sys, repro.cli, repro.experiments.queueing, repro.experiments.runner\n"
            f"{run}\nassert {module!r} not in sys.modules"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    def test_quantile_equals_scipy_stats_bit_for_bit(self, confidence):
        # The interval the t distribution's ppf gives, for df 1 to 5,000.
        from scipy import stats as sps

        samples = np.random.default_rng(11).normal(5.0, 2.0, size=5001)
        ppf = sps.t.ppf(0.5 + confidence / 2.0, df=np.arange(1, 5001))
        for df in range(1, 5001):
            arr = samples[: df + 1]
            mean = float(arr.mean())
            half = float(ppf[df - 1] * float(arr.std(ddof=1) / np.sqrt(arr.size)))
            assert mean_confidence_interval(arr, confidence) == (
                mean,
                mean - half,
                mean + half,
            )


class TestSummarizeSamples:
    def test_fields(self):
        summary = summarize_samples([1.0, 2.0, 3.0])
        assert isinstance(summary, SampleSummary)
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_single_sample(self):
        summary = summarize_samples([5.0])
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_as_dict_round_trip(self):
        summary = summarize_samples([1.0, 4.0, 7.0])
        data = summary.as_dict()
        assert data["count"] == 3
        assert set(data) >= {"mean", "std", "min", "max", "ci_low", "ci_high"}


class TestBootstrapCI:
    def test_interval_brackets_mean(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(2.0, size=100)
        mean, low, high = bootstrap_ci(samples, seed=0)
        assert low <= mean <= high

    def test_reproducible_given_seed(self):
        samples = np.arange(20, dtype=float)
        a = bootstrap_ci(samples, seed=1)
        b = bootstrap_ci(samples, seed=1)
        assert a == b

    def test_single_sample(self):
        assert bootstrap_ci([4.0], seed=0) == (4.0, 4.0, 4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bad_resamples_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], n_resamples=0)

    def test_bad_confidence_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=0.0)
