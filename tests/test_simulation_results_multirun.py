"""Tests for result containers, the multi-trial runner and the parallel runner."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rng import spawn_seeds
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_single_trial
from repro.simulation.multirun import aggregate_results, run_trials
from repro.simulation.parallel import default_worker_count, run_trials_parallel
from repro.simulation.results import MultiRunResult


def config(**overrides) -> SimulationConfig:
    params = dict(
        num_nodes=100,
        num_files=40,
        cache_size=4,
        strategy="proximity_two_choice",
        strategy_params={"radius": 5},
    )
    params.update(overrides)
    return SimulationConfig(**params)


class TestMultiRunResult:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MultiRunResult(
                max_loads=np.array([1.0, 2.0]),
                communication_costs=np.array([1.0]),
                fallback_rates=np.array([0.0, 0.0]),
            )

    def test_aggregates(self):
        result = MultiRunResult(
            max_loads=np.array([2.0, 4.0]),
            communication_costs=np.array([1.0, 3.0]),
            fallback_rates=np.array([0.0, 0.1]),
        )
        assert result.num_trials == 2
        assert result.mean_max_load == 3.0
        assert result.mean_communication_cost == 2.0
        assert result.mean_fallback_rate == pytest.approx(0.05)
        summary = result.summary()
        assert summary["num_trials"] == 2
        assert summary["max_load_mean"] == 3.0

    def test_summaries_have_cis(self):
        result = MultiRunResult(
            max_loads=np.array([2.0, 4.0, 3.0]),
            communication_costs=np.array([1.0, 3.0, 2.0]),
            fallback_rates=np.zeros(3),
        )
        ml = result.max_load_summary()
        assert ml.ci_low <= ml.mean <= ml.ci_high


class TestRunTrials:
    def test_runs_requested_trials(self):
        result = run_trials(config(), 4, seed=0)
        assert result.num_trials == 4
        assert result.max_loads.shape == (4,)

    def test_reproducible(self):
        a = run_trials(config(), 3, seed=5)
        b = run_trials(config(), 3, seed=5)
        np.testing.assert_array_equal(a.max_loads, b.max_loads)
        np.testing.assert_array_equal(a.communication_costs, b.communication_costs)

    def test_different_seeds_differ(self):
        a = run_trials(config(), 3, seed=1)
        b = run_trials(config(), 3, seed=2)
        assert not (
            np.array_equal(a.max_loads, b.max_loads)
            and np.array_equal(a.communication_costs, b.communication_costs)
        )

    def test_progress_callback_called(self):
        calls = []
        run_trials(config(), 3, seed=0, progress_callback=lambda i, r: calls.append(i))
        assert calls == [0, 1, 2]

    def test_invalid_trial_count(self):
        with pytest.raises(ConfigurationError):
            run_trials(config(), 0, seed=0)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ConfigurationError):
            aggregate_results([])

    def test_description_propagated(self):
        result = run_trials(config(), 2, seed=0)
        assert "n=100" in result.config_description

    def test_trials_equal_single_trials_on_their_child_seeds(self):
        # A deterministic placement, placed once and shared by every trial,
        # under a Zipf-skewed mix that repeats most (origin, file) groups
        # across trials: sharing must change no trial.
        shared = config(
            num_nodes=1024,
            num_files=32,
            cache_size=8,
            topology="torus",
            popularity="zipf",
            popularity_params={"gamma": 1.3},
            placement="partition",
            strategy_params={"radius": 8},
            num_requests=8192,
        )
        result = run_trials(shared, 8, seed=42)
        singles = [
            run_single_trial(shared.as_dict(), child) for child in spawn_seeds(42, 8)
        ]
        np.testing.assert_array_equal(result.max_loads, [r.max_load for r in singles])
        np.testing.assert_array_equal(
            result.communication_costs, [r.communication_cost for r in singles]
        )


class TestRunTrialsParallel:
    def test_matches_sequential_results(self):
        sequential = run_trials(config(), 4, seed=9)
        parallel = run_trials_parallel(config(), 4, seed=9, max_workers=2)
        np.testing.assert_allclose(parallel.max_loads, sequential.max_loads)
        np.testing.assert_allclose(
            parallel.communication_costs, sequential.communication_costs
        )

    def test_single_worker_path(self):
        result = run_trials_parallel(config(), 2, seed=0, max_workers=1)
        assert result.num_trials == 2

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            run_trials_parallel(config(), 0, seed=0)
        with pytest.raises(ConfigurationError):
            run_trials_parallel(config(), 2, seed=0, max_workers=0)
        with pytest.raises(ConfigurationError):
            run_trials_parallel(config(), 2, seed=0, chunksize=0)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_default_worker_count_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_worker_count() == 2

    def test_default_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
