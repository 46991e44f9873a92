"""Multi-trial simulation: repeat a configuration with independent seeds.

The paper averages every simulation point over hundreds to thousands of runs;
:func:`run_trials` is the sequential implementation of that loop (the parallel
variant lives in :mod:`repro.simulation.parallel`).  Seeds for individual
trials are spawned from a single parent seed, so the whole aggregate is
reproducible from ``(config, seed, num_trials)`` regardless of execution
order.  Trials run as thin session consumers over one component build and a
shared :class:`~repro.session.artifacts.ArtifactCache`, so placements and
group-index precompute are reused wherever the inputs repeat.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, spawn_seeds
from repro.session.artifacts import ArtifactCache
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import CacheNetworkSimulation
from repro.simulation.results import MultiRunResult, SimulationResult

__all__ = ["run_trials", "aggregate_results"]


def aggregate_results(
    results: list[SimulationResult], description: str = ""
) -> MultiRunResult:
    """Collect per-trial headline metrics into a :class:`MultiRunResult`."""
    if not results:
        raise ConfigurationError("cannot aggregate an empty list of results")
    return MultiRunResult(
        max_loads=np.array([r.max_load for r in results], dtype=np.float64),
        communication_costs=np.array([r.communication_cost for r in results], dtype=np.float64),
        fallback_rates=np.array([r.fallback_rate for r in results], dtype=np.float64),
        config_description=description or results[0].config_description,
        num_trials=len(results),
    )


def run_trials(
    config: SimulationConfig,
    num_trials: int,
    seed: SeedLike = None,
    *,
    progress_callback: Callable[[int, SimulationResult], None] | None = None,
    assignment_engine: str | None = None,
    artifacts: "ArtifactCache | None" = None,
) -> MultiRunResult:
    """Run ``num_trials`` independent trials of ``config`` sequentially.

    The components are built **once** and every trial runs as a session over
    them, sharing one :class:`~repro.session.artifacts.ArtifactCache`:
    deterministic placements are placed a single time, and the kernel
    group-index precompute accumulates across trials whose placements are
    byte-identical.  ``benchmarks/test_bench_sessions.py`` gates the speedup
    of this path over rebuilding everything per trial.

    Parameters
    ----------
    config:
        The simulation point to repeat.
    num_trials:
        Number of independent trials.
    seed:
        Parent seed; each trial receives an independently spawned child seed.
    progress_callback:
        Optional callable invoked as ``callback(trial_index, result)`` after
        each trial, e.g. for logging long sweeps.
    assignment_engine:
        Optional execution-engine override — any spec the backend registry
        resolves (``"auto"``, ``"batch"``, ``"reference"``, ``"numba"``,
        …).  Resolved once, before the first trial; results are bit-identical
        between engines for the same seed.
    artifacts:
        Optional artifact cache shared beyond this multi-run (e.g. across the
        sweep points of an experiment, which often repeat a placement).
    """
    if num_trials <= 0:
        raise ConfigurationError(f"num_trials must be positive, got {num_trials}")
    simulation = CacheNetworkSimulation.from_config(config, assignment_engine, artifacts)
    child_seeds = spawn_seeds(seed, num_trials)
    results: list[SimulationResult] = []
    for index, child in enumerate(child_seeds):
        result = simulation.run(child)
        results.append(result)
        if progress_callback is not None:
            progress_callback(index, result)
    # The simulation's description records the engine the trials actually
    # resolved to, which the raw config cannot know about an override.
    return aggregate_results(results, simulation.description)
