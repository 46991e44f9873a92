"""Process-pool parallel execution of independent simulation trials.

Monte-Carlo trials are embarrassingly parallel, so the engineering concerns
are (a) shipping the work description cheaply to workers — solved by the
picklable :class:`~repro.simulation.config.SimulationConfig` — (b) keeping
trials statistically independent and reproducible — solved by spawning
per-trial :class:`numpy.random.SeedSequence` children in the parent and
sending the entropy to workers — and (c) not paying the component build per
trial now that the batched kernels made individual trials cheap.  The last
point is why workers receive *batches* of trials: each worker task builds the
components once (a :class:`~repro.simulation.engine.CacheNetworkSimulation`
with its own :class:`~repro.session.artifacts.ArtifactCache`) and runs its
whole slice of seeds over that shared build, mirroring the artifact reuse of
the sequential :func:`~repro.simulation.multirun.run_trials`.

The results are aggregated in submission order (not completion order) so the
parallel runner returns bit-identical aggregates to the sequential runner
given the same parent seed.

An MPI backend would slot in behind the same interface (each rank running a
slice of the trial list); it is not provided because ``mpi4py`` is not part of
the offline dependency set.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from repro.backends.registry import resolve_engine_name
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, spawn_seeds
from repro.simulation.config import SimulationConfig
from repro.simulation.multirun import aggregate_results
from repro.simulation.results import MultiRunResult, SimulationResult

__all__ = ["run_trials_parallel", "default_worker_count"]


def default_worker_count() -> int:
    """A conservative default worker count: all but one CPU, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def _run_trial_batch_worker(
    payload: tuple[dict[str, Any], Sequence[tuple[Any, tuple[int, ...]]], str | None]
) -> list[SimulationResult]:
    """Process-pool worker: build the components once, run a batch of seeds."""
    config_dict, seed_payloads, assignment_engine = payload
    import numpy as np

    from repro.simulation.engine import CacheNetworkSimulation

    config = SimulationConfig.from_dict(config_dict)
    simulation = CacheNetworkSimulation.from_config(config, assignment_engine)
    results: list[SimulationResult] = []
    for entropy, spawn_key in seed_payloads:
        seed = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
        results.append(simulation.run(seed))
    return results


def run_trials_parallel(
    config: SimulationConfig,
    num_trials: int,
    seed: SeedLike = None,
    *,
    max_workers: int | None = None,
    chunksize: int | None = None,
    assignment_engine: str | None = None,
) -> MultiRunResult:
    """Run ``num_trials`` independent trials of ``config`` across processes.

    Parameters
    ----------
    config:
        The simulation point to repeat.
    num_trials:
        Number of independent trials.
    seed:
        Parent seed; per-trial child seeds are spawned before dispatch so the
        aggregate is reproducible and identical to the sequential runner.
    max_workers:
        Worker process count (default: CPU count minus one).
    chunksize:
        Trials per worker task.  Each task builds the simulation components
        once and shares placement / group-index artifacts across its trials,
        so larger chunks amortise more build work; the default spreads the
        trials evenly over the workers in a single wave
        (``ceil(num_trials / max_workers)``).
    assignment_engine:
        Optional execution-engine override — any spec the backend registry
        resolves.  The spec is resolved **in the parent**, once, and workers
        receive the concrete engine name: an ``"auto"`` spec therefore picks
        one engine for the whole run instead of letting every worker
        re-detect (and possibly disagree about) the fastest backend.
    """
    if num_trials <= 0:
        raise ConfigurationError(f"num_trials must be positive, got {num_trials}")
    resolved_engine = (
        None
        if assignment_engine is None
        else resolve_engine_name(assignment_engine, "assignment")
    )
    workers = max_workers if max_workers is not None else default_worker_count()
    if workers <= 0:
        raise ConfigurationError(f"max_workers must be positive, got {workers}")
    if chunksize is None:
        chunksize = math.ceil(num_trials / workers)
    if chunksize <= 0:
        raise ConfigurationError(f"chunksize must be positive, got {chunksize}")

    child_seeds = spawn_seeds(seed, num_trials)
    config_dict = config.as_dict()
    # Ship each child's (entropy, spawn_key) so workers rebuild the exact same
    # SeedSequence the sequential runner would use for that trial index.
    seed_payloads = [
        (child.entropy, tuple(child.spawn_key)) for child in child_seeds
    ]
    batches = [
        (config_dict, seed_payloads[start : start + chunksize], resolved_engine)
        for start in range(0, num_trials, chunksize)
    ]

    if workers == 1 or len(batches) == 1:
        nested = [_run_trial_batch_worker(batch) for batch in batches]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_trial_batch_worker, batches))

    results = [result for batch in nested for result in batch]
    return aggregate_results(results, config.describe(engine=resolved_engine))
