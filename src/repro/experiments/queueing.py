"""Supermarket-model (dynamic queueing) sweep experiments.

The static figure sweeps measure the paper's ``L`` and ``C`` over a one-shot
request block; this module provides the dynamic counterpart — figure-scale
sweeps of the continuous-time supermarket model over the arrival rate and the
number of choices ``d`` (the axes of the paper's discussion-section
conjecture), with every point executed on the event-batched queueing kernel.

All sweep points share one :class:`~repro.session.artifacts.ArtifactCache`
and one parent seed, so:

* the placement is placed once and reused (common random numbers across the
  whole grid — the ``d = 1`` vs ``d = 2`` comparison is paired);
* at a finite radius, the group-index candidate rows are memoised across
  sweep points (an unconstrained radius aliases the placement's own file
  index, so there is nothing to memoise).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backends.registry import resolve_engine_name
from repro.catalog.library import FileLibrary
from repro.catalog.popularity import create_popularity
from repro.exceptions import ExperimentError
from repro.placement.factory import create_placement
from repro.session.artifacts import ArtifactCache
from repro.simulation.queueing import QueueingSimulation
from repro.topology.factory import create_topology
from repro.utils.logging import get_logger
from repro.workload.arrivals import PoissonArrivalProcess

__all__ = ["run_queueing_experiment"]

_LOGGER = get_logger("experiments.queueing")


def run_queueing_experiment(
    *,
    num_nodes: int = 400,
    num_files: int = 200,
    cache_size: int = 20,
    topology: str = "torus",
    popularity: str = "uniform",
    popularity_params: dict[str, Any] | None = None,
    placement: str = "proportional",
    arrival_rates: Sequence[float] = (0.5, 0.7, 0.9),
    choices: Sequence[int] = (1, 2),
    radius: float | None = None,
    service_rate: float = 1.0,
    horizon: float = 60.0,
    candidate_weights: str = "uniform",
    engine: str = "auto",
    seed: int = 0,
    artifacts: ArtifactCache | None = None,
) -> list[dict[str, Any]]:
    """Sweep the supermarket model over ``arrival_rates`` × ``choices``.

    Every grid point runs one :class:`~repro.simulation.queueing.
    QueueingSimulation` over ``[0, horizon)`` with the same parent seed
    (paired comparison) and a shared artifact cache (placement + candidate
    precompute reused).  ``engine`` is resolved through the backend registry
    **once**, here at the sweep boundary, so every grid point runs the same
    concrete engine even under ``"auto"``.  Returns one row dictionary per
    point, ready for
    :func:`~repro.experiments.report.render_comparison_table`.
    """
    if not arrival_rates:
        raise ExperimentError("arrival_rates must be non-empty")
    if not choices:
        raise ExperimentError("choices must be non-empty")
    if horizon <= 0:
        raise ExperimentError(f"horizon must be positive, got {horizon}")
    engine = resolve_engine_name(engine, "queueing")
    topo = create_topology(topology, num_nodes)
    library = FileLibrary(
        num_files, create_popularity(popularity, num_files, **(popularity_params or {}))
    )
    placed = create_placement(placement, cache_size)
    cache = artifacts if artifacts is not None else ArtifactCache()
    effective_radius = np.inf if radius is None else float(radius)

    rows: list[dict[str, Any]] = []
    for rate in arrival_rates:
        for num_choices in choices:
            simulation = QueueingSimulation(
                topology=topo,
                library=library,
                placement=placed,
                arrivals=PoissonArrivalProcess(rate_per_node=rate),
                service_rate=service_rate,
                radius=effective_radius,
                num_choices=int(num_choices),
                candidate_weights=candidate_weights,
                artifacts=cache,
            )
            result = simulation.run(horizon, seed=seed, engine=engine)
            _LOGGER.debug(
                "supermarket rate=%s d=%s Qmax=%d C=%.3f",
                rate,
                num_choices,
                result.max_queue_length,
                result.communication_cost,
            )
            rows.append(
                {
                    "arrival rate / server": float(rate),
                    "choices d": int(num_choices),
                    "max queue length": result.max_queue_length,
                    "mean queue / server": result.mean_queue_length / num_nodes,
                    "mean waiting time": result.mean_waiting_time,
                    "mean sojourn time": result.mean_sojourn_time,
                    "avg hops": result.communication_cost,
                    "completed": result.num_completed,
                }
            )
    return rows
