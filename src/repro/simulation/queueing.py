"""Continuous-time queueing extension (the paper's supermarket-model conjecture).

The paper analyses the *static* setting (a block of ``n`` requests assigned
once), and conjectures in its discussion section that the proximity-aware two
choices scheme behaves analogously in the continuous-time supermarket model,
where requests arrive as a Poisson process and each server works through its
queue with exponential service times.

This module implements that dynamic setting as a discrete-event simulation:

* arrivals come from an :class:`~repro.workload.arrivals.ArrivalProcess`
  (streamed incrementally via its
  :class:`~repro.workload.arrivals.ArrivalStream`);
* on arrival at origin ``u`` for file ``W_j``, the dispatcher samples ``d``
  replicas of ``W_j`` inside ``B_r(u)`` (same candidate logic as Strategy II)
  and enqueues the request at the sampled server with the shortest queue;
* each server is an M/M/1-style FIFO queue with service rate ``mu``.

Execution engines
-----------------

``run`` executes on any engine registered for the ``"queueing"`` family in
the backend registry (:mod:`repro.backends.registry`), all implementing the
**queueing RNG-stream contract** documented in :mod:`repro.kernels.queueing`:

* ``engine="batch"`` — the event-batched engine: candidate sets resolve
  through the memoised group index, all sampling / tie-break / service
  randomness is drawn in three batched calls, and the remaining sequential
  event loop runs over plain Python ints and floats;
* ``engine="numba"`` (when numba is importable) — the same precompute with
  the event loop compiled by ``@njit``;
* ``engine="reference"`` — the scalar per-arrival transcription, kept boring
  for differential testing;
* ``engine="auto"`` (default) — the fastest available of the above.

All engines are **bit-identical** for any seed (enforced by
``tests/test_kernels_queueing_differential.py``); the batch engine is ~10×
faster than reference at figure scale.  ``run`` is itself a thin wrapper over
:class:`~repro.session.queueing.QueueingSession` serving one window, so a
one-shot run is also bit-identical to any window-partitioned session serving
of the same horizon.

Reported metrics: the maximum queue length ever observed (the dynamic
analogue of the paper's maximum load), the time-averaged mean queue length,
mean waiting and sojourn times, and the mean hop distance (communication
cost) — all maintained as O(1)-memory streaming accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError
from repro.kernels.queueing import validate_queueing_parameters
from repro.placement.base import PlacementStrategy
from repro.rng import SeedLike
from repro.session.artifacts import ArtifactCache
from repro.topology.base import Topology
from repro.workload.arrivals import ArrivalProcess

__all__ = ["QueueingResult", "QueueingSimulation"]


@dataclass(frozen=True)
class QueueingResult:
    """Summary statistics of a continuous-time queueing run."""

    num_arrivals: int
    num_completed: int
    max_queue_length: int
    mean_queue_length: float
    mean_waiting_time: float
    mean_sojourn_time: float
    communication_cost: float
    horizon: float

    def summary(self) -> dict[str, float]:
        """Return the result as a plain dictionary."""
        return {
            "num_arrivals": float(self.num_arrivals),
            "num_completed": float(self.num_completed),
            "max_queue_length": float(self.max_queue_length),
            "mean_queue_length": self.mean_queue_length,
            "mean_waiting_time": self.mean_waiting_time,
            "mean_sojourn_time": self.mean_sojourn_time,
            "communication_cost": self.communication_cost,
            "horizon": self.horizon,
        }


class QueueingSimulation:
    """Discrete-event simulation of the proximity-aware supermarket model.

    Parameters
    ----------
    topology, library, placement:
        The cache network components (placement is run once at time zero).
    arrivals:
        Continuous-time arrival process (must support streaming).
    service_rate:
        Per-server exponential service rate ``mu``; stability requires the
        per-server arrival rate to stay below ``mu`` (a ``UserWarning`` is
        emitted when it does not).
    radius:
        Proximity constraint ``r`` for candidate replicas (``inf`` = none).
    num_choices:
        Number of candidate replicas compared per arrival (``d``).
    candidate_weights:
        ``"uniform"`` (the paper's draw) or ``"popularity"``, which biases
        the ``d``-choice draw towards servers caching more popularity mass.
        The static strategies always sample uniformly, matching the paper.
    artifacts:
        Optional :class:`~repro.session.artifacts.ArtifactCache` memoising
        the placement and, at a finite radius, the candidate precompute
        across runs that share a placement (e.g. sweeps over ``mu``, the
        arrival rate, ``r`` or ``d``).
    """

    def __init__(
        self,
        topology: Topology,
        library: FileLibrary,
        placement: PlacementStrategy,
        arrivals: ArrivalProcess,
        service_rate: float = 1.0,
        radius: float = np.inf,
        num_choices: int = 2,
        candidate_weights: str = "uniform",
        artifacts: ArtifactCache | None = None,
    ) -> None:
        validate_queueing_parameters(service_rate, radius, num_choices, candidate_weights)
        self._topology = topology
        self._library = library
        self._placement = placement
        self._arrivals = arrivals
        self._service_rate = float(service_rate)
        self._radius = float(radius)
        self._num_choices = int(num_choices)
        self._candidate_weights = candidate_weights
        self._artifacts = artifacts

    # --------------------------------------------------------------------- run
    def run(
        self, horizon: float, seed: SeedLike = None, *, engine: str = "auto"
    ) -> QueueingResult:
        """Simulate the system over ``[0, horizon)`` and return its statistics.

        ``engine`` is any spec the backend registry resolves for the
        ``"queueing"`` family (``"auto"`` — the default — picks the fastest
        available backend); resolution happens once, in the session this call
        opens.  Results are bit-identical between engines for the same seed,
        so swapping it never changes the science.
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        from repro.session.queueing import QueueingSession

        session = QueueingSession(
            self._topology,
            self._library,
            self._placement,
            self._arrivals,
            service_rate=self._service_rate,
            radius=self._radius,
            num_choices=self._num_choices,
            candidate_weights=self._candidate_weights,
            engine=engine,
            seed=seed,
            artifacts=self._artifacts,
        )
        session.serve(horizon)
        return session.result()

    def __repr__(self) -> str:
        radius = "inf" if np.isinf(self._radius) else f"{self._radius:g}"
        return (
            f"QueueingSimulation(n={self._topology.n}, mu={self._service_rate}, "
            f"r={radius}, d={self._num_choices})"
        )
