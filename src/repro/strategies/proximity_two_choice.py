"""Strategy II — the proximity-aware two choices strategy (Definition 3).

For every request born at node ``u`` for file ``W_j``, the strategy

1. finds the replicas of ``W_j`` inside the proximity ball ``B_r(u)``,
2. samples ``d`` of them uniformly at random without replacement (``d = 2`` in
   the paper; the implementation generalises to any ``d >= 1``),
3. assigns the request to the sampled replica with the smallest current load,
   breaking ties uniformly at random.

Only step 3 depends on the loads created by earlier requests, so execution is
split between the batched precompute phase and a minimal sequential commit
loop (see :mod:`repro.kernels`): candidate sets are resolved once per distinct
``(origin, file)`` group and all sample draws happen up front, leaving a tight
loop that only reads and updates the load vector.  The scalar per-request loop
survives as ``engine="reference"`` and produces bit-identical results for the
same seed under the kernel RNG-stream contract.

The asymptotic regime of Theorem 4 guarantees ``Θ(M r² / K) = ω(log n)``
in-ball replicas for every request, so the fallback machinery (see
:class:`~repro.strategies.base.FallbackPolicy`) only fires outside that
regime; its activations are recorded in the result.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StrategyError
from repro.strategies.base import AssignmentStrategy, FallbackPolicy

__all__ = ["ProximityTwoChoiceStrategy"]


class ProximityTwoChoiceStrategy(AssignmentStrategy):
    """Proximity-aware ``d``-choice assignment (the paper's Strategy II).

    Parameters
    ----------
    radius:
        Proximity constraint ``r``: candidate replicas must lie within ``r``
        hops of the request origin.  ``numpy.inf`` (or any value at least the
        network diameter) removes the constraint, recovering the memory-
        limited unstructured two-choice process of Examples 1–3.
    num_choices:
        Number of candidate replicas sampled per request (``d``); the paper
        uses two.  ``num_choices = 1`` degenerates to a random in-ball replica
        with no load information.
    fallback:
        Policy applied when no replica lies inside ``B_r(u)``; see
        :class:`~repro.strategies.base.FallbackPolicy`.
    engine:
        Execution-engine spec, resolved once through the backend registry
        (:mod:`repro.backends.registry`): ``"auto"`` (default, the fastest
        available backend) or an explicit name such as ``"batch"``,
        ``"reference"`` or ``"numba"``.  All engines produce bit-identical
        results for the same seed.
    """

    name = "proximity_two_choice"
    _engine_op = "two_choice"

    def __init__(
        self,
        radius: float = np.inf,
        num_choices: int = 2,
        fallback: FallbackPolicy | str = FallbackPolicy.NEAREST,
        engine: str = "auto",
    ) -> None:
        if radius < 0:
            raise StrategyError(f"radius must be non-negative, got {radius}")
        if num_choices < 1:
            raise StrategyError(f"num_choices must be at least 1, got {num_choices}")
        self._radius = float(radius)
        self._num_choices = int(num_choices)
        self._fallback = FallbackPolicy(fallback)
        self._engine = self._resolve_engine_spec(engine)

    # -------------------------------------------------------------- properties
    @property
    def radius(self) -> float:
        """Proximity radius ``r``."""
        return self._radius

    @property
    def num_choices(self) -> int:
        """Number of sampled candidates ``d``."""
        return self._num_choices

    @property
    def fallback(self) -> FallbackPolicy:
        """Fallback policy for requests with an empty candidate set."""
        return self._fallback

    def _engine_kwargs(self) -> dict[str, object]:
        return {
            "radius": self._radius,
            "num_choices": self._num_choices,
            "fallback": self._fallback,
        }

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "radius": None if np.isinf(self._radius) else self._radius,
            "num_choices": self._num_choices,
            "fallback": self._fallback.value,
        }

    def __repr__(self) -> str:
        radius = "inf" if np.isinf(self._radius) else f"{self._radius:g}"
        return (
            f"ProximityTwoChoiceStrategy(radius={radius}, d={self._num_choices}, "
            f"fallback={self._fallback.value})"
        )
