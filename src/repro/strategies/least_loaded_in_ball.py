"""Omniscient baseline: always pick the least loaded replica inside the ball.

Strategy II queries the load of only two randomly sampled replicas; this
baseline instead inspects *every* replica inside ``B_r(u)`` and picks the
globally least loaded one (ties broken by smaller distance, then uniformly at
random).  It upper-bounds the load-balancing performance achievable by any
scheme restricted to the same proximity radius and cache contents, at the cost
of full load information — a useful reference curve in the trade-off plots.

Candidate sets and their distances come from the batched kernel precompute
(see :mod:`repro.kernels`); only the load scan itself runs sequentially.  The
scalar loop survives as ``engine="reference"``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StrategyError
from repro.strategies.base import AssignmentStrategy, FallbackPolicy

__all__ = ["LeastLoadedInBallStrategy"]


class LeastLoadedInBallStrategy(AssignmentStrategy):
    """Assign each request to the least loaded replica within radius ``r``."""

    name = "least_loaded_in_ball"
    _engine_op = "least_loaded"

    def __init__(
        self,
        radius: float = np.inf,
        fallback: FallbackPolicy | str = FallbackPolicy.NEAREST,
        engine: str = "auto",
    ) -> None:
        if radius < 0:
            raise StrategyError(f"radius must be non-negative, got {radius}")
        self._radius = float(radius)
        self._fallback = FallbackPolicy(fallback)
        self._engine = self._resolve_engine_spec(engine)

    @property
    def radius(self) -> float:
        """Proximity radius ``r``."""
        return self._radius

    @property
    def fallback(self) -> FallbackPolicy:
        """Fallback policy for requests with an empty candidate set."""
        return self._fallback

    def _engine_kwargs(self) -> dict[str, object]:
        return {"radius": self._radius, "fallback": self._fallback}

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "radius": None if np.isinf(self._radius) else self._radius,
            "fallback": self._fallback.value,
        }
