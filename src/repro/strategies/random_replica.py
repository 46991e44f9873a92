"""One-choice baseline: a uniformly random replica inside the proximity ball.

This strategy isolates the contribution of the *second* choice in Strategy II:
it samples a single replica uniformly from ``B_r(u)`` and assigns the request
to it without looking at any load information.  Classical balls-into-bins
theory predicts a maximum load of ``Θ(log n / log log n)`` for this process
(versus ``Θ(log log n)`` with two choices), and the benchmark harness uses the
pair to visualise that gap in the cache-network setting.

Being load-independent, the whole batch reduces to one vectorised pass over
the kernel group index — candidate resolution per distinct ``(origin, file)``
group, one uniform per request, one gather, zero Python loops.  The scalar
loop survives as ``engine="reference"``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StrategyError
from repro.strategies.base import AssignmentStrategy, FallbackPolicy

__all__ = ["RandomReplicaStrategy"]


class RandomReplicaStrategy(AssignmentStrategy):
    """Assign each request to one uniformly random replica within radius ``r``.

    Parameters mirror :class:`~repro.strategies.proximity_two_choice.
    ProximityTwoChoiceStrategy` minus the number of choices.
    """

    name = "random_replica"
    _engine_op = "random_replica"

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
