"""Threshold hybrid strategy: distance-aware two choices.

The paper's two strategies sit at opposite corners of the trade-off: Strategy I
ignores load entirely, Strategy II ignores distance among its sampled
candidates.  A natural refinement — mentioned in the paper's discussion of
future directions and common in CDN request-routing practice — is to prefer
the *closer* candidate unless it is significantly more loaded than the best
alternative.

:class:`ThresholdHybridStrategy` implements that rule: sample ``d`` replicas
inside the radius-``r`` ball (exactly like Strategy II), then among the
sampled candidates whose load is within ``imbalance_threshold`` of the minimum
sampled load, pick the closest one (ties broken uniformly at random).

* ``imbalance_threshold = 0`` reduces to Strategy II with
  closest-among-least-loaded tie-breaking;
* ``imbalance_threshold = ∞`` ignores load altogether and reduces to the
  nearest of the ``d`` sampled replicas (a randomised approximation of
  Strategy I).

The ablation benchmarks use this strategy to show how much communication cost
the threshold knob recovers while staying near the two-choice load level.

Candidate resolution and sampling run in the batched kernel precompute (see
:mod:`repro.kernels`); the threshold comparison is the sequential commit loop.
The scalar loop survives as ``engine="reference"``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StrategyError
from repro.strategies.base import AssignmentStrategy, FallbackPolicy

__all__ = ["ThresholdHybridStrategy"]


class ThresholdHybridStrategy(AssignmentStrategy):
    """Proximity-aware ``d``-choice assignment with a load-imbalance threshold.

    Parameters
    ----------
    radius:
        Proximity constraint ``r`` (``numpy.inf`` disables it).
    num_choices:
        Number of candidate replicas sampled per request.
    imbalance_threshold:
        A sampled candidate is *eligible* if its current load is at most
        ``min sampled load + imbalance_threshold``; the closest eligible
        candidate serves the request.
    fallback:
        Policy when ``B_r(u)`` holds no replica of the requested file.
    engine:
        Execution-engine spec resolved through the backend registry
        (``"auto"`` by default); bit-identical results on every engine.
    """

    name = "threshold_hybrid"
    _engine_op = "threshold_hybrid"

    def __init__(
        self,
        radius: float = np.inf,
        num_choices: int = 2,
        imbalance_threshold: float = 1.0,
        fallback: FallbackPolicy | str = FallbackPolicy.NEAREST,
        engine: str = "auto",
    ) -> None:
        if radius < 0:
            raise StrategyError(f"radius must be non-negative, got {radius}")
        if num_choices < 1:
            raise StrategyError(f"num_choices must be at least 1, got {num_choices}")
        if imbalance_threshold < 0:
            raise StrategyError(
                f"imbalance_threshold must be non-negative, got {imbalance_threshold}"
            )
        self._radius = float(radius)
        self._num_choices = int(num_choices)
        self._threshold = float(imbalance_threshold)
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
    def imbalance_threshold(self) -> float:
        """Load slack within which the closer candidate is preferred."""
        return self._threshold

    @property
    def fallback(self) -> FallbackPolicy:
        """Fallback policy for requests with an empty candidate set."""
        return self._fallback

    def _engine_kwargs(self) -> dict[str, object]:
        return {
            "radius": self._radius,
            "num_choices": self._num_choices,
            "threshold": self._threshold,
            "fallback": self._fallback,
        }

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "radius": None if np.isinf(self._radius) else self._radius,
            "num_choices": self._num_choices,
            "imbalance_threshold": self._threshold,
            "fallback": self._fallback.value,
        }

    def __repr__(self) -> str:
        radius = "inf" if np.isinf(self._radius) else f"{self._radius:g}"
        return (
            f"ThresholdHybridStrategy(radius={radius}, d={self._num_choices}, "
            f"threshold={self._threshold:g})"
        )
