"""Statistical summaries used by the multi-trial simulation runners.

The experiment harness repeats every simulation point for a number of
independent trials and reports mean values with confidence intervals; the
helpers here implement the Student-t interval as well as a bootstrap-based
interval for small sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.rng import SeedLike, as_generator

__all__ = ["SampleSummary", "mean_confidence_interval", "summarize_samples", "bootstrap_ci"]


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of a collection of i.i.d. scalar samples."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    def as_dict(self) -> dict[str, float]:
        """Return the summary as a plain dictionary (useful for CSV/JSON export)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
        }


def mean_confidence_interval(
    samples: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> tuple[float, float, float]:
    """Return ``(mean, low, high)`` for the Student-t confidence interval.

    For a single sample the interval degenerates to ``(x, x, x)``.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return mean, mean, mean
    # stdtrit is the Student-t inverse CDF behind scipy's t.ppf, so the
    # quantile is the same double; scipy.special imports in a third of the
    # time and memory of scipy's stats subpackage, and only on first use.
    from scipy.special import stdtrit

    half = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0) * sem)
    return mean, mean - half, mean + half


def summarize_samples(
    samples: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> SampleSummary:
    """Compute a :class:`SampleSummary` for a collection of scalar samples."""
    arr = np.asarray(samples, dtype=np.float64)
    mean, low, high = mean_confidence_interval(arr, confidence)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SampleSummary(
        count=int(arr.size),
        mean=mean,
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )


def bootstrap_ci(
    samples: Sequence[float] | np.ndarray,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: SeedLike = None,
) -> tuple[float, float, float]:
    """Percentile-bootstrap confidence interval for the sample mean.

    Returns ``(mean, low, high)``.  Useful when trial counts are too small for
    the normal approximation (e.g. expensive paper-scale sweeps).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples <= 0:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    rng = as_generator(seed)
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return mean, float(low), float(high)
