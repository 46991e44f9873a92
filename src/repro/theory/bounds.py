"""Maximum-load predictions (Theorems 1, 2, 4 and 6; Examples 2 and 4).

The returned values are leading-order growth terms without constants — they
are meant to be fitted against simulation curves (ratios across ``n``), not
read as absolute loads.
"""

from __future__ import annotations

import math

from repro.analysis.regimes import classify_regime

__all__ = [
    "max_poisson_load_prediction",
    "strategy1_max_load_prediction",
    "strategy2_max_load_prediction",
]


def max_poisson_load_prediction(n: int, rate: float = 1.0) -> float:
    """Maximum of ``n`` i.i.d. ``Poisson(rate)`` variables: ``Θ(log n / log log n)``.

    This is the demand seen by the busiest *origin* server and a hard lower
    bound on the maximum load of any strategy in the tiny-radius regime
    (Example 4 divides it by the neighbourhood size five).
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return rate + math.log(n) / math.log(max(math.log(n), 1.0 + 1e-9))


def strategy1_max_load_prediction(n: int, num_files: int, cache_size: int) -> float:
    """Strategy I maximum load.

    * ``K = n^{1-ε}``, ``M = Θ(1)`` → ``Θ(log n)`` (Theorem 1);
    * ``K = n``, ``M = n^α`` → between ``Ω(log n / log log n)`` and
      ``O(log n)`` (Theorem 2) — the upper envelope ``log n`` is returned;
    * very large ``M`` (``M ≳ K``) → every server caches almost everything and
      the load converges to the busiest origin's demand,
      ``Θ(log n / log log n)``.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if num_files <= 0 or cache_size <= 0:
        raise ValueError("num_files and cache_size must be positive")
    if cache_size >= num_files:
        return max_poisson_load_prediction(n)
    return math.log(n)


def strategy2_max_load_prediction(
    n: int, num_files: int, cache_size: int, radius: float
) -> float:
    """Strategy II maximum load according to the regime classification.

    * power-of-two-choices regimes (Theorem 4, Theorem 6, Examples 1 and 3)
      → ``Θ(log log n)``;
    * Example 2 (scarce replication) → ``Θ(log n / (M log log n))``;
    * Example 4 (tiny radius) → ``Θ(log n / log log n)``;
    * outside all characterised regimes → the conservative ``Θ(log n)``
      Strategy-I-like envelope.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    report = classify_regime(n, num_files, cache_size, radius)
    log_n = math.log(n)
    loglog_n = math.log(max(log_n, 1.0 + 1e-9))
    if report.power_of_two_choices:
        return 1.0 + loglog_n
    if report.regime == "example2_scarce_replication":
        return log_n / (cache_size * loglog_n)
    if report.regime == "example4_full_memory_tiny_radius":
        return log_n / loglog_n
    return log_n
