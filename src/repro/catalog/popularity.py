"""Popularity distributions over the file library.

A popularity distribution assigns a request probability to every file of a
library of size ``K``.  It is used twice in the simulated system, matching the
paper's model:

1. the *cache content placement* phase stores ``M`` files per server drawn
   i.i.d. (with replacement) from the popularity profile, and
2. the *content delivery* phase draws each request's file from the same
   profile.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.catalog.zipf import zipf_pmf
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, as_generator, choice_from_pmf
from repro.types import FloatArray, IntArray
from repro.utils.validation import check_in_range, check_positive_int, check_probability_vector

__all__ = [
    "PopularityDistribution",
    "UniformPopularity",
    "ZipfPopularity",
    "GeometricPopularity",
    "CustomPopularity",
    "create_popularity",
]


class PopularityDistribution(ABC):
    """Request-probability profile ``P = {p_1, ..., p_K}`` over a file library."""

    def __init__(self, num_files: int) -> None:
        self._num_files = check_positive_int(num_files, "num_files")

    # ---------------------------------------------------------------- common
    @property
    def num_files(self) -> int:
        """Library size ``K``."""
        return self._num_files

    @property
    @abstractmethod
    def name(self) -> str:
        """Short machine-readable name of the distribution family."""

    @abstractmethod
    def pmf(self) -> FloatArray:
        """Probability vector of length ``K`` (sums to one)."""

    # ------------------------------------------------------------- sampling
    def sample(self, size: int | tuple[int, ...], seed: SeedLike = None) -> IntArray:
        """Draw file indices (0-based) i.i.d. from the profile.

        Returns an int64 array of shape ``size``.  The draws are
        :func:`~repro.rng.choice_from_pmf`'s: exactly the values
        ``Generator.choice`` draws with this profile as ``p``, one
        ``Generator.random`` double per file, from a guide-table lookup
        instead of a full CDF search per draw.
        """
        return choice_from_pmf(as_generator(seed), self.pmf(), size)

    def probability(self, file_id: int) -> float:
        """Request probability of a single file (0-based index)."""
        if not 0 <= int(file_id) < self._num_files:
            raise ConfigurationError(
                f"file_id must be in [0, {self._num_files}), got {file_id}"
            )
        return float(self.pmf()[int(file_id)])

    # ------------------------------------------------------------ diagnostics
    def entropy(self) -> float:
        """Shannon entropy (nats) of the profile — a skewness diagnostic."""
        p = self.pmf()
        nonzero = p[p > 0]
        return float(-np.sum(nonzero * np.log(nonzero)))

    def head_mass(self, head: int) -> float:
        """Probability mass of the ``head`` most popular files."""
        if head <= 0:
            raise ConfigurationError(f"head must be positive, got {head}")
        p = np.sort(self.pmf())[::-1]
        return float(p[: min(head, self._num_files)].sum())

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable description (used by the experiment harness)."""
        return {"name": self.name, "num_files": self._num_files}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(K={self._num_files})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PopularityDistribution):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, str(v)) for k, v in self.as_dict().items())))


class UniformPopularity(PopularityDistribution):
    """Every file equally popular: ``p_i = 1 / K`` (the paper's default profile)."""

    @property
    def name(self) -> str:
        return "uniform"

    def pmf(self) -> FloatArray:
        return np.full(self._num_files, 1.0 / self._num_files, dtype=np.float64)


class ZipfPopularity(PopularityDistribution):
    """Zipf profile: ``p_i ∝ i^{-γ}`` for rank ``i`` (1-based rank, 0-based index).

    ``gamma = 0`` degenerates to the uniform profile; typical CDN traces have
    ``gamma`` between 0.6 and 1.2.
    """

    def __init__(self, num_files: int, gamma: float) -> None:
        super().__init__(num_files)
        self._gamma = check_in_range(gamma, "gamma", 0.0, np.inf)
        self._pmf = zipf_pmf(self._num_files, self._gamma)

    @property
    def name(self) -> str:
        return "zipf"

    @property
    def gamma(self) -> float:
        """Zipf skewness parameter ``γ``."""
        return self._gamma

    def pmf(self) -> FloatArray:
        return self._pmf.copy()

    def as_dict(self) -> dict[str, object]:
        data = super().as_dict()
        data["gamma"] = self._gamma
        return data

    def __repr__(self) -> str:
        return f"ZipfPopularity(K={self._num_files}, gamma={self._gamma})"


class GeometricPopularity(PopularityDistribution):
    """Truncated geometric profile ``p_i ∝ (1 - q)^{i-1}``.

    Not analysed in the paper; provided as an extra, very skewed profile for
    robustness experiments on the placement and strategy code paths.
    """

    def __init__(self, num_files: int, q: float) -> None:
        super().__init__(num_files)
        self._q = check_in_range(q, "q", 0.0, 1.0, low_inclusive=False, high_inclusive=False)
        ranks = np.arange(self._num_files, dtype=np.float64)
        weights = (1.0 - self._q) ** ranks
        self._pmf = weights / weights.sum()

    @property
    def name(self) -> str:
        return "geometric"

    @property
    def q(self) -> float:
        """Success probability parameter of the geometric law."""
        return self._q

    def pmf(self) -> FloatArray:
        return self._pmf.copy()

    def as_dict(self) -> dict[str, object]:
        data = super().as_dict()
        data["q"] = self._q
        return data


class CustomPopularity(PopularityDistribution):
    """Arbitrary user-supplied probability vector (e.g. from a measured trace)."""

    def __init__(self, probabilities: Sequence[float] | np.ndarray) -> None:
        pmf = check_probability_vector(probabilities, "probabilities")
        super().__init__(int(pmf.size))
        self._pmf = pmf

    @property
    def name(self) -> str:
        return "custom"

    def pmf(self) -> FloatArray:
        return self._pmf.copy()

    def as_dict(self) -> dict[str, object]:
        data = super().as_dict()
        # A content digest, not the salted built-in hash(): the same pmf
        # must describe identically in every process.
        data["pmf_hash"] = hashlib.blake2b(self._pmf.tobytes(), digest_size=16).hexdigest()
        return data


def create_popularity(name: str, num_files: int, **kwargs: float) -> PopularityDistribution:
    """Create a popularity distribution from its family ``name``.

    Supported names: ``"uniform"``, ``"zipf"`` (requires ``gamma``) and
    ``"geometric"`` (requires ``q``).
    """
    key = str(name).lower()
    if key == "uniform":
        return UniformPopularity(num_files)
    if key == "zipf":
        if "gamma" not in kwargs:
            raise ConfigurationError("zipf popularity requires a 'gamma' parameter")
        return ZipfPopularity(num_files, float(kwargs["gamma"]))
    if key == "geometric":
        if "q" not in kwargs:
            raise ConfigurationError("geometric popularity requires a 'q' parameter")
        return GeometricPopularity(num_files, float(kwargs["q"]))
    raise ConfigurationError(
        f"unknown popularity family {name!r}; expected 'uniform', 'zipf' or 'geometric'"
    )
