"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import registry
from repro.catalog.library import FileLibrary
from repro.catalog.popularity import UniformPopularity, ZipfPopularity
from repro.placement.proportional import ProportionalPlacement
from repro.placement.uniform import UniformDistinctPlacement
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload


@pytest.fixture(scope="module")
def python_commit_engine():
    """Add a ``"python-commit"`` engine for the test module.

    Its assignment table is the kernel entry points with their default
    pure-Python commit loops — the ``batch`` engine's fallback and the
    functions the numba engine compiles — which no engine runs on its own.
    Its queueing table is the ``batch`` engine's, which *is* the pure-Python
    event loop; it is there because the row lists the engine for both
    families.  The row is patched into the engine table and its table
    cache, and removed when the module ends.
    """
    from repro.kernels import engine as kernel

    name = "python-commit"
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(registry.ENGINES, name, "kernel entry points, pure-Python commit")
        patch.setitem(
            registry._TABLES,
            (name, "assignment"),
            {
                "two_choice": kernel.two_choice_kernel,
                "least_loaded": kernel.least_loaded_kernel,
                "threshold_hybrid": kernel.threshold_hybrid_kernel,
                "random_replica": kernel.random_replica_kernel,
                "nearest_replica": kernel.nearest_replica_kernel,
            },
        )
        patch.setitem(
            registry._TABLES,
            (name, "queueing"),
            registry.engine_operations("batch", "queueing"),
        )
        yield name


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_torus() -> Torus2D:
    """A 10x10 torus (100 servers)."""
    return Torus2D(100)


@pytest.fixture
def tiny_torus() -> Torus2D:
    """A 5x5 torus (25 servers) for exhaustive checks."""
    return Torus2D(25)


@pytest.fixture
def uniform_library() -> FileLibrary:
    """A 50-file library with uniform popularity."""
    return FileLibrary(50, UniformPopularity(50))


@pytest.fixture
def zipf_library() -> FileLibrary:
    """A 50-file library with Zipf(0.8) popularity."""
    return FileLibrary(50, ZipfPopularity(50, 0.8))


@pytest.fixture
def small_cache(small_torus, uniform_library, rng):
    """Proportional placement with M=5 on the small torus."""
    return ProportionalPlacement(5).place(small_torus, uniform_library, rng)


@pytest.fixture
def distinct_cache(small_torus, uniform_library, rng):
    """Uniform distinct placement with M=5 on the small torus."""
    return UniformDistinctPlacement(5).place(small_torus, uniform_library, rng)


@pytest.fixture
def small_requests(small_torus, uniform_library, rng):
    """One request per server on the small torus."""
    return UniformOriginWorkload().generate(small_torus, uniform_library, rng)
