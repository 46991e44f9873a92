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


def _restoring_registry():
    """Snapshot the global engine registry; restore it when resumed."""
    registry._ensure_builtins()
    saved = {family: dict(table) for family, table in registry._REGISTRY.items()}
    try:
        yield
    finally:
        for family, table in registry._REGISTRY.items():
            table.clear()
            table.update(saved[family])


@pytest.fixture
def scratch_registry():
    """Engines registered during the test are gone after it."""
    yield from _restoring_registry()


@pytest.fixture(scope="module")
def module_registry():
    """Engines registered during the test module are gone after it."""
    yield from _restoring_registry()


@pytest.fixture(scope="module")
def python_commit_engine(module_registry):
    """Register ``"python-commit"`` in both families for the test module.

    Its tables are the kernel entry points with their default pure-Python
    commit loops — the ``batch`` engine's fallback and the source of the
    numba transcriptions — which no built-in engine runs on its own.
    """
    from repro.kernels import engine as kernel
    from repro.kernels.queueing import queueing_kernel_window

    name = "python-commit"
    registry.register_engine(
        name,
        family="assignment",
        commit_fns={
            "two_choice": kernel.two_choice_kernel,
            "least_loaded": kernel.least_loaded_kernel,
            "threshold_hybrid": kernel.threshold_hybrid_kernel,
            "random_replica": kernel.random_replica_kernel,
            "nearest_replica": kernel.nearest_replica_kernel,
        },
        priority=-1,
    )
    registry.register_engine(
        name,
        family="queueing",
        commit_fns={"window": queueing_kernel_window},
        priority=-1,
    )
    return name


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
