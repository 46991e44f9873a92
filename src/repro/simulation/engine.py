"""The single-trial simulation engine.

A trial runs the paper's two-phase protocol:

1. **Cache content placement** — the placement strategy fills every server's
   ``M`` cache slots.
2. **Content delivery** — the workload generator produces the ordered request
   batch and the assignment strategy maps every request to a caching server.

The engine accepts either live components or a declarative
:class:`~repro.simulation.config.SimulationConfig` (via :meth:`from_config`),
and derives all per-phase randomness from a single seed so a trial is exactly
reproducible from ``(config, seed)``.

Since the session redesign the engine is a thin consumer of
:class:`~repro.session.core.CacheNetworkSession`: each :meth:`run` opens a
session for its seed and serves the whole workload as a single window, which
is bit-identical to the pre-session per-trial pipeline.  One
:class:`~repro.session.artifacts.ArtifactCache` is shared across all trials
run through the same engine instance, so same-config trials reuse memoised
placements (deterministic placements always, randomised ones on same-seed
replays).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.catalog.library import FileLibrary
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState
from repro.rng import SeedLike
from repro.session.artifacts import ArtifactCache
from repro.session.core import CacheNetworkSession
from repro.simulation.config import SimulationConfig
from repro.simulation.results import SimulationResult
from repro.strategies.base import AssignmentStrategy
from repro.topology.base import Topology
from repro.utils.timer import Timer
from repro.workload.generators import WorkloadGenerator
from repro.workload.request import RequestBatch

__all__ = ["CacheNetworkSimulation", "run_single_trial"]


def _placement_stats(cache: CacheState) -> dict[str, float]:
    """Replication diagnostics recorded with every trial result."""
    replication = cache.replication_counts()
    distinct = cache.distinct_counts()
    return {
        "replication_min": float(replication.min()),
        "replication_mean": float(replication.mean()),
        "replication_max": float(replication.max()),
        "uncached_files": float(np.count_nonzero(replication == 0)),
        "distinct_per_node_mean": float(distinct.mean()),
        "distinct_per_node_min": float(distinct.min()),
    }


class CacheNetworkSimulation:
    """Runs placement + delivery trials for a fixed set of components.

    Parameters
    ----------
    topology, library, placement, strategy, workload:
        The five live components of the simulated system.
    description:
        Optional human-readable description attached to every result.
    uncached_policy:
        ``"resample"`` (default) redraws requests for files that the placement
        left uncached over the cached files with renormalised popularity;
        ``"error"`` leaves them untouched so the strategy raises
        :class:`~repro.exceptions.NoReplicaError`.
    assignment_engine:
        When set, overrides the assignment strategy's execution engine with
        any spec the backend registry (:mod:`repro.backends.registry`)
        resolves: ``"auto"`` (fastest available) or an explicit name such
        as ``"batch"``, ``"reference"`` or ``"numba"``.  Resolution happens
        here, once; all engines are bit-identical for the same seed, so this
        never changes simulated results — only how fast they are computed.
    artifacts:
        Optional shared :class:`~repro.session.artifacts.ArtifactCache`; by
        default each engine instance owns one, reused across all its trials.
    """

    def __init__(
        self,
        topology: Topology,
        library: FileLibrary,
        placement: PlacementStrategy,
        strategy: AssignmentStrategy,
        workload: WorkloadGenerator,
        description: str = "",
        uncached_policy: str = "resample",
        assignment_engine: str | None = None,
        artifacts: ArtifactCache | None = None,
    ) -> None:
        if uncached_policy not in ("resample", "error"):
            raise ValueError(
                f"uncached_policy must be 'resample' or 'error', got {uncached_policy!r}"
            )
        if assignment_engine is not None:
            strategy = strategy.with_engine(assignment_engine)
        self._topology = topology
        self._library = library
        self._placement = placement
        self._strategy = strategy
        self._workload = workload
        self._description = description
        self._uncached_policy = uncached_policy
        self._artifacts = artifacts if artifacts is not None else ArtifactCache()

    # --------------------------------------------------------------- builders
    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        assignment_engine: str | None = None,
        artifacts: ArtifactCache | None = None,
    ) -> "CacheNetworkSimulation":
        """Build a simulation from a declarative configuration.

        The engine spec (``assignment_engine`` when given, the config's own
        otherwise) is resolved through the backend registry exactly once,
        here; the description attached to every result records the resolved
        name.
        """
        components = config.build()
        strategy = components["strategy"]
        if assignment_engine is not None:
            strategy = strategy.with_engine(assignment_engine)
        return cls(
            topology=components["topology"],
            library=components["library"],
            placement=components["placement"],
            strategy=strategy,
            workload=components["workload"],
            description=config.describe(engine=strategy.engine),
            uncached_policy=components["uncached_policy"],
            artifacts=artifacts,
        )

    # -------------------------------------------------------------- accessors
    @property
    def topology(self) -> Topology:
        """The server network."""
        return self._topology

    @property
    def library(self) -> FileLibrary:
        """The file library and popularity profile."""
        return self._library

    @property
    def strategy(self) -> AssignmentStrategy:
        """The request assignment strategy under test."""
        return self._strategy

    @property
    def description(self) -> str:
        """Human-readable description attached to results."""
        return self._description

    @property
    def artifacts(self) -> ArtifactCache:
        """The artifact cache shared by this engine's trials."""
        return self._artifacts

    # ---------------------------------------------------------------- sessions
    def open_session(self, seed: SeedLike = None) -> CacheNetworkSession:
        """Open a streaming session over this engine's components.

        The session shares the engine's artifact cache; a one-window serve of
        the session's workload reproduces :meth:`run` for the same seed.
        """
        return CacheNetworkSession(
            topology=self._topology,
            library=self._library,
            placement=self._placement,
            strategy=self._strategy,
            workload=self._workload,
            seed=seed,
            uncached_policy=self._uncached_policy,
            artifacts=self._artifacts,
            description=self._description,
        )

    def _run_phases(
        self, seed: SeedLike
    ) -> tuple[SimulationResult, CacheState, RequestBatch]:
        with Timer() as timer:
            session = self.open_session(seed)
            requests = session.generate_workload()
            window = session.serve(requests, resolve_uncached=False)
        stats = _placement_stats(session.cache)
        stats["remapped_requests"] = float(session.total_remapped)
        entropy, spawn_key = session.seed_provenance
        result = SimulationResult(
            assignment=window.assignment,
            config_description=self._description,
            placement_stats=stats,
            elapsed_seconds=timer.elapsed,
            seed_entropy=entropy,
            seed_spawn_key=spawn_key,
        )
        return result, session.cache, requests

    # ------------------------------------------------------------------- run
    def run(self, seed: SeedLike = None) -> SimulationResult:
        """Run one placement + delivery trial and return its result."""
        result, _, _ = self._run_phases(seed)
        return result

    def run_with_components(
        self, seed: SeedLike = None
    ) -> tuple[SimulationResult, CacheState, RequestBatch]:
        """Like :meth:`run` but also return the cache state and request batch.

        Useful for analysis code (configuration graph, Voronoi statistics)
        that wants to inspect the same placement the strategy was run on.
        """
        return self._run_phases(seed)

    def __repr__(self) -> str:
        return (
            f"CacheNetworkSimulation(n={self._topology.n}, K={self._library.num_files}, "
            f"strategy={self._strategy.name})"
        )


def run_single_trial(
    config: SimulationConfig | dict[str, Any],
    seed: SeedLike = None,
    assignment_engine: str | None = None,
) -> SimulationResult:
    """Convenience function: build a simulation from ``config`` and run one trial.

    ``config`` may be a :class:`SimulationConfig` or a plain dictionary (as
    produced by :meth:`SimulationConfig.as_dict`), which makes this function
    directly usable as a process-pool worker.  ``assignment_engine`` overrides
    the strategy's execution engine (see :class:`CacheNetworkSimulation`).

    Everything — components, placement, group-index precompute — is rebuilt
    from scratch; use :func:`repro.simulation.multirun.run_trials` (or a
    long-lived :class:`CacheNetworkSimulation`) when running several trials of
    one configuration, so artifacts are reused across them.
    """
    if isinstance(config, dict):
        config = SimulationConfig.from_dict(config)
    simulation = CacheNetworkSimulation.from_config(config, assignment_engine)
    return simulation.run(seed)
