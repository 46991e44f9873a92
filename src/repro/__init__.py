"""repro — reproduction of *Proximity-Aware Balanced Allocations in Cache Networks*.

The package simulates a network of caching servers on a torus/grid, the
paper's two request-assignment strategies (nearest replica and proximity-aware
two choices) plus reference baselines, and regenerates every figure of the
paper's evaluation section.

Quickstart
----------
>>> from repro import SimulationConfig, run_trials
>>> config = SimulationConfig(
...     num_nodes=225, num_files=100, cache_size=5,
...     strategy="proximity_two_choice", strategy_params={"radius": 6},
... )
>>> result = run_trials(config, num_trials=5, seed=1)
>>> result.mean_max_load >= 1.0
True

See ``examples/`` for complete applications and ``benchmarks/`` for the
figure-by-figure reproduction harness.
"""

from repro._version import __version__
from repro.backends import (
    available_engines,
    resolve_engine_name,
)
from repro.catalog import (
    FileLibrary,
    UniformPopularity,
    ZipfPopularity,
    CustomPopularity,
    create_popularity,
)
from repro.exceptions import (
    ReproError,
    ConfigurationError,
    TopologyError,
    PlacementError,
    StrategyError,
    NoReplicaError,
    UnknownEngineError,
    WorkloadError,
    ExperimentError,
)
from repro.placement import (
    CacheState,
    ProportionalPlacement,
    UniformDistinctPlacement,
    FullReplicationPlacement,
    create_placement,
)
from repro.session import (
    ArtifactCache,
    CacheNetworkSession,
    QueueingSession,
    SessionSnapshot,
    WindowResult,
    open_queueing_session,
    open_session,
)
from repro.simulation import (
    SimulationConfig,
    CacheNetworkSimulation,
    SimulationResult,
    MultiRunResult,
    run_single_trial,
    run_trials,
    run_trials_parallel,
)
from repro.strategies import (
    AssignmentResult,
    FallbackPolicy,
    NearestReplicaStrategy,
    ProximityTwoChoiceStrategy,
    RandomReplicaStrategy,
    LeastLoadedInBallStrategy,
    create_strategy,
)
from repro.topology import Torus2D, Grid2D, Ring, CompleteTopology, create_topology
from repro.workload import (
    RequestBatch,
    UniformOriginWorkload,
    PoissonDemandWorkload,
    HotspotOriginWorkload,
)

__all__ = [
    "__version__",
    # backends
    "available_engines",
    "resolve_engine_name",
    # catalog
    "FileLibrary",
    "UniformPopularity",
    "ZipfPopularity",
    "CustomPopularity",
    "create_popularity",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "PlacementError",
    "StrategyError",
    "NoReplicaError",
    "UnknownEngineError",
    "WorkloadError",
    "ExperimentError",
    # placement
    "CacheState",
    "ProportionalPlacement",
    "UniformDistinctPlacement",
    "FullReplicationPlacement",
    "create_placement",
    # session
    "ArtifactCache",
    "CacheNetworkSession",
    "SessionSnapshot",
    "WindowResult",
    "open_session",
    "QueueingSession",
    "open_queueing_session",
    # simulation
    "SimulationConfig",
    "CacheNetworkSimulation",
    "SimulationResult",
    "MultiRunResult",
    "run_single_trial",
    "run_trials",
    "run_trials_parallel",
    # strategies
    "AssignmentResult",
    "FallbackPolicy",
    "NearestReplicaStrategy",
    "ProximityTwoChoiceStrategy",
    "RandomReplicaStrategy",
    "LeastLoadedInBallStrategy",
    "create_strategy",
    # topology
    "Torus2D",
    "Grid2D",
    "Ring",
    "CompleteTopology",
    "create_topology",
    # workload
    "RequestBatch",
    "UniformOriginWorkload",
    "PoissonDemandWorkload",
    "HotspotOriginWorkload",
]
