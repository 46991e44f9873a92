"""Differential tests: every engine must be bit-identical to reference.

All engines of the ``assignment`` family implement the same RNG-stream
contract (see ``repro/kernels/__init__.py``), so for any seed they must
produce element-wise identical servers, distances and fallback masks —
across every topology, fallback policy and number of choices.  The engine
list is every available engine of the engine table
(:mod:`repro.backends.registry`), ``numba`` included where importable.
A test-local ``python-commit`` row adds the batched entry points of
:mod:`repro.kernels.engine` with their default pure-Python ``commit=`` loop,
which is the ``batch`` engine's fallback and runs the loop functions the
numba engine compiles.  These tests are the enforcement of that guarantee; when
they fail, the reference engine is authoritative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import available_engines
from repro.catalog.library import FileLibrary
from repro.exceptions import NoReplicaError, StrategyError
from repro.placement.cache import CacheState
from repro.placement.proportional import ProportionalPlacement
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_single_trial
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
from repro.topology.complete import CompleteTopology
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.workload.request import RequestBatch
from repro.workload.generators import UniformOriginWorkload

TOPOLOGIES = [Torus2D(49), Grid2D(49), Ring(40), CompleteTopology(30)]

#: The kernel entry points with their default pure-Python commit loop,
#: added to the engine table for this module by conftest's
#: ``python_commit_engine``.
PYTHON_COMMIT = "python-commit"

#: Engine list from the engine table: every available engine (numba included
#: where importable), plus the pure-Python commit row, is compared against
#: the authoritative reference.
ENGINES = list(available_engines("assignment"))
ENGINES.append(PYTHON_COMMIT)
NON_REFERENCE_ENGINES = [name for name in ENGINES if name != "reference"]

pytestmark = pytest.mark.usefixtures("python_commit_engine")


def _system(topology, num_files=20, cache_size=3, num_requests=250):
    library = FileLibrary(num_files)
    cache = ProportionalPlacement(cache_size).place(topology, library, seed=0)
    requests = UniformOriginWorkload(num_requests).generate(topology, library, seed=1)
    return cache, requests


def _assert_identical(strategy_cls, topology, cache, requests, seed, **kwargs):
    reference = strategy_cls(engine="reference", **kwargs).assign(
        topology, cache, requests, seed=seed
    )
    for engine in NON_REFERENCE_ENGINES:
        candidate = strategy_cls(engine=engine, **kwargs).assign(
            topology, cache, requests, seed=seed
        )
        np.testing.assert_array_equal(candidate.servers, reference.servers)
        np.testing.assert_array_equal(candidate.distances, reference.distances)
        np.testing.assert_array_equal(candidate.fallback_mask, reference.fallback_mask)
    return reference


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("fallback", ["nearest", "expand"])
@pytest.mark.parametrize("num_choices", [1, 2, 4])
class TestTwoChoiceDifferential:
    def test_constrained(self, topology, fallback, num_choices):
        cache, requests = _system(topology)
        _assert_identical(
            ProximityTwoChoiceStrategy,
            topology,
            cache,
            requests,
            seed=42,
            radius=2,
            num_choices=num_choices,
            fallback=fallback,
        )

    def test_unconstrained(self, topology, fallback, num_choices):
        cache, requests = _system(topology)
        _assert_identical(
            ProximityTwoChoiceStrategy,
            topology,
            cache,
            requests,
            seed=43,
            radius=np.inf,
            num_choices=num_choices,
            fallback=fallback,
        )

    def test_hybrid(self, topology, fallback, num_choices):
        cache, requests = _system(topology)
        _assert_identical(
            ThresholdHybridStrategy,
            topology,
            cache,
            requests,
            seed=44,
            radius=2,
            num_choices=num_choices,
            imbalance_threshold=1.0,
            fallback=fallback,
        )


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("fallback", ["nearest", "expand"])
@pytest.mark.parametrize("radius", [1, 3, np.inf])
class TestBaselinesDifferential:
    def test_least_loaded(self, topology, fallback, radius):
        cache, requests = _system(topology)
        _assert_identical(
            LeastLoadedInBallStrategy,
            topology,
            cache,
            requests,
            seed=45,
            radius=radius,
            fallback=fallback,
        )

    def test_random_replica(self, topology, fallback, radius):
        cache, requests = _system(topology)
        _assert_identical(
            RandomReplicaStrategy,
            topology,
            cache,
            requests,
            seed=46,
            radius=radius,
            fallback=fallback,
        )


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
def test_nearest_replica_differential(topology):
    cache, requests = _system(topology)
    _assert_identical(NearestReplicaStrategy, topology, cache, requests, seed=47)


class TestEdgeCases:
    def test_expand_fallback_fires_identically(self):
        # One replica far away from most origins and a tiny radius: EXPAND
        # must double the radius (possibly repeatedly) for most requests.
        torus = Torus2D(100)
        # Every node caches file 0, except node 0 which caches file 1 — the
        # only replica of the file all requests ask for.
        slots = np.zeros((100, 1), dtype=np.int64)
        slots[0, 0] = 1
        cache = CacheState(slots, num_files=2)
        requests = RequestBatch(
            origins=np.arange(100, dtype=np.int64),
            files=np.ones(100, dtype=np.int64),
            num_nodes=100,
            num_files=2,
        )
        result = _assert_identical(
            ProximityTwoChoiceStrategy,
            torus,
            cache,
            requests,
            seed=3,
            radius=1,
            fallback="expand",
        )
        assert np.all(result.servers == 0)
        assert result.fallback_count() > 0

    def test_error_fallback_raises_on_both_engines(self):
        torus = Torus2D(100)
        slots = np.zeros((100, 1), dtype=np.int64)
        slots[0, 0] = 1
        cache = CacheState(slots, num_files=2)
        requests = RequestBatch(
            origins=np.asarray([99], dtype=np.int64),
            files=np.ones(1, dtype=np.int64),
            num_nodes=100,
            num_files=2,
        )
        for engine in ENGINES:
            strategy = ProximityTwoChoiceStrategy(
                radius=1, fallback="error", engine=engine
            )
            with pytest.raises(StrategyError):
                strategy.assign(torus, cache, requests, seed=0)

    @pytest.mark.parametrize(
        "strategy_cls",
        [
            ProximityTwoChoiceStrategy,
            LeastLoadedInBallStrategy,
            RandomReplicaStrategy,
            NearestReplicaStrategy,
        ],
    )
    def test_no_replica_raises_on_both_engines(self, strategy_cls):
        torus = Torus2D(25)
        slots = np.zeros((25, 1), dtype=np.int64)  # only file 0 is cached
        cache = CacheState(slots, num_files=3)
        requests = RequestBatch(
            origins=np.asarray([4], dtype=np.int64),
            files=np.asarray([2], dtype=np.int64),
            num_nodes=25,
            num_files=3,
        )
        for engine in ENGINES:
            with pytest.raises(NoReplicaError):
                strategy_cls(engine=engine).assign(torus, cache, requests, seed=0)

    def test_empty_batch(self):
        torus = Torus2D(25)
        cache, _ = _system(torus, num_requests=10)
        empty = RequestBatch(
            origins=np.empty(0, dtype=np.int64),
            files=np.empty(0, dtype=np.int64),
            num_nodes=25,
            num_files=20,
        )
        result = _assert_identical(
            ProximityTwoChoiceStrategy, torus, cache, empty, seed=5, radius=2
        )
        assert result.num_requests == 0

    def test_nearest_origin_fallback_identical(self):
        torus = Torus2D(25)
        slots = np.zeros((25, 1), dtype=np.int64)
        cache = CacheState(slots, num_files=2)  # file 1 cached nowhere
        requests = RequestBatch(
            origins=np.asarray([3, 7, 3], dtype=np.int64),
            files=np.asarray([1, 0, 1], dtype=np.int64),
            num_nodes=25,
            num_files=2,
        )
        result = _assert_identical(
            NearestReplicaStrategy,
            torus,
            cache,
            requests,
            seed=6,
            allow_origin_fallback=True,
        )
        assert result.fallback_count() == 2
        assert result.servers[0] == 3 and result.distances[0] == torus.diameter


class TestEngineWiring:
    def test_with_engine_returns_copy(self):
        strategy = ProximityTwoChoiceStrategy(radius=4, engine="batch")
        reference = strategy.with_engine("reference")
        assert strategy.engine == "batch"
        assert reference.engine == "reference"
        assert reference.radius == strategy.radius

    def test_auto_resolves_to_fastest_available(self):
        # "auto" must pin the registry's first available engine at
        # construction time, never remain the literal spec.
        strategy = ProximityTwoChoiceStrategy(radius=4)
        assert strategy.engine == ENGINES[0]
        assert strategy.with_engine("auto").engine == ENGINES[0]

    def test_invalid_engine_rejected(self):
        with pytest.raises(StrategyError):
            ProximityTwoChoiceStrategy(engine="warp")
        with pytest.raises(StrategyError):
            ProximityTwoChoiceStrategy().with_engine("warp")

    def test_run_single_trial_engine_override_identical(self):
        config = SimulationConfig(
            num_nodes=64,
            num_files=30,
            cache_size=4,
            strategy="proximity_two_choice",
            strategy_params={"radius": 3},
        )
        auto = run_single_trial(config, seed=9)
        reference = run_single_trial(config, seed=9, assignment_engine="reference")
        np.testing.assert_array_equal(
            auto.assignment.servers, reference.assignment.servers
        )
        np.testing.assert_array_equal(
            auto.assignment.distances, reference.assignment.distances
        )

    def test_strategy_params_engine_passthrough(self):
        config = SimulationConfig(
            num_nodes=64,
            num_files=30,
            cache_size=4,
            strategy="proximity_two_choice",
            strategy_params={"radius": 3, "engine": "reference"},
        )
        from_params = run_single_trial(config, seed=10)
        overridden = run_single_trial(config, seed=10, assignment_engine="batch")
        np.testing.assert_array_equal(
            from_params.assignment.servers, overridden.assignment.servers
        )
