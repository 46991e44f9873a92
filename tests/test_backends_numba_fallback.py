"""Differential tests of the numba engine's operation tables, numba or not.

Without numba installed the backend's ``@njit`` decorator degrades to a
no-op, so the *logic* of the compiled loops — :mod:`repro.kernels.commit`'s
static loop functions and the transcribed array-based departure heap — runs
as plain Python.  These tests add that engine's operation tables as a
``"numba-loops"`` row of the engine table, built by the same loader as the
real ``numba`` row with only the availability check bypassed, and hold it to
the same bit-identity obligation as any other engine, so the loops are
verified on every environment; where numba *is* importable the same tables
are additionally exercised compiled through the regular differential suites
(which list ``numba`` there).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import numba_backend, registry
from repro.catalog.library import FileLibrary
from repro.kernels import commit
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.session.queueing import QueueingSession
from repro.simulation.queueing import QueueingSimulation
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.generators import UniformOriginWorkload

ENGINE = "numba-loops"  # the numba operation tables, jitted or not


@pytest.fixture(scope="module", autouse=True)
def numba_loops_engine():
    """Add the numba tables as the ``"numba-loops"`` engine for this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(
            registry.ENGINES,
            ENGINE,
            "numba tables, pure-Python when numba is absent",
        )
        for family in registry.FAMILIES:
            patch.setitem(
                registry._TABLES,
                (ENGINE, family),
                registry._load_operations("numba", family),
            )
        yield


@pytest.mark.parametrize(
    "core, loop",
    [
        ("_least_loaded_of_sample_core", commit.least_loaded_of_sample_loop),
        ("_least_loaded_scan_core", commit.least_loaded_scan_loop),
        ("_threshold_hybrid_core", commit.threshold_hybrid_loop),
    ],
)
def test_static_loops_are_compiled_not_copied(core, loop):
    # One definition per static rule: the numba engine compiles the kernel's
    # own loop (a dispatcher's py_func), and without numba it *is* that loop.
    compiled = getattr(numba_backend, core)
    assert getattr(compiled, "py_func", compiled) is loop


def _system(num_nodes=49, num_files=20, cache_size=3, num_requests=300):
    topology = Torus2D(num_nodes)
    library = FileLibrary(num_files)
    cache = ProportionalPlacement(cache_size).place(topology, library, seed=0)
    requests = UniformOriginWorkload(num_requests).generate(topology, library, seed=1)
    return topology, cache, requests


def _assert_identical(strategy_cls, seed, **kwargs):
    topology, cache, requests = _system()
    candidate = strategy_cls(engine=ENGINE, **kwargs).assign(
        topology, cache, requests, seed=seed
    )
    reference = strategy_cls(engine="reference", **kwargs).assign(
        topology, cache, requests, seed=seed
    )
    np.testing.assert_array_equal(candidate.servers, reference.servers)
    np.testing.assert_array_equal(candidate.distances, reference.distances)
    np.testing.assert_array_equal(candidate.fallback_mask, reference.fallback_mask)


class TestAssignmentTranscriptions:
    @pytest.mark.parametrize("num_choices", [1, 2, 4])
    @pytest.mark.parametrize("radius", [2, np.inf])
    def test_two_choice(self, radius, num_choices):
        _assert_identical(
            ProximityTwoChoiceStrategy, seed=42, radius=radius, num_choices=num_choices
        )

    @pytest.mark.parametrize("radius", [2, np.inf])
    def test_least_loaded(self, radius):
        _assert_identical(LeastLoadedInBallStrategy, seed=43, radius=radius)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 3.0])
    def test_threshold_hybrid(self, threshold):
        _assert_identical(
            ThresholdHybridStrategy, seed=44, radius=3, imbalance_threshold=threshold
        )

    def test_load_independent_strategies_reuse_kernel_pass(self):
        _assert_identical(RandomReplicaStrategy, seed=45, radius=3)
        _assert_identical(NearestReplicaStrategy, seed=46)


def _supermarket(**kwargs):
    return QueueingSimulation(
        topology=Torus2D(64),
        library=FileLibrary(20),
        placement=PartitionPlacement(3),
        arrivals=PoissonArrivalProcess(rate_per_node=0.7),
        radius=kwargs.pop("radius", 3.0),
        **kwargs,
    )


class TestQueueingTranscription:
    @pytest.mark.parametrize("num_choices", [1, 2, 4])
    def test_event_loop_bit_identical(self, num_choices):
        simulation = _supermarket(num_choices=num_choices)
        reference = simulation.run(12.0, seed=7, engine="reference")
        candidate = simulation.run(12.0, seed=7, engine=ENGINE)
        assert candidate == reference
        assert reference.num_arrivals > 0

    def test_unconstrained_bit_identical(self):
        simulation = _supermarket(radius=np.inf)
        assert simulation.run(10.0, seed=8, engine=ENGINE) == simulation.run(
            10.0, seed=8, engine="reference"
        )

    def test_windowed_serving_preserves_heap_state(self):
        # The array-heap write-back must leave a valid heapq heap in the
        # state between windows: serve the horizon in 5 windows and compare
        # with the one-shot reference run.
        def session(engine):
            return QueueingSession(
                Torus2D(64),
                FileLibrary(20),
                PartitionPlacement(3),
                PoissonArrivalProcess(rate_per_node=0.7),
                radius=3.0,
                engine=engine,
                seed=11,
            )

        windowed = session(ENGINE)
        for _ in windowed.serve_windows(window=3.0, num_windows=5):
            pass
        one_shot = session("reference")
        one_shot.serve(15.0)
        assert windowed.result() == one_shot.result()
        np.testing.assert_array_equal(
            windowed.queue_lengths(), one_shot.queue_lengths()
        )
        np.testing.assert_array_equal(windowed.busy_until(), one_shot.busy_until())
