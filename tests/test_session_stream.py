"""Differential tests: windowed session serving vs one-shot assignment.

The acceptance property of the session redesign: serving *any* window
partition of a request batch through a :class:`CacheNetworkSession` is
bit-identical (same servers, distances and fallback mask) to one-shot
assignment on the same engine and seed — across all five strategies, on the
default engine, on the scalar ``reference`` engine and on the pure-Python
commit loops that ``batch`` falls back to.  The session carries the strategy's ``(rng_sample, rng_tie)`` pair and the
load vector across windows, so the partition boundaries must be invisible to
the assignment process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError, NoReplicaError, StrategyError
from repro.placement.proportional import ProportionalPlacement
from repro.rng import spawn_seeds
from repro.session import ArtifactCache, CacheNetworkSession, open_session
from repro.simulation.config import SimulationConfig
from repro.strategies.base import AssignmentResult
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload

SEED = 2024
NUM_REQUESTS = 250

STRATEGY_FACTORIES = {
    "two_choice_constrained": lambda: ProximityTwoChoiceStrategy(radius=3),
    "two_choice_unconstrained": lambda: ProximityTwoChoiceStrategy(radius=np.inf),
    "least_loaded": lambda: LeastLoadedInBallStrategy(radius=3),
    "hybrid": lambda: ThresholdHybridStrategy(radius=3, imbalance_threshold=1.0),
    "random_replica": lambda: RandomReplicaStrategy(radius=3),
    "nearest_replica": lambda: NearestReplicaStrategy(),
}

PARTITIONS = {
    "whole": [NUM_REQUESTS],
    "halves": [125, 125],
    "uneven": [7, 13, 30, 200],
    "single_first": [1, 249],
    "with_empty_windows": [0, 125, 0, 125],
    "many": [50] * 5,
}


def _components():
    topology = Torus2D(49)
    library = FileLibrary(20)
    placement = ProportionalPlacement(3)
    workload = UniformOriginWorkload(NUM_REQUESTS)
    return topology, library, placement, workload


def _session(strategy, artifacts=None):
    topology, library, placement, workload = _components()
    return CacheNetworkSession(
        topology=topology,
        library=library,
        placement=placement,
        strategy=strategy,
        workload=workload,
        seed=SEED,
        artifacts=artifacts,
    )


def _one_shot(strategy):
    """The one-shot kernel result for the exact randomness a session derives."""
    topology, library, placement, workload = _components()
    placement_seed, workload_seed, strategy_seed = spawn_seeds(SEED, 3)
    cache = placement.place(topology, library, np.random.default_rng(placement_seed))
    requests = workload.generate(topology, library, np.random.default_rng(workload_seed))
    result = strategy.assign(
        topology, cache, requests, seed=np.random.default_rng(strategy_seed)
    )
    return requests, result


def _split(requests, sizes):
    assert sum(sizes) == requests.num_requests
    windows, start = [], 0
    for size in sizes:
        windows.append(requests.subset(np.arange(start, start + size, dtype=np.int64)))
        start += size
    return windows


def _assert_results_identical(a: AssignmentResult, b: AssignmentResult) -> None:
    np.testing.assert_array_equal(a.servers, b.servers)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.fallback_mask, b.fallback_mask)


@pytest.mark.parametrize("partition", PARTITIONS.values(), ids=PARTITIONS.keys())
@pytest.mark.parametrize("strategy_key", STRATEGY_FACTORIES.keys())
class TestWindowPartitionDifferential:
    #: The engine spec every strategy runs on.
    engine = "auto"

    def test_serve_stream_bit_identical_to_one_shot(self, strategy_key, partition):
        factory = STRATEGY_FACTORIES[strategy_key]
        requests, one_shot = _one_shot(factory().with_engine(self.engine))
        session = _session(factory().with_engine(self.engine))
        windows = _split(requests, partition)
        served = list(session.serve_stream(windows, resolve_uncached=False))
        assert len(served) == len(partition)
        merged = AssignmentResult.concatenate([w.assignment for w in served])
        _assert_results_identical(merged, one_shot)

    def test_cumulative_state_matches_merged_assignment(self, strategy_key, partition):
        factory = STRATEGY_FACTORIES[strategy_key]
        requests, one_shot = _one_shot(factory().with_engine(self.engine))
        session = _session(factory().with_engine(self.engine))
        list(session.serve_stream(_split(requests, partition), resolve_uncached=False))
        snapshot = session.snapshot()
        assert snapshot.num_windows == len(partition)
        assert snapshot.num_requests == NUM_REQUESTS
        assert snapshot.max_load == one_shot.max_load()
        assert snapshot.communication_cost == pytest.approx(
            one_shot.communication_cost()
        )
        assert snapshot.fallback_rate == pytest.approx(one_shot.fallback_rate())
        np.testing.assert_array_equal(snapshot.loads, one_shot.loads())


@pytest.mark.usefixtures("python_commit_engine")
class TestPythonCommitWindowPartition(TestWindowPartitionDifferential):
    """The same partitions through conftest's ``python-commit`` engine: the
    pure-Python commit loops that ``batch`` falls back to must also carry
    the load vector across windows."""

    engine = "python-commit"


class TestReferenceWindowPartition(TestWindowPartitionDifferential):
    """The same partitions on the scalar ``reference`` engine, the authority:
    the paper's one-request-at-a-time process serves windows too."""

    engine = "reference"


class TestSessionStateMachine:
    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_failed_window_leaves_state_untouched(self, engine):
        # Under FallbackPolicy.ERROR a request with an empty ball fails its
        # window.  Every engine resolves candidates before drawing or
        # committing, so the session serves on as if that window never came.
        def session():
            return _session(
                ProximityTwoChoiceStrategy(radius=1, fallback="error", engine=engine)
            )

        failing, clean = session(), session()
        topology, cache = failing.topology, failing.cache
        good, bad = [], None
        for origin in range(topology.n):
            for file_id in range(cache.num_files):
                near = topology.distances_from(origin, cache.file_nodes(file_id)) <= 1
                if near.any():
                    good.append((origin, file_id))
                elif bad is None:
                    bad = (origin, file_id)
        assert bad is not None and len(good) >= 60
        first, second = good[:30], good[30:60]
        for served in (failing, clean):
            served.dispatch_batch(*zip(*first))
        digest = failing.state_digest()
        with pytest.raises(StrategyError):
            failing.dispatch_batch(*zip(*(second + [bad])))
        assert failing.state_digest() == digest
        _assert_results_identical(
            failing.dispatch_batch(*zip(*second)), clean.dispatch_batch(*zip(*second))
        )
        np.testing.assert_array_equal(failing.loads(), clean.loads())

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    @pytest.mark.parametrize("strategy_key", STRATEGY_FACTORIES.keys())
    def test_failed_first_batch_leaves_fresh_session_untouched(self, strategy_key, engine):
        # 200 files over 49 one-slot caches: most files are cached nowhere,
        # and a batch asking for one raises before anything commits.  The
        # session's streams exist from the start, so its digest is that of a
        # session that never saw the batch.
        def session():
            return CacheNetworkSession(
                topology=Torus2D(49),
                library=FileLibrary(200),
                placement=ProportionalPlacement(1),
                strategy=STRATEGY_FACTORIES[strategy_key]().with_engine(engine),
                seed=SEED,
            )

        failing, clean = session(), session()
        cached = np.unique(failing.cache.slots)
        uncached = int(np.setdiff1d(np.arange(200), cached)[0])
        rng = np.random.default_rng(3)
        origins, files = rng.integers(0, 49, size=40), rng.choice(cached, size=40)
        digest = failing.state_digest()
        with pytest.raises(NoReplicaError):
            failing.dispatch_batch(np.append(origins, 0), np.append(files, uncached))
        assert failing.state_digest() == digest == clean.state_digest()
        _assert_results_identical(
            failing.dispatch_batch(origins, files), clean.dispatch_batch(origins, files)
        )
        assert failing.state_digest() == clean.state_digest()

    def test_reset_replays_identically(self):
        session = _session(ProximityTwoChoiceStrategy(radius=3))
        requests = session.generate_workload()
        first = session.serve(requests, resolve_uncached=False)
        session.reset()
        assert session.num_windows == 0
        assert session.num_requests_served == 0
        assert session.snapshot().max_load == 0
        replay_requests = session.generate_workload()
        np.testing.assert_array_equal(replay_requests.origins, requests.origins)
        np.testing.assert_array_equal(replay_requests.files, requests.files)
        replayed = session.serve(replay_requests, resolve_uncached=False)
        _assert_results_identical(first.assignment, replayed.assignment)

    def test_shared_artifact_cache_does_not_change_results(self):
        artifacts = ArtifactCache()
        requests, one_shot = _one_shot(ProximityTwoChoiceStrategy(radius=3))
        windows = _split(requests, [50] * 5)
        for _ in range(2):  # second pass hits the memoised placement
            session = _session(ProximityTwoChoiceStrategy(radius=3), artifacts=artifacts)
            served = list(session.serve_stream(windows, resolve_uncached=False))
            merged = AssignmentResult.concatenate([w.assignment for w in served])
            _assert_results_identical(merged, one_shot)
        stats = artifacts.stats()
        assert stats["placement_hits"] == 1
        assert stats["stores"] == 0

    def test_window_results_expose_cumulative_metrics(self):
        session = _session(ProximityTwoChoiceStrategy(radius=3))
        requests = session.generate_workload()
        windows = list(session.serve_stream(_split(requests, [100, 150]), resolve_uncached=False))
        assert windows[0].window_index == 0 and windows[1].window_index == 1
        assert windows[0].cumulative_requests == 100
        assert windows[1].cumulative_requests == 250
        assert windows[1].cumulative_max_load >= windows[0].cumulative_max_load
        assert windows[1].summary()["num_requests"] == 150

    def test_session_without_workload_rejects_workload_calls(self):
        topology, library, placement, _ = _components()
        session = CacheNetworkSession(
            topology=topology,
            library=library,
            placement=placement,
            strategy=ProximityTwoChoiceStrategy(radius=3),
            seed=SEED,
        )
        with pytest.raises(ConfigurationError):
            session.generate_workload()
        with pytest.raises(ConfigurationError):
            session.workload_stream(num_windows=1)

    def test_invalid_uncached_policy_rejected(self):
        topology, library, placement, workload = _components()
        with pytest.raises(ConfigurationError):
            CacheNetworkSession(
                topology=topology,
                library=library,
                placement=placement,
                strategy=ProximityTwoChoiceStrategy(radius=3),
                workload=workload,
                uncached_policy="drop",
            )

    def test_repr(self):
        session = _session(ProximityTwoChoiceStrategy(radius=3))
        assert "windows=0" in repr(session)


class TestOpenSession:
    CONFIG = SimulationConfig(
        num_nodes=49,
        num_files=20,
        cache_size=3,
        strategy="proximity_two_choice",
        strategy_params={"radius": 3},
        num_requests=NUM_REQUESTS,
    )

    def test_open_session_matches_run_single_trial(self):
        from repro.simulation.engine import run_single_trial

        trial = run_single_trial(self.CONFIG, seed=SEED)
        session = open_session(self.CONFIG, seed=SEED)
        window = session.serve(session.generate_workload(), resolve_uncached=False)
        _assert_results_identical(window.assignment, trial.assignment)
        assert session.description == self.CONFIG.describe()

    def test_open_session_accepts_dict_and_engine_override(self):
        session = open_session(
            self.CONFIG.as_dict(), seed=SEED, assignment_engine="reference"
        )
        assert session.strategy.engine == "reference"
        # The pinned engine is recorded consistently: the snapshot's engine
        # field and the description must name the same (overridden) engine.
        snapshot = session.snapshot()
        assert snapshot.engine == "reference"
        assert "engine=reference" in snapshot.description

    def test_workload_stream_sliced_serve_matches_one_shot(self):
        baseline = open_session(self.CONFIG, seed=SEED)
        whole = baseline.serve(baseline.generate_workload(), resolve_uncached=False)
        streamed = open_session(self.CONFIG, seed=SEED)
        served = list(
            streamed.serve_stream(
                streamed.workload_stream(window_size=60), resolve_uncached=False
            )
        )
        assert [w.num_requests for w in served] == [60, 60, 60, 60, 10]
        merged = AssignmentResult.concatenate([w.assignment for w in served])
        _assert_results_identical(merged, whole.assignment)

    def test_seed_provenance_recorded(self):
        session = open_session(self.CONFIG, seed=np.random.SeedSequence(99))
        assert session.seed_provenance == ((99,), ())
        spawned = open_session(
            self.CONFIG, seed=np.random.SeedSequence(99).spawn(1)[0]
        )
        assert spawned.seed_provenance == ((99,), (0,))
