"""Differential tests: every queueing engine must be bit-identical to reference.

All engines of the ``queueing`` family implement the same three-stream RNG
contract (see ``repro/kernels/queueing.py``), so for any
``(topology, radius, d, mu, seed)`` they must produce an *exactly* equal
:class:`~repro.simulation.queueing.QueueingResult` — every float field bit
for bit, not approximately — and the same per-arrival decisions (server,
hop distance and fallback flag) from ``QueueingSession.dispatch_batch``.
The engine list is every available engine of the engine table, ``numba``
included where importable.  The ``batch`` row runs the pure-Python event
loop :func:`~repro.kernels.queueing.commit_window`, the source of the numba
transcription, and that loop's route for windows in which every arrival
sampled one or two servers.  When engines disagree, the reference engine is
authoritative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import available_engines
from repro.catalog.library import FileLibrary
from repro.catalog.popularity import create_popularity
from repro.exceptions import NoReplicaError, StrategyError
from repro.experiments.queueing import run_queueing_experiment
from repro.kernels import queueing
from repro.placement.cache import CacheState
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.session.artifacts import ArtifactCache
from repro.session.queueing import QueueingSession
from repro.simulation.queueing import QueueingSimulation
from repro.strategies.base import AssignmentResult
from repro.topology.complete import CompleteTopology
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess

TOPOLOGIES = [Torus2D(64), Grid2D(49), Ring(40), CompleteTopology(30)]

#: Engine list from the engine table: every available engine (numba included
#: where importable) is compared against the authoritative reference.
ENGINES = list(available_engines("queueing"))
NON_REFERENCE_ENGINES = [name for name in ENGINES if name != "reference"]


def _simulation(
    topology,
    radius=3.0,
    num_choices=2,
    rate=0.6,
    service_rate=1.0,
    candidate_weights="uniform",
    num_files=20,
    cache_size=3,
    popularity="uniform",
):
    library = FileLibrary(
        num_files, create_popularity(popularity, num_files, **({"gamma": 1.1} if popularity == "zipf" else {}))
    )
    # Partition placement guarantees every file is cached (no NoReplicaError
    # from unlucky random placements) while keeping replica sets small.
    return QueueingSimulation(
        topology=topology,
        library=library,
        placement=PartitionPlacement(cache_size),
        arrivals=PoissonArrivalProcess(rate_per_node=rate),
        service_rate=service_rate,
        radius=radius,
        num_choices=num_choices,
        candidate_weights=candidate_weights,
    )


def _assert_identical(simulation, horizon, seed):
    reference = simulation.run(horizon, seed=seed, engine="reference")
    for engine in NON_REFERENCE_ENGINES:
        candidate = simulation.run(horizon, seed=seed, engine=engine)
        # Dataclass equality: every field bit-identical.
        assert candidate == reference, f"engine {engine!r} diverged from reference"
    assert reference.num_arrivals > 0
    return reference


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("num_choices", [1, 2, 4])
class TestEngineDifferential:
    def test_constrained(self, topology, num_choices):
        _assert_identical(
            _simulation(topology, radius=2.0, num_choices=num_choices), 12.0, seed=42
        )

    def test_unconstrained(self, topology, num_choices):
        _assert_identical(
            _simulation(topology, radius=np.inf, num_choices=num_choices), 12.0, seed=43
        )

    def test_weighted_candidates(self, topology, num_choices):
        _assert_identical(
            _simulation(
                topology,
                radius=2.0,
                num_choices=num_choices,
                candidate_weights="popularity",
                popularity="zipf",
            ),
            12.0,
            seed=44,
        )


#: ``QueueingSession.dispatch_batch`` setups: r = 1 with one copy per file
#: leaves many balls without a replica; r = inf has no ball; popularity
#: weights take the weighted d-choice draw.
DISPATCH_SETUPS = {
    "constrained": dict(radius=1.0, cache_size=1),
    "unconstrained": dict(radius=np.inf, cache_size=3),
    "popularity": dict(
        radius=2.0, cache_size=3, candidate_weights="popularity", popularity="zipf"
    ),
}


def _dispatch_all(engine, topology, num_choices, setup):
    """Serve four fixed micro-batches through a fresh session on ``engine``.

    The batches mix sizes (one of them empty) and one untimed batch, which
    arrives at the session's clock.  Returns each call's result and the
    final state digest.
    """
    setup = dict(setup)
    cache_size = setup.pop("cache_size")
    popularity = setup.pop("popularity", "uniform")
    num_files = 20
    library = FileLibrary(
        num_files,
        create_popularity(
            popularity, num_files, **({"gamma": 1.1} if popularity == "zipf" else {})
        ),
    )
    session = QueueingSession(
        topology,
        library,
        PartitionPlacement(cache_size),
        PoissonArrivalProcess(rate_per_node=0.6),
        num_choices=num_choices,
        engine=engine,
        seed=71,
        **setup,
    )
    rng = np.random.default_rng(5)
    results = []
    for size, timed in [(1, True), (40, True), (0, True), (25, False), (60, True)]:
        origins = rng.integers(0, topology.n, size=size)
        files = rng.integers(0, num_files, size=size)
        times = None
        if timed:
            times = session.served_until + np.cumsum(rng.exponential(0.02, size=size))
        results.append(session.dispatch_batch(origins, files, times))
    return results, session.state_digest()


@pytest.mark.parametrize("setup", list(DISPATCH_SETUPS), ids=str)
@pytest.mark.parametrize("num_choices", [1, 2, 4])
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
def test_dispatch_batch_decisions_identical(topology, num_choices, setup):
    """Every engine's per-arrival servers, hops and fallback flags equal
    reference's, call by call."""
    radius = DISPATCH_SETUPS[setup]["radius"]
    reference, digest = _dispatch_all(
        "reference", topology, num_choices, DISPATCH_SETUPS[setup]
    )
    for result in reference:
        assert isinstance(result, AssignmentResult)
        assert result.strategy_name == "supermarket"
        assert result.num_nodes == topology.n
        # A request falls back exactly when it paid more than r hops.
        np.testing.assert_array_equal(result.fallback_mask, result.distances > radius)
    fallbacks = sum(result.fallback_count() for result in reference)
    if setup == "constrained" and radius < topology.diameter:
        assert fallbacks > 0, "the constrained setup should leave some balls empty"
    if setup == "unconstrained":
        assert fallbacks == 0
    for engine in NON_REFERENCE_ENGINES:
        candidate, candidate_digest = _dispatch_all(
            engine, topology, num_choices, DISPATCH_SETUPS[setup]
        )
        assert candidate_digest == digest, f"engine {engine!r} diverged from reference"
        for got, expected in zip(candidate, reference, strict=True):
            np.testing.assert_array_equal(got.servers, expected.servers)
            np.testing.assert_array_equal(got.distances, expected.distances)
            np.testing.assert_array_equal(got.fallback_mask, expected.fallback_mask)


@pytest.mark.parametrize("service_rate", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_mu_seed_grid(service_rate, seed):
    simulation = _simulation(Torus2D(64), radius=3.0, service_rate=service_rate)
    _assert_identical(simulation, 10.0, seed=seed)


def test_heavy_traffic_identical():
    simulation = _simulation(Torus2D(64), radius=3.0, rate=1.3)
    with pytest.warns(UserWarning, match="utilisation"):
        _assert_identical(simulation, 15.0, seed=5)


def test_single_replica_candidates_identical():
    # M = 1 with few files: many candidate sets smaller than d, so the
    # sample stream is skipped for them on both engines.
    simulation = _simulation(Torus2D(49), radius=1.0, num_choices=4, cache_size=1)
    _assert_identical(simulation, 10.0, seed=9)


def test_sweep_with_shared_store_identical(monkeypatch):
    """A rate x d sweep whose points share one ``ArtifactCache``: the first
    point fills the ``GroupStore`` and every later point reads all of its
    groups from it, and every point takes the route (its minimums lowered
    to fit the sweep's windows): the d = 2 points decide in first-toucher
    rounds, the d = 1 points in none.  ``batch`` returns reference's rows."""
    forced = []
    original = queueing._commit_forced

    def spy(state, times, *rest):
        forced.append(int(times.size))
        return original(state, times, *rest)

    monkeypatch.setattr(queueing, "_commit_forced", spy)
    monkeypatch.setattr(queueing, "FORCED_MIN_ARRIVALS", 256)
    monkeypatch.setattr(queueing, "ROUNDS_MIN_ARRIVALS", 256)
    sweep = dict(
        num_nodes=4096,
        num_files=128,
        cache_size=8,
        radius=8,
        horizon=0.5,
        arrival_rates=[0.9, 0.5],
        choices=[1, 2],
        seed=3,
    )
    rows = {}
    for engine in ("batch", "reference"):
        artifacts = ArtifactCache()
        rows[engine] = run_queueing_experiment(engine=engine, artifacts=artifacts, **sweep)
        if engine == "batch":
            stats = artifacts.stats()
            # The cold first point puts every group: later points only hit.
            assert stats["stores"] == 1 and stats["group_misses"] == 0
            assert stats["group_hits"] > stats["group_rows"] > 0
    assert rows["batch"] == rows["reference"]
    assert len(forced) == 4 and min(forced) >= 256


class TestEdgeCases:
    def test_invalid_engine_rejected(self):
        simulation = _simulation(Torus2D(49))
        with pytest.raises(StrategyError):
            simulation.run(5.0, seed=0, engine="warp")

    def test_no_replica_raises_on_both_engines(self):
        # File 1 is cached nowhere; the dispatcher must surface NoReplicaError
        # on the first arrival requesting it, on either engine.
        torus = Torus2D(25)

        class FixedPlacement(ProportionalPlacement):
            def place(self, topology, library, seed=None):
                return CacheState(
                    np.zeros((topology.n, 1), dtype=np.int64), num_files=2
                )

        simulation = QueueingSimulation(
            topology=torus,
            library=FileLibrary(2),
            placement=FixedPlacement(1),
            arrivals=PoissonArrivalProcess(rate_per_node=0.8),
            radius=2.0,
        )
        for engine in ENGINES:
            with pytest.raises(NoReplicaError):
                simulation.run(10.0, seed=0, engine=engine)

    def test_no_replica_batch_leaves_session_untouched(self):
        """A micro-batch naming files cached nowhere raises before any of its
        arrivals commits, on every engine: it names the same (smallest)
        file, keeps the state digest, and the next valid batch decides
        identically everywhere."""

        class StripedPlacement(ProportionalPlacement):
            # Even nodes cache file 0, odd nodes file 3: files 1 and 2 nowhere.
            def place(self, topology, library, seed=None):
                files = np.where(np.arange(topology.n) % 2 == 0, 0, 3)
                return CacheState(files[:, None], num_files=library.num_files)

        sessions = {
            engine: QueueingSession(
                Torus2D(25),
                FileLibrary(4),
                StripedPlacement(1),
                PoissonArrivalProcess(rate_per_node=0.5),
                radius=1.0,
                engine=engine,
                seed=13,
            )
            for engine in ENGINES
        }
        results = {}
        for engine, session in sessions.items():
            before = session.state_digest()
            with pytest.raises(NoReplicaError) as raised:
                # File 2 arrives before file 1, the smallest missing file.
                session.dispatch_batch(
                    [0, 1, 2, 3, 4], [0, 3, 2, 0, 1], [0.1, 0.2, 0.3, 0.4, 0.5]
                )
            assert raised.value.file_id == 1, engine
            assert session.state_digest() == before, engine
            results[engine] = session.dispatch_batch(
                [5, 6, 7, 8, 9], [0, 3, 3, 0, 0], [0.2, 0.3, 0.4, 0.5, 0.6]
            )
        expected, digest = results["reference"], sessions["reference"].state_digest()
        for engine in NON_REFERENCE_ENGINES:
            got = results[engine]
            np.testing.assert_array_equal(got.servers, expected.servers)
            np.testing.assert_array_equal(got.distances, expected.distances)
            np.testing.assert_array_equal(got.fallback_mask, expected.fallback_mask)
            assert sessions[engine].state_digest() == digest, engine
