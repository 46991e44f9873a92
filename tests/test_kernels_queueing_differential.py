"""Differential tests: every queueing engine must be bit-identical to reference.

All engines registered for the ``queueing`` family implement the same
three-stream RNG contract (see ``repro/kernels/queueing.py``), so for any
``(topology, radius, d, mu, seed)`` they must produce an *exactly* equal
:class:`~repro.simulation.queueing.QueueingResult` — every float field bit
for bit, not approximately.  The engine list is parametrised from the backend
registry, so a newly registered backend (e.g. ``numba`` where importable) is
automatically held to the same guarantee.  A test-local ``python-commit``
row adds :func:`~repro.kernels.queueing.queueing_kernel_window` with its
default pure-Python event loop, which is the ``batch`` engine's fallback and
the source of the numba transcription.  When engines disagree, the reference
engine is authoritative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import registered_engines
from repro.catalog.library import FileLibrary
from repro.catalog.popularity import create_popularity
from repro.exceptions import NoReplicaError, StrategyError
from repro.placement.cache import CacheState
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.simulation.queueing import QueueingSimulation
from repro.topology.complete import CompleteTopology
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess

TOPOLOGIES = [Torus2D(64), Grid2D(49), Ring(40), CompleteTopology(30)]

#: The queueing kernel window with its default pure-Python event loop,
#: registered for this module by conftest's ``python_commit_engine``.
PYTHON_COMMIT = "python-commit"

#: Engine list from the registry: every available engine (numba included
#: where importable), plus the pure-Python event-loop row, is compared
#: against the authoritative reference.
ENGINES = [e.name for e in registered_engines("queueing") if e.available]
ENGINES.append(PYTHON_COMMIT)
NON_REFERENCE_ENGINES = [name for name in ENGINES if name != "reference"]

pytestmark = pytest.mark.usefixtures("python_commit_engine")


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
