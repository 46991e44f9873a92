"""Micro-benchmarks of the session layer.

Running many trials of one configuration through
:func:`~repro.simulation.multirun.run_trials` builds the components once and
shares one :class:`~repro.session.artifacts.ArtifactCache`, so a
deterministic placement is placed a single time.  Each window builds its own
group index: at the group hit shares static streams see, a memo of the rows
measured slower than the rebuild.  That every shared trial equals its
per-trial rebuild is checked, without a clock, in
``tests/test_simulation_results_multirun.py``.

All tests carry the ``bench_smoke`` marker so ``make bench-smoke`` exercises
the session code paths without pytest-benchmark calibration overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import spawn_seeds
from repro.session import open_session
from repro.simulation.config import SimulationConfig

pytestmark = pytest.mark.bench_smoke

#: A same-config multi-trial point with a deterministic (partition) placement
#: and a proximity constraint, so every trial shares one placed state.
REUSE_CONFIG = SimulationConfig(
    num_nodes=1024,
    num_files=32,
    cache_size=8,
    topology="torus",
    popularity="zipf",
    popularity_params={"gamma": 1.3},
    placement="partition",
    strategy="proximity_two_choice",
    strategy_params={"radius": 8},
    num_requests=8192,
)
REUSE_SEED = 42


def test_bench_session_placement_shared_across_trials():
    """A deterministic placement is placed once for all trials."""
    from repro.simulation.engine import CacheNetworkSimulation

    simulation = CacheNetworkSimulation.from_config(REUSE_CONFIG)
    for child in spawn_seeds(REUSE_SEED, 3):
        simulation.run(child)
    assert simulation.artifacts.stats()["placement_hits"] >= 2


def test_bench_session_windowed_serving(benchmark):
    """Track the cost of streaming a workload through one warm session."""
    session = open_session(REUSE_CONFIG, seed=REUSE_SEED)
    batch = session.generate_workload()
    windows = [
        batch.subset(np.arange(start, min(start + 512, batch.num_requests)))
        for start in range(0, batch.num_requests, 512)
    ]

    def serve_all():
        session.reset()
        for window in windows:
            session.serve(window, resolve_uncached=False)

    serve_all()  # builds the cache's lazy membership bitset untimed
    benchmark(serve_all)
