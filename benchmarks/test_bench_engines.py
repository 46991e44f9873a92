"""Cross-engine benchmark: every registered backend on both stacks at n = 4096.

``make bench-engines`` times each *available* engine of the registry on

* the static stack — Strategy II assignment over one figure-scale request
  block (n = 4096 servers, m = 5 n requests, radius 8), and
* the queueing stack — the supermarket model at per-server utilisation 0.9
  over a horizon of ~7 × 10⁴ arrivals,

asserts all engines bit-identical as a by-product, and writes the timing
table to ``.benchmarks/timings/engine_speedup.txt``.  Where numba is
importable, the compiled queueing event loop is additionally *gated*: it must
beat ``batch``, whose queueing commit is the pure-Python event loop, by
≥ 1.5× at this scale (compilation time excluded — the first run warms the jit
cache).  ``batch``'s exact route for large d = 1 and d = 2 windows does not
take this one: its ~74,000 arrivals touch fewer than m / 16 of the 4096
servers, so the gate still times the loop against the compiled loop.
"""

from __future__ import annotations

import importlib.util
import time

import numpy as np
import pytest

from _bench_utils import host_header
from repro.backends.registry import available_engines
from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.session.artifacts import ArtifactCache
from repro.simulation.queueing import QueueingSimulation
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.generators import UniformOriginWorkload

NUM_NODES = 4096
NUM_FILES = 128
CACHE_SIZE = 8
RADIUS = 8
NUM_REQUESTS = 5 * NUM_NODES
RATE = 0.9  # per-server utilisation at mu = 1
HORIZON = 20.0
SEED = 2

NUMBA_MISSING = importlib.util.find_spec("numba") is None


def _best_of(fn, repeats=3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def static_system():
    topology = Torus2D(NUM_NODES)
    library = FileLibrary(NUM_FILES)
    cache = PartitionPlacement(CACHE_SIZE).place(topology, library, seed=0)
    requests = UniformOriginWorkload(NUM_REQUESTS).generate(topology, library, seed=1)
    return topology, cache, requests


@pytest.fixture(scope="module")
def supermarket():
    return QueueingSimulation(
        topology=Torus2D(NUM_NODES),
        library=FileLibrary(NUM_FILES),
        placement=PartitionPlacement(CACHE_SIZE),
        arrivals=PoissonArrivalProcess(rate_per_node=RATE),
        radius=RADIUS,
        artifacts=ArtifactCache(),
    )


@pytest.fixture(scope="module")
def engine_report(static_system, supermarket):
    """Time every available engine once per stack; shared by the tests below."""
    topology, cache, requests = static_system
    timings: dict[str, dict[str, float]] = {"static": {}, "queueing": {}}

    static_results = {}
    for engine in available_engines("assignment"):
        strategy = ProximityTwoChoiceStrategy(radius=RADIUS, engine=engine)
        strategy.assign(topology, cache, requests, seed=SEED)  # warm-up / jit
        repeats = 1 if engine == "reference" else 3
        timings["static"][engine] = _best_of(
            lambda: static_results.__setitem__(
                engine, strategy.assign(topology, cache, requests, seed=SEED)
            ),
            repeats,
        )

    queueing_results = {}
    for engine in available_engines("queueing"):
        supermarket.run(HORIZON, seed=SEED, engine=engine)  # warm-up / jit
        repeats = 1 if engine == "reference" else 3
        timings["queueing"][engine] = _best_of(
            lambda: queueing_results.__setitem__(
                engine, supermarket.run(HORIZON, seed=SEED, engine=engine)
            ),
            repeats,
        )

    # Bit-identity across engines is a precondition of comparing their speed.
    reference = static_results["reference"]
    for engine, result in static_results.items():
        np.testing.assert_array_equal(
            result.servers, reference.servers, err_msg=f"static {engine} diverged"
        )
    for engine, result in queueing_results.items():
        assert result == queueing_results["reference"], f"queueing {engine} diverged"

    return timings, queueing_results["reference"].num_arrivals


def _render(timings: dict[str, dict[str, float]], num_arrivals: int) -> str:
    lines = [
        host_header(),
        f"engine comparison @ n={NUM_NODES}, K={NUM_FILES}, M={CACHE_SIZE}, r={RADIUS}",
        f"static: strategy II, m={NUM_REQUESTS} requests | "
        f"queueing: rate={RATE}, mu=1, horizon={HORIZON:g} ({num_arrivals} arrivals)",
        "",
    ]
    for stack, rows in timings.items():
        base = rows["reference"]
        lines.append(f"[{stack}]")
        for engine, seconds in sorted(rows.items(), key=lambda kv: kv[1]):
            lines.append(
                f"{engine:<12} {seconds:8.3f}s   {base / seconds:5.1f}x vs reference"
            )
        if "numba" not in rows:
            lines.append("numba        (unavailable: numba not importable)")
        lines.append("")
    return "\n".join(lines)


def test_bench_engines_report(engine_report, timing_dir):
    """Write the cross-engine timing table; every engine already bit-checked."""
    timings, num_arrivals = engine_report
    report = _render(timings, num_arrivals)
    print("\n" + report)
    (timing_dir / "engine_speedup.txt").write_text(report)
    for stack in ("static", "queueing"):
        assert "reference" in timings[stack] and "batch" in timings[stack]


@pytest.mark.skipif(NUMBA_MISSING, reason="numba not importable")
def test_bench_engines_numba_queueing_gate(engine_report):
    """The compiled event loop must beat the Python one (``batch``, whose
    route leaves this window on the loop) ≥ 1.5× at n = 4096."""
    timings, _ = engine_report
    speedup = timings["queueing"]["batch"] / timings["queueing"]["numba"]
    assert speedup >= 1.5, (
        f"numba queueing engine only {speedup:.2f}x over batch's Python loop at "
        f"n={NUM_NODES}, utilisation {RATE}"
    )
