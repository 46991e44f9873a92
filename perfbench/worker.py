"""The in-process workloads, ``figure_sweep`` and ``supermarket``.

``run.py`` spawns this script once per measured run (and a few times more
with ``--setup-only`` to time set-up).  It sets up — imports, the first
engine-table load, and one tiny call through the same entry point, so no
process-level lazy set-up lands in the first timed operation — then prints
``READY``, waits for a ``GO`` line on stdin and measures for ``--seconds``.
Its last stdout line is a JSON object with the samples, the output checks
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402

#: Figure 5 of the paper at paper scale (torus n = 2025, K = 500, uniform
#: popularity, proportional placement, Strategy II), on an M x r grid.
FIGURE = {"radii": (2, 8, 22), "cache_sizes": (1, 10, 100), "num_nodes": 2025, "num_files": 500, "trials": 2}
#: The M of the heaviest points; each of their trials re-places 202,500 replicas.
HEAVY_CACHE = 100
#: Seeds with recorded tables in golden.json; pass k of a run uses
#: ``(seed + k) % GOLDEN_SEEDS`` so every pass is checked against one.
GOLDEN_SEEDS = 64
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: The supermarket sweep: one shape, rate x d grid, one seed, one cache.  At
#: horizon 0.5 a cold point takes about a second, short enough to repeat it
#: COLD_REPEATS times for a median that holds across runs.
SUPERMARKET = {"num_nodes": 65536, "num_files": 256, "cache_size": 8, "radius": 8, "horizon": 0.5}
RATES = (0.5, 0.7, 0.9)
CHOICES = (1, 2)
#: The cold point uses the highest rate, so its arrivals are a superset of
#: every warm point's (origin, file) keys: the origin and file streams do not
#: depend on the rate.
COLD_POINT = (0.9, 2)
COLD_REPEATS = 8
#: Passes / warm cycles a run makes even when --seconds runs out first.
MIN_UNITS = 2


class UnitSpeed:
    """Stand-in for ``common.HostSpeed`` in set-up calls: no probe, factor 1."""

    @staticmethod
    def factor() -> float:
        return 1.0


TINY_FIGURE = {"radii": (2,), "cache_sizes": (1,), "num_nodes": 100, "num_files": 10, "trials": 1}
TINY_SUPERMARKET = {"num_nodes": 64, "num_files": 16, "cache_size": 2, "radius": 2, "horizon": 1.0}


# ------------------------------------------------------------- figure_sweep
def figure_table(result, cache_sizes) -> list[list[float]]:
    """``[M, r, max-load mean, comm-cost mean]`` per sweep point."""
    return [
        [m, point.x, point.max_load_mean, point.comm_cost_mean]
        for m, series in zip(cache_sizes, result.series)
        for point in series.points
    ]


def table_problems(table, expected) -> list[str]:
    """Differences of a figure table from the recorded one.

    Max-load means are averages of integers and must match exactly;
    communication-cost means are float averages, allowed 1e-9 relative.
    """
    if expected is None:
        return ["no recorded table for this seed"]
    if len(table) != len(expected):
        return [f"{len(table)} points, expected {len(expected)}"]
    problems = []
    for row, want in zip(table, expected):
        if row[:3] != want[:3] or not math.isclose(row[3], want[3], rel_tol=1e-9):
            problems.append(f"M={row[0]} r={row[1]}: got {row[2:]}, recorded {want[2:]}")
    return problems


def figure_sweep(seed, seconds, tracer, speed, sweep=FIGURE, golden=None):
    from repro.experiments.figures import figure5_spec
    from repro.experiments.runner import run_experiment

    spec = figure5_spec(**sweep)
    trials = sweep["trials"]
    samples = {"throughput_per_s": [], "cold_s": []}
    raw = {"throughput_per_s": [], "cold_s": []}
    pass_times, problems = {True: [], False: []}, []
    attempted = failed = 0
    traced = tracer.enabled
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_UNITS * (2 if traced else 1) or perf_counter() < deadline:
        # A traced run alternates untraced and traced passes of one seed, so
        # their difference is the tracing overhead.
        tracer.enabled = traced and k % 2 == 1
        sim_seed = (seed + (k // 2 if traced else k)) % GOLDEN_SEEDS
        stamps = []
        begin = perf_counter()
        result = tracer.call(
            "pass",
            run_experiment,
            spec,
            seed=sim_seed,
            progress_callback=lambda label, x, point: stamps.append(perf_counter()),
        )
        elapsed = perf_counter() - begin
        factor = speed.factor()
        pass_times[tracer.enabled].append(elapsed * factor)
        table = figure_table(result, sweep["cache_sizes"])
        edges = [begin, *stamps]
        heavy = [(b - a) / trials for row, a, b in zip(table, edges, edges[1:]) if row[0] == HEAVY_CACHE]
        raw["throughput_per_s"].append(spec.num_points * trials / elapsed)
        raw["cold_s"] += heavy
        samples["throughput_per_s"].append(spec.num_points * trials / (elapsed * factor))
        samples["cold_s"] += [t * factor for t in heavy]
        if golden is not None:
            bad = table_problems(table, golden.get(str(sim_seed)))
            problems += [f"seed {sim_seed}: {p}" for p in bad]
            failed += len(bad)
        attempted += spec.num_points
        k += 1
    tracer.enabled = traced
    out = {"samples": samples, "raw": raw, "attempted": attempted, "failed": failed, "problems": problems}
    if traced:
        seconds_by_layer, wall = tracing.self_seconds(tracer.spans, phase="cold")
        out["layers"] = {
            **tracing.phase_metrics("cold", seconds_by_layer, wall, tracer.counts),
            **tracing.commit_metrics(tracer.spans, tracer.counts),
            "trace.overhead_share": common.median(pass_times[True]) / common.median(pass_times[False]) - 1.0,
        }
    return out


# -------------------------------------------------------------- supermarket
def arrival_counts(seed, size) -> dict[float, int]:
    """Arrivals in ``[0, horizon)`` per rate, drawn through the public stream.

    ``QueueingSession`` splits its seed into (placement, arrivals, dispatch)
    children; the arrival stream of a point is therefore reproducible from
    the arrivals child alone.
    """
    from repro.catalog.library import FileLibrary
    from repro.catalog.popularity import create_popularity
    from repro.rng import spawn_seeds
    from repro.topology.factory import create_topology
    from repro.workload.arrivals import PoissonArrivalProcess

    topology = create_topology("torus", size["num_nodes"])
    library = FileLibrary(size["num_files"], create_popularity("uniform", size["num_files"]))
    counts = {}
    for rate in RATES:
        _, arrivals_seed, _ = spawn_seeds(seed, 3)
        stream = PoissonArrivalProcess(rate_per_node=rate).stream(topology, library, arrivals_seed)
        counts[rate] = int(stream.take_until(size["horizon"])[0].size)
    return counts


def supermarket_problems(cold_rows, cycles, arrivals, size) -> list[str]:
    """Output checks of one supermarket run (see ``supermarket``)."""
    problems = []
    cold = cold_rows[0]
    if any(row != cold for row in cold_rows):
        problems.append("cold points of one seed differ")
    for index, rows in enumerate(cycles):
        if rows[COLD_POINT] != cold:
            problems.append(f"cycle {index}: store-warm {COLD_POINT} row differs from the cold row")
        if rows != cycles[0]:
            problems.append(f"cycle {index}: rows differ from cycle 0")
    expected = {rate: size["num_nodes"] * rate * size["horizon"] for rate in RATES}
    for rate, count in arrivals.items():
        if abs(count - expected[rate]) > 6.0 * math.sqrt(expected[rate]):
            problems.append(f"rate {rate}: {count} arrivals, Poisson mean {expected[rate]:.0f}")
    for (rate, d), row in cycles[0].items() if cycles else ():
        if not 0 < row["completed"] <= arrivals[rate]:
            problems.append(f"({rate}, {d}): {row['completed']} completed of {arrivals[rate]} arrivals")
    return problems


def supermarket(seed, seconds, tracer, speed, size=SUPERMARKET):
    from repro.experiments.queueing import run_queueing_experiment
    from repro.session.artifacts import ArtifactCache

    def point(rate, d, cache):
        return run_queueing_experiment(arrival_rates=[rate], choices=[d], seed=seed, artifacts=cache, **size)[0]

    start = perf_counter()
    traced = tracer.enabled
    tracer.phase = "cold"
    cold_raw, cold_rows = [], []
    cold_scaled = []
    for _ in range(COLD_REPEATS):
        cache = ArtifactCache()
        begin = perf_counter()
        cold_rows.append(tracer.call("point", point, *COLD_POINT, cache))
        cold_raw.append(perf_counter() - begin)
        cold_scaled.append(cold_raw[-1] * speed.factor())
    # The warm points reuse the last cold point's cache: its placement and
    # every (origin, file) candidate row of the sweep.
    tracer.phase = "warm"
    cycles, cycle_raw, cycle_times = [], [], {True: [], False: []}
    deadline = start + seconds
    while len(cycles) < MIN_UNITS * (2 if traced else 1) or perf_counter() < deadline:
        tracer.enabled = traced and len(cycles) % 2 == 1
        begin = perf_counter()
        cycles.append({(rate, d): tracer.call("point", point, rate, d, cache) for rate in RATES for d in CHOICES})
        cycle_raw.append(perf_counter() - begin)
        cycle_times[tracer.enabled].append(cycle_raw[-1] * speed.factor())
    tracer.enabled = False
    arrivals = arrival_counts(seed, size)
    tracer.enabled = traced

    per_cycle = sum(arrivals[rate] for rate in RATES for _ in CHOICES)
    problems = supermarket_problems(cold_rows, cycles, arrivals, size)
    out = {
        "samples": {
            "throughput_per_s": [per_cycle / t for t in cycle_times[False] + cycle_times[True]],
            "cold_s": cold_scaled,
        },
        "raw": {"throughput_per_s": [per_cycle / t for t in cycle_raw], "cold_s": cold_raw},
        "attempted": COLD_REPEATS + len(cycles) * len(RATES) * len(CHOICES),
        "failed": len(problems),
        "problems": problems,
    }
    if traced:
        layers = {}
        for phase in ("cold", "warm"):
            seconds_by_layer, wall = tracing.self_seconds(tracer.spans, phase=phase)
            layers.update(tracing.phase_metrics(phase, seconds_by_layer, wall, tracer.counts))
        layers.update(tracing.commit_metrics(tracer.spans, tracer.counts))
        layers["trace.overhead_share"] = (
            common.median(cycle_times[True]) / common.median(cycle_times[False]) - 1.0
        )
        out["layers"] = layers
    return out


# --------------------------------------------------------------------- main
def setup(workload: str, traced: bool) -> tracing.Tracer:
    """Everything a process pays once before its first timed operation."""
    tracer = tracing.Tracer(enabled=traced)
    if traced:
        tracing.install(tracer)
    if workload == "figure_sweep":
        figure_sweep(0, 0.0, tracer, UnitSpeed, sweep=TINY_FIGURE)
    else:
        supermarket(0, 0.0, tracer, UnitSpeed, size=TINY_SUPERMARKET)
    tracer.spans.clear()
    tracer.counts = Counter()
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("figure_sweep", "supermarket"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    common.require_source()

    tracer = setup(args.workload, bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()  # GO: the parent has finished timing the set-up
    speed = common.HostSpeed()
    if args.workload == "figure_sweep":
        golden = json.loads(GOLDEN.read_text())["tables"]
        out = figure_sweep(args.seed, args.seconds, tracer, speed, golden=golden)
    else:
        out = supermarket(args.seed, args.seconds, tracer, speed)
    out["peak_rss_mb"] = common.peak_rss_mb(os.getpid())
    out["provenance"] = common.provenance(args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
