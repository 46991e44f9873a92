"""Peak memory and time per trial of the paper's figures at their own sizes.

``make probe-paper-memory`` runs four cases, each in a child process of its
own so that each reports its own peak resident set size (``VmHWM``):

* ``run_trials``: 16 trials of the paper's largest Figure 3 point, torus
  n = 122,500, K = 2000, M = 100, r = inf (Strategy II);
* ``figure3``: Figure 3 at ``PAPER_FIGURE3_SIZES`` with 2 trials per point;
* ``figure1``: Figure 1 (Strategy I) at ``PAPER_FIGURE1_SIZES``, K = 100,
  M in (1, 2, 10, 100), 2 trials per point;
* ``figure2``: Figure 2 (Strategy I) at n = 2025, K in (100, 1000, 2000),
  M in (1, 2, 5, 10, 20, 40, 70, 100), 2 trials per point.

A Strategy I sweep takes well under a second, so ``figure1`` and
``figure2`` run theirs 3 times and keep the fastest.  For each case the
probe records the peak RSS, the milliseconds per trial and the aggregates
(the trials' summary, or a digest of the whole result plus every point's
max-load and communication-cost means), and writes them to the untracked
``.benchmarks/timings/paper_memory.txt`` under the standard ``host:``
header; nothing goes to ``benchmarks/results/``.  The aggregates are
deterministic, so a change that should not alter outputs must reproduce
them exactly.  The script exits non-zero when a case peaks above its RSS
bound; time is recorded, not gated.  It is not part of tier-1.

Usage::

    PYTHONPATH=src python benchmarks/probe_paper_memory.py [--case NAME]

``--case`` runs one case in this process and prints its record as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

from _bench_utils import host_header, timings_dir

#: Peak RSS bound of each case, in MiB.
RSS_BOUNDS_MB = {
    "run_trials": 600.0,
    "figure3": 700.0,
    "figure1": 110.0,
    "figure2": 110.0,
}
SEED = 2017
TRIALS = 16
FIGURE_TRIALS = 2
#: Sweeps of each Strategy I figure; the fastest is recorded.
STRATEGY1_SWEEPS = 3


def _strategy2_config(num_nodes: int, cache_size: int):
    from repro.simulation.config import SimulationConfig

    return SimulationConfig(
        num_nodes=num_nodes,
        num_files=2000,
        cache_size=cache_size,
        topology="torus",
        popularity="uniform",
        placement="proportional",
        strategy="proximity_two_choice",
        strategy_params={"radius": None, "num_choices": 2},
    )


def _run_trials_case() -> dict:
    from repro.simulation.multirun import run_trials

    config = _strategy2_config(122500, 100)
    begin = perf_counter()
    result = run_trials(config, TRIALS, SEED)
    elapsed = perf_counter() - begin
    return {
        "label": f"run_trials, {TRIALS} trials @ {config.describe()}",
        "trials": TRIALS,
        "ms_per_trial": 1e3 * elapsed / TRIALS,
        "aggregates": list(result.summary().items()),
    }


def _figure_record(spec, label: str, x_name: str, sweeps: int = 1) -> dict:
    """Run ``spec`` ``sweeps`` times; the fastest sweep's time per trial."""
    from repro.experiments.runner import run_experiment

    elapsed = []
    for _ in range(sweeps):
        begin = perf_counter()
        result = run_experiment(spec, seed=SEED)
        elapsed.append(perf_counter() - begin)
    document = json.dumps(result.as_dict(), sort_keys=True).encode()
    points = [
        (
            f"{series.label}, {x_name}={point.x:g}",
            [point.max_load_mean, point.comm_cost_mean],
        )
        for series in result.series
        for point in series.points
    ]
    trials = spec.num_points * FIGURE_TRIALS
    return {
        "label": f"{label}, {FIGURE_TRIALS} trials per point",
        "trials": trials,
        "ms_per_trial": 1e3 * min(elapsed) / trials,
        "aggregates": [("result sha256", hashlib.sha256(document).hexdigest())]
        + points,
    }


def _figure3_case() -> dict:
    from repro.experiments.figures import PAPER_FIGURE3_SIZES, figure3_spec

    spec = figure3_spec(sizes=PAPER_FIGURE3_SIZES, trials=FIGURE_TRIALS)
    label = f"Figure 3 @ n in {PAPER_FIGURE3_SIZES}, K=2000, M in (1, 2, 10, 100)"
    return _figure_record(spec, label, "n")


def _figure1_case() -> dict:
    from repro.experiments.figures import PAPER_FIGURE1_SIZES, figure1_spec

    spec = figure1_spec(sizes=PAPER_FIGURE1_SIZES, trials=FIGURE_TRIALS)
    label = f"Figure 1 @ n in {PAPER_FIGURE1_SIZES}, K=100, M in (1, 2, 10, 100)"
    return _figure_record(spec, label, "n", sweeps=STRATEGY1_SWEEPS)


def _figure2_case() -> dict:
    from repro.experiments.figures import figure2_spec

    spec = figure2_spec(trials=FIGURE_TRIALS)
    label = (
        "Figure 2 @ n=2025, K in (100, 1000, 2000), "
        "M in (1, 2, 5, 10, 20, 40, 70, 100)"
    )
    return _figure_record(spec, label, "M", sweeps=STRATEGY1_SWEEPS)


CASES = {
    "run_trials": _run_trials_case,
    "figure3": _figure3_case,
    "figure1": _figure1_case,
    "figure2": _figure2_case,
}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``VmHWM`` where readable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_case(name: str) -> dict:
    record = CASES[name]()
    record["case"] = name
    record["peak_rss_mb"] = peak_rss_mb()
    record["rss_bound_mb"] = RSS_BOUNDS_MB[name]
    return record


def _report(record: dict) -> str:
    verdict = "ok" if record["peak_rss_mb"] <= record["rss_bound_mb"] else "OVER BOUND"
    return "\n".join(
        [
            f"{record['case']}: {record['label']}",
            f"  peak RSS          {record['peak_rss_mb']:.1f} MB "
            f"(bound {record['rss_bound_mb']:.0f} MB, {verdict})",
            f"  ms per trial      {record['ms_per_trial']:.1f} "
            f"({record['trials']} trials)",
            "  aggregates",
        ]
        + [f"    {key}: {json.dumps(value)}" for key, value in record["aggregates"]]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(CASES), help="run one case in-process")
    args = parser.parse_args(argv)
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return 0
    sections, over = [host_header()], []
    for name in CASES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--case", name],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        record = json.loads(done.stdout.strip().splitlines()[-1])
        sections.append(_report(record))
        print(sections[-1], flush=True)
        if record["peak_rss_mb"] > record["rss_bound_mb"]:
            over.append(name)
    (timings_dir() / "paper_memory.txt").write_text("\n\n".join(sections) + "\n")
    if over:
        print(f"peak RSS above its bound: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
