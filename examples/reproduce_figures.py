#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation section in one run.

This is the command-line entry point to the reproduction: it runs the
scaled-down sweep for each of the five figures (or the paper-scale sweep with
``--paper-scale``, which takes hours), prints the tables and ASCII plots, and
writes JSON/CSV/text artifacts to ``--output-dir``.

Examples
--------
Run everything at the quick default scale::

    python examples/reproduce_figures.py

Only figures 1 and 5, with more Monte-Carlo trials and parallel execution::

    python examples/reproduce_figures.py --figures 1 5 --trials 20 --parallel
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import (
    all_figure_specs,
    render_experiment,
    result_to_csv,
    run_experiments,
    save_experiment_result,
)
from repro.experiments.figures import (
    PAPER_FIGURE1_SIZES,
    PAPER_FIGURE3_SIZES,
    figure1_spec,
    figure3_spec,
    figure4_spec,
)
from repro.utils.logging import get_logger


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figures",
        nargs="+",
        type=int,
        default=[1, 2, 3, 4, 5],
        choices=[1, 2, 3, 4, 5],
        help="which paper figures to regenerate (default: all five)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="Monte-Carlo trials per sweep point"
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper-scale sweeps for figures 1, 3 and 4 (much slower)",
    )
    parser.add_argument(
        "--parallel", action="store_true", help="run trials across worker processes"
    )
    parser.add_argument("--seed", type=int, default=2017, help="parent random seed")
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path("reproduction_results"),
        help="directory for JSON/CSV/text artifacts",
    )
    return parser.parse_args()


def build_specs(args: argparse.Namespace) -> dict[str, object]:
    specs = all_figure_specs()
    if args.paper_scale:
        specs["FIG1"] = figure1_spec(sizes=PAPER_FIGURE1_SIZES)
        specs["FIG3"] = figure3_spec(sizes=PAPER_FIGURE3_SIZES)
        specs["FIG4"] = figure4_spec(sizes=PAPER_FIGURE3_SIZES)
    if args.trials is not None:
        specs = {key: spec.scaled(args.trials) for key, spec in specs.items()}
    wanted = {f"FIG{number}" for number in args.figures}
    return {key: spec for key, spec in specs.items() if key in wanted}


def main() -> None:
    args = parse_args()
    logger = get_logger("examples.reproduce", configure=True)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    specs = build_specs(args)
    for key, spec in specs.items():
        logger.info("%s: %d sweep points, %d trials each", key, spec.num_points, spec.trials)
    # Figures 3 and 4 share one sweep, which runs once for both.
    for result in run_experiments(specs.values(), seed=args.seed, parallel=args.parallel):
        key = result.experiment_id
        report = render_experiment(result)
        print("\n" + report + "\n")
        save_experiment_result(result, args.output_dir / f"{key.lower()}.json")
        result_to_csv(result, args.output_dir / f"{key.lower()}.csv")
        (args.output_dir / f"{key.lower()}.txt").write_text(report)
        logger.info("%s finished in %.1fs", key, result.elapsed_seconds)

    logger.info("artifacts written to %s", args.output_dir.resolve())


if __name__ == "__main__":
    main()
