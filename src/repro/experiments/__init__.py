"""Experiment harness: figure and table reproduction.

Every figure of the paper's evaluation section has a corresponding
:class:`~repro.experiments.spec.ExperimentSpec` factory in
:mod:`repro.experiments.figures`; the generic sweep runner in
:mod:`repro.experiments.runner` executes a spec and returns an
:class:`~repro.experiments.runner.ExperimentResult` with one curve per sweep
series, which :mod:`repro.experiments.report` renders as text tables and ASCII
plots and :mod:`repro.experiments.io` persists to JSON/CSV.

Theory-versus-simulation comparison tables (the theorem checks listed in
DESIGN.md) live in :mod:`repro.experiments.tables`; dynamic supermarket-model
sweeps (arrival rate × number of choices, on the event-batched queueing
kernel) in :mod:`repro.experiments.queueing`.
"""

from repro.experiments.spec import ExperimentSpec, SweepPoint, SeriesSpec
from repro.experiments.sweep import build_grid_experiment, build_sweep, set_parameter
from repro.experiments.figures import (
    figure1_spec,
    figure2_spec,
    figure3_spec,
    figure4_spec,
    figure5_spec,
    all_figure_specs,
)
from repro.experiments.queueing import run_queueing_experiment
from repro.experiments.runner import (
    ExperimentResult,
    SeriesResult,
    run_experiment,
    run_experiments,
)
from repro.experiments.report import render_table, render_experiment, render_comparison_table
from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.io import save_experiment_result, load_experiment_result, result_to_csv
from repro.experiments.tables import (
    theorem1_table,
    theorem3_table,
    theorem4_table,
    goodness_table,
    ballsbins_table,
)

__all__ = [
    "ExperimentSpec",
    "SweepPoint",
    "SeriesSpec",
    "build_grid_experiment",
    "build_sweep",
    "set_parameter",
    "figure1_spec",
    "figure2_spec",
    "figure3_spec",
    "figure4_spec",
    "figure5_spec",
    "all_figure_specs",
    "ExperimentResult",
    "SeriesResult",
    "run_experiment",
    "run_experiments",
    "run_queueing_experiment",
    "render_table",
    "render_experiment",
    "render_comparison_table",
    "ascii_plot",
    "save_experiment_result",
    "load_experiment_result",
    "result_to_csv",
    "theorem1_table",
    "theorem3_table",
    "theorem4_table",
    "goodness_table",
    "ballsbins_table",
]
