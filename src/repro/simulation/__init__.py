"""Simulation engine: wiring topology, placement, workload and strategy together.

* :class:`~repro.simulation.config.SimulationConfig` — a declarative, fully
  picklable description of one simulation point (network size, library,
  cache size, popularity, placement, strategy, workload).
* :class:`~repro.simulation.engine.CacheNetworkSimulation` — builds the
  components and runs a single trial, returning a
  :class:`~repro.simulation.results.SimulationResult`.
* :mod:`~repro.simulation.multirun` — repeats trials with independent seeds
  and aggregates the paper's metrics with confidence intervals, optionally in
  parallel across processes (:mod:`~repro.simulation.parallel`).
* :mod:`~repro.simulation.queueing` — the continuous-time supermarket-model
  extension discussed in the paper's final section.

The engine, multirun and parallel layers are thin consumers of the session
API (:mod:`repro.session`), which owns the persistent state: placements
and streaming request service.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import CacheNetworkSimulation, run_single_trial
from repro.simulation.results import SimulationResult, MultiRunResult
from repro.simulation.metrics import (
    max_load,
    communication_cost,
    jain_fairness,
    gini_coefficient,
    load_percentile,
    normalized_max_load,
    load_summary,
)
from repro.simulation.multirun import run_trials
from repro.simulation.parallel import run_trials_parallel
from repro.simulation.queueing import QueueingSimulation, QueueingResult

__all__ = [
    "SimulationConfig",
    "CacheNetworkSimulation",
    "run_single_trial",
    "SimulationResult",
    "MultiRunResult",
    "run_trials",
    "run_trials_parallel",
    "max_load",
    "communication_cost",
    "jain_fairness",
    "gini_coefficient",
    "load_percentile",
    "normalized_max_load",
    "load_summary",
    "QueueingSimulation",
    "QueueingResult",
]
