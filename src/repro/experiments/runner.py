"""Generic experiment runner: execute an ExperimentSpec and collect curves."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.backends.registry import resolve_engine_name
from repro.exceptions import ExperimentError
from repro.experiments.spec import ExperimentSpec
from repro.rng import SeedLike, spawn_seeds
from repro.session.artifacts import ArtifactCache
from repro.simulation.multirun import run_trials
from repro.simulation.parallel import run_trials_parallel
from repro.simulation.results import MultiRunResult
from repro.theory.predictions import predict
from repro.utils.logging import get_logger
from repro.utils.timer import Timer

__all__ = [
    "PointResult",
    "SeriesResult",
    "ExperimentResult",
    "run_experiment",
    "run_experiments",
]

_LOGGER = get_logger("experiments")


@dataclass(frozen=True)
class PointResult:
    """Measured metrics of one sweep point (averaged over trials)."""

    x: float
    max_load_mean: float
    max_load_ci_low: float
    max_load_ci_high: float
    comm_cost_mean: float
    comm_cost_ci_low: float
    comm_cost_ci_high: float
    fallback_rate: float
    predicted_max_load: float
    predicted_comm_cost: float
    num_trials: int

    def as_dict(self) -> dict[str, float]:
        """Plain-dict representation (used for JSON/CSV export)."""
        return {
            "x": self.x,
            "max_load_mean": self.max_load_mean,
            "max_load_ci_low": self.max_load_ci_low,
            "max_load_ci_high": self.max_load_ci_high,
            "comm_cost_mean": self.comm_cost_mean,
            "comm_cost_ci_low": self.comm_cost_ci_low,
            "comm_cost_ci_high": self.comm_cost_ci_high,
            "fallback_rate": self.fallback_rate,
            "predicted_max_load": self.predicted_max_load,
            "predicted_comm_cost": self.predicted_comm_cost,
            "num_trials": self.num_trials,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PointResult":
        """Inverse of :meth:`as_dict`."""
        return cls(
            x=float(data["x"]),
            max_load_mean=float(data["max_load_mean"]),
            max_load_ci_low=float(data["max_load_ci_low"]),
            max_load_ci_high=float(data["max_load_ci_high"]),
            comm_cost_mean=float(data["comm_cost_mean"]),
            comm_cost_ci_low=float(data["comm_cost_ci_low"]),
            comm_cost_ci_high=float(data["comm_cost_ci_high"]),
            fallback_rate=float(data["fallback_rate"]),
            predicted_max_load=float(data["predicted_max_load"]),
            predicted_comm_cost=float(data["predicted_comm_cost"]),
            num_trials=int(data["num_trials"]),
        )


@dataclass(frozen=True)
class SeriesResult:
    """Measured curve for one series of the experiment."""

    label: str
    points: tuple[PointResult, ...]

    def x_values(self) -> np.ndarray:
        """Sweep x-values of the series."""
        return np.array([p.x for p in self.points], dtype=np.float64)

    def metric(self, name: str) -> np.ndarray:
        """Per-point values of a metric (``max_load``, ``communication_cost``, ...)."""
        mapping = {
            "max_load": "max_load_mean",
            "communication_cost": "comm_cost_mean",
            "fallback_rate": "fallback_rate",
            "predicted_max_load": "predicted_max_load",
            "predicted_comm_cost": "predicted_comm_cost",
        }
        attribute = mapping.get(name, name)
        try:
            return np.array([getattr(p, attribute) for p in self.points], dtype=np.float64)
        except AttributeError as exc:
            raise ExperimentError(f"unknown metric {name!r}") from exc

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict representation."""
        return {"label": self.label, "points": [p.as_dict() for p in self.points]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeriesResult":
        """Inverse of :meth:`as_dict`."""
        return cls(
            label=str(data["label"]),
            points=tuple(PointResult.from_dict(p) for p in data["points"]),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """All measured curves of one experiment plus its provenance."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    y_metric: str
    series: tuple[SeriesResult, ...]
    trials: int
    elapsed_seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def series_by_label(self, label: str) -> SeriesResult:
        """Look up a series by its label."""
        for series in self.series:
            if series.label == label:
                return series
        raise ExperimentError(f"no series labelled {label!r} in experiment {self.experiment_id}")

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict representation.

        ``elapsed_seconds`` is left out: saved results then change only when
        the measured curves do, not with the speed of the host.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "y_metric": self.y_metric,
            "series": [s.as_dict() for s in self.series],
            "trials": self.trials,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`as_dict`; still reads an ``elapsed_seconds`` field."""
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            x_label=str(data["x_label"]),
            y_label=str(data["y_label"]),
            y_metric=str(data["y_metric"]),
            series=tuple(SeriesResult.from_dict(s) for s in data["series"]),
            trials=int(data["trials"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            extra=dict(data.get("extra", {})),
        )


def _point_result(x: float, multirun: MultiRunResult, config) -> PointResult:
    prediction = predict(config)
    max_load = multirun.max_load_summary()
    comm = multirun.communication_cost_summary()
    return PointResult(
        x=float(x),
        max_load_mean=max_load.mean,
        max_load_ci_low=max_load.ci_low,
        max_load_ci_high=max_load.ci_high,
        comm_cost_mean=comm.mean,
        comm_cost_ci_low=comm.ci_low,
        comm_cost_ci_high=comm.ci_high,
        fallback_rate=multirun.mean_fallback_rate,
        predicted_max_load=prediction.max_load_order,
        predicted_comm_cost=prediction.comm_cost_order,
        num_trials=multirun.num_trials,
    )


def run_experiment(
    spec: ExperimentSpec,
    seed: SeedLike = None,
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    assignment_engine: str | None = None,
    progress_callback: Callable[[str, float, PointResult], None] | None = None,
) -> ExperimentResult:
    """Execute every sweep point of ``spec`` and return the measured curves.

    Parameters
    ----------
    spec:
        The experiment to run.
    seed:
        Parent seed; every sweep point receives an independent child seed so
        the experiment is reproducible point-by-point.
    parallel:
        Run the trials of each point across processes (worth it only when the
        per-trial cost is large relative to process start-up).
    max_workers:
        Worker count for the parallel path.
    assignment_engine:
        Optional execution-engine override for every sweep point — any spec
        the backend registry resolves.  Resolved **once**, here at the
        experiment boundary, so all points (and, on the parallel path, all
        workers) run the same concrete engine; the resolved name is recorded
        in the result's ``extra["engine"]`` and rendered in report headers.
    progress_callback:
        Optional callable invoked as ``callback(series_label, x, point_result)``
        after every completed sweep point.
    """
    engine_name = (
        None
        if assignment_engine is None
        else resolve_engine_name(assignment_engine, "assignment")
    )
    point_seeds = spawn_seeds(seed, spec.num_points)
    seed_iter = iter(point_seeds)
    series_results: list[SeriesResult] = []
    # Sweep points frequently share (topology, placement) while varying the
    # strategy or seed; one artifact cache across the whole experiment lets
    # those points reuse placements.  The parallel path rebuilds per worker
    # batch instead (caches don't cross process boundaries).
    artifacts = ArtifactCache()
    with Timer() as timer:
        for series in spec.series:
            point_results: list[PointResult] = []
            for point in series.points:
                child = next(seed_iter)
                if parallel:
                    multirun = run_trials_parallel(
                        point.config,
                        spec.trials,
                        child,
                        max_workers=max_workers,
                        assignment_engine=engine_name,
                    )
                else:
                    multirun = run_trials(
                        point.config,
                        spec.trials,
                        child,
                        artifacts=artifacts,
                        assignment_engine=engine_name,
                    )
                result = _point_result(point.x, multirun, point.config)
                point_results.append(result)
                _LOGGER.debug(
                    "%s %s x=%s L=%.3f C=%.3f",
                    spec.experiment_id,
                    series.label,
                    point.x,
                    result.max_load_mean,
                    result.comm_cost_mean,
                )
                if progress_callback is not None:
                    progress_callback(series.label, point.x, result)
            series_results.append(SeriesResult(label=series.label, points=tuple(point_results)))
    # Record the engine the experiment actually ran on so report headers and
    # JSON artifacts are self-describing: the override when given, otherwise
    # what the point configs themselves resolve to on this machine ("mixed"
    # in the unusual case of points pinning different engines).
    extra = dict(spec.extra)
    if engine_name is not None:
        extra["engine"] = engine_name
    else:
        resolved = {
            point.config.resolved_engine()
            for series in spec.series
            for point in series.points
        }
        extra["engine"] = resolved.pop() if len(resolved) == 1 else "mixed"
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        y_metric=spec.y_metric,
        series=tuple(series_results),
        trials=spec.trials,
        elapsed_seconds=timer.elapsed,
        extra=extra,
    )


def run_experiments(
    specs: Iterable[ExperimentSpec], seed: SeedLike = None, **options: Any
) -> Iterator[ExperimentResult]:
    """:func:`run_experiment` for each of ``specs``, one run per distinct sweep.

    Specs with equal ``series`` and ``trials`` share one run: Figures 3 and 4
    plot two metrics of one sweep.  Each result is that run under its own
    spec's id, titles, y metric and ``extra``; with an integer ``seed`` it
    equals what a separate ``run_experiment(spec, seed, **options)`` returns.
    ``options`` are :func:`run_experiment`'s keywords.  Results are yielded
    in ``specs`` order as they become available.
    """
    runs: list[tuple[ExperimentSpec, ExperimentResult]] = []
    for spec in specs:
        run = next(
            (
                done
                for ran, done in runs
                if ran.series == spec.series and ran.trials == spec.trials
            ),
            None,
        )
        if run is None:
            run = run_experiment(spec, seed, **options)
            runs.append((spec, run))
        yield replace(
            run,
            experiment_id=spec.experiment_id,
            title=spec.title,
            x_label=spec.x_label,
            y_label=spec.y_label,
            y_metric=spec.y_metric,
            extra={**spec.extra, "engine": run.extra["engine"]},
        )
