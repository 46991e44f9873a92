"""Text rendering of experiment results.

Reports are plain text (monospace tables plus optional ASCII plots) so they
can be printed from benchmarks, written into EXPERIMENTS.md, and diffed in
version control.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.runner import ExperimentResult

__all__ = ["render_table", "render_experiment", "render_comparison_table"]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple monospace table with a header separator row."""
    if not headers:
        raise ValueError("headers must be non-empty")
    formatted_rows = [[_format_cell(cell) for cell in row] for row in rows]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [len(str(h)) for h in headers]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))

    lines = [fmt([str(h) for h in headers]), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in formatted_rows)
    return "\n".join(lines)


def render_experiment(result: ExperimentResult, *, plot: bool = True) -> str:
    """Render an experiment result: per-series tables plus an ASCII plot.

    For parametric experiments (Figure 5) the plot uses the measured
    communication cost on the x axis, matching the paper's presentation.
    """
    parametric = bool(result.extra.get("parametric", False))
    # The resolved engine name is part of the header so text artifacts are
    # self-describing about how their numbers were computed.
    engine = result.extra.get("engine")
    engine_note = f" [engine={engine}]" if engine else ""
    sections: list[str] = [f"== {result.experiment_id}: {result.title}{engine_note} =="]
    headers = [
        result.x_label,
        "max load",
        "ci",
        "comm cost",
        "ci",
        "fallback",
        "pred L",
        "pred C",
    ]
    for series in result.series:
        rows = []
        for p in series.points:
            rows.append(
                [
                    p.x,
                    p.max_load_mean,
                    f"[{p.max_load_ci_low:.2f},{p.max_load_ci_high:.2f}]",
                    p.comm_cost_mean,
                    f"[{p.comm_cost_ci_low:.2f},{p.comm_cost_ci_high:.2f}]",
                    p.fallback_rate,
                    p.predicted_max_load,
                    p.predicted_comm_cost,
                ]
            )
        sections.append(f"-- {series.label} --\n" + render_table(headers, rows))

    if plot:
        plot_series = {}
        for series in result.series:
            if parametric:
                xs = series.metric("communication_cost")
            else:
                xs = series.x_values()
            ys = series.metric(result.y_metric)
            plot_series[series.label] = (xs, ys)
        x_label = result.x_label if not parametric else "average cost (# of hops)"
        sections.append(
            ascii_plot(
                plot_series,
                x_label=x_label,
                y_label=result.y_label,
                title=result.title,
            )
        )
    sections.append(f"(trials per point: {result.trials})")
    return "\n\n".join(sections)


def render_comparison_table(
    rows: Sequence[dict[str, object]],
    *,
    title: str = "",
    columns: Sequence[str] | None = None,
) -> str:
    """Render a list of dictionaries (e.g. theory-vs-measured rows) as a table."""
    if not rows:
        raise ValueError("rows must be non-empty")
    if columns is None:
        columns = list(rows[0].keys())
    body = render_table(list(columns), [[row.get(col, "") for col in columns] for row in rows])
    return f"== {title} ==\n{body}" if title else body
