"""Shared helpers for the benchmark suite (imported by the bench modules).

Every benchmark module regenerates one evaluation artifact of the paper
(figure or theorem-check table) at a scaled-down size, prints the resulting
table/plot to stdout (run pytest with ``-s`` to see it), and stores the raw
results as JSON/CSV under ``benchmarks/results/``.  Those artifacts are
deterministic and tracked.  Wall-clock reports (speedup tables, latency and
recovery rates) change on every run, so they go to the untracked
``.benchmarks/timings/`` instead.

Two environment variables control the fidelity:

* ``REPRO_BENCH_TRIALS`` — Monte-Carlo trials per sweep point (overrides the
  scaled-down defaults of each bench).
* ``REPRO_BENCH_PAPER_SCALE=1`` — use the paper-scale sweeps where defined
  (hours of compute; off by default).
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
TIMINGS_DIR = Path(__file__).parent.parent / ".benchmarks" / "timings"


def host_header() -> str:
    """One-line host fingerprint stamped into timing artifacts.

    Timing tables are meaningless without the machine they ran on; every
    artifact that records wall-clock numbers leads with this line.
    """
    return (
        f"host: cpu_count={os.cpu_count()}, platform={platform.platform()}, "
        f"python={platform.python_version()}"
    )


def bench_trials(default: int) -> int:
    """Trials per sweep point, overridable via ``REPRO_BENCH_TRIALS``."""
    value = os.environ.get("REPRO_BENCH_TRIALS")
    if value is None:
        return default
    return max(1, int(value))


def paper_scale() -> bool:
    """Whether to run the paper-scale sweeps (``REPRO_BENCH_PAPER_SCALE=1``)."""
    return os.environ.get("REPRO_BENCH_PAPER_SCALE", "0") == "1"


def results_dir() -> Path:
    """Directory where benchmark artifacts (JSON/CSV/text) are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def timings_dir() -> Path:
    """Untracked directory where wall-clock reports are written."""
    TIMINGS_DIR.mkdir(parents=True, exist_ok=True)
    return TIMINGS_DIR
