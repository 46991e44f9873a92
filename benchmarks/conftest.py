"""Pytest fixtures for the benchmark suite (see ``_bench_utils`` for helpers)."""

from __future__ import annotations

from pathlib import Path

import pytest

from _bench_utils import results_dir, timings_dir


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """Session-scoped fixture exposing the benchmark results directory."""
    return results_dir()


@pytest.fixture(scope="session")
def timing_dir() -> Path:
    """Session-scoped fixture exposing the untracked wall-clock report directory."""
    return timings_dir()
