"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps package functions by module and name — the
static batch commits, ``batch_commit.commit_window`` as the ``queueing``
span, ``build_group_index``, the session and journal entry points — so
renaming one of them breaks ``make perf-trace`` while every other test
passes.  Each case starts a traced benchmark worker, which installs every
wrapper and runs that workload's tiny warm-up sweep through them before it
prints ``READY``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["figure_sweep", "supermarket"])
def test_traced_worker_sets_up(workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/worker.py", workload,
            "--seed", "0", "--seconds", "0", "--trace", "1", "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "READY" in done.stdout.splitlines()
