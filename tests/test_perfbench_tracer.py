"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps package functions by module and name — the
static batch commits, ``batch_commit.commit_window`` as the ``queueing``
span, ``build_group_index``, the session and journal entry points — so
renaming one of them breaks ``make perf-trace`` while every other test
passes.  The worker cases start a traced benchmark worker, which installs
every wrapper and runs that workload's tiny warm-up sweep through them
before it prints ``READY``.  The span case checks that the wrappers also
*see* the calls: an engine table that bound the ``batch`` commit functions
before the wrappers were installed would run untraced.
"""

from __future__ import annotations

import json
import os
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


#: Installs the tracer first, then runs one Strategy II assignment and one
#: queueing window on ``batch`` and prints the recorded span names.
_SPANS_SCRIPT = """
import json

from perfbench.tracing import Tracer, install

tracer = Tracer()
install(tracer)

from repro.catalog.library import FileLibrary
from repro.placement.proportional import ProportionalPlacement
from repro.session.queueing import QueueingSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.generators import UniformOriginWorkload

topology, library = Torus2D(49), FileLibrary(20)
cache = ProportionalPlacement(3).place(topology, library, seed=0)
requests = UniformOriginWorkload(300).generate(topology, library, seed=1)
ProximityTwoChoiceStrategy(radius=2, engine="batch").assign(
    topology, cache, requests, seed=2
)
session = QueueingSession(
    topology,
    library,
    ProportionalPlacement(3),
    PoissonArrivalProcess(rate_per_node=0.7),
    radius=2.0,
    engine="batch",
    seed=3,
)
session.serve(2.0)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def test_tracer_sees_every_batch_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _SPANS_SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = set(json.loads(done.stdout.splitlines()[-1]))
    assert {"batch_commit", "queueing", "group_index"} <= names
