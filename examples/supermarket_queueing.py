#!/usr/bin/env python
"""Continuous-time extension: the proximity-aware supermarket model.

The paper analyses a static block of requests and conjectures (Section VI)
that the same load-balancing behaviour carries over to the dynamic setting in
which requests arrive as a Poisson process and each server works through a
queue.  This example runs that dynamic system on the fastest queueing engine
registered on this machine (``engine="auto"`` resolves through
``repro.backends`` — the event-batched ``batch`` engine by default, its
``@njit``-compiled variant where numba is importable; every engine is
bit-identical to the scalar reference) and demonstrates the two surfaces
added for it:

1. :func:`repro.experiments.run_queueing_experiment` — a figure-scale sweep
   over the per-server arrival rate and the number of choices ``d``, sharing
   one placement and one memoised candidate precompute across all points;
2. :func:`repro.session.open_queueing_session` — a persistent
   :class:`~repro.session.queueing.QueueingSession` serving the timeline in
   windows (queue state, busy-until vector and RNG streams persist, so the
   windowed run is bit-identical to a one-shot run over the same horizon).

The headline quantity is the maximum queue length ever observed (the dynamic
analogue of the paper's maximum load) and the mean sojourn time.

Run with ``python examples/supermarket_queueing.py``.
"""

from __future__ import annotations

from repro import FileLibrary, ProportionalPlacement, Torus2D
from repro.backends import resolve_engine_name
from repro.experiments import render_comparison_table, run_queueing_experiment
from repro.session import open_queueing_session
from repro.simulation import QueueingSimulation
from repro.workload import PoissonArrivalProcess


def sweep_demo() -> None:
    """Arrival-rate × d sweep on the event-batched kernel."""
    num_nodes = 400
    rows = run_queueing_experiment(
        num_nodes=num_nodes,
        num_files=200,
        cache_size=20,
        radius=6,
        arrival_rates=(0.5, 0.7, 0.9),
        choices=(1, 2),
        horizon=60.0,
        seed=99,
    )
    engine = resolve_engine_name("auto", "queueing")
    print(
        render_comparison_table(
            rows,
            title=(
                f"Supermarket model on n={num_nodes}, K=200, M=20, r=6, "
                f"mu=1, horizon=60 (engine={engine})"
            ),
        )
    )


def windowed_session_demo(seed: int = 99) -> None:
    """Serve one point in time windows and check it matches the one-shot run."""
    torus = Torus2D(400)
    library = FileLibrary(200)
    placement = ProportionalPlacement(20)
    arrivals = PoissonArrivalProcess(rate_per_node=0.9)

    session = open_queueing_session(
        torus, library, placement, arrivals, seed=seed, radius=6, num_choices=2
    )
    print("\nwindowed serving (same point, rate=0.9, d=2):")
    for window in session.serve_windows(window=15.0, num_windows=4):
        cumulative = window.result
        print(
            f"  window {window.window_index}: t<{window.window_end:g} "
            f"arrivals={cumulative.num_arrivals} "
            f"max queue={cumulative.max_queue_length} "
            f"mean sojourn={cumulative.mean_sojourn_time:.3f}"
        )

    one_shot = QueueingSimulation(
        topology=torus,
        library=library,
        placement=placement,
        arrivals=arrivals,
        radius=6,
        num_choices=2,
    ).run(horizon=60.0, seed=seed)
    assert session.result() == one_shot, "windowed serving must be bit-identical"
    print("  windowed result is bit-identical to the one-shot run.")


def main() -> None:
    sweep_demo()
    windowed_session_demo()
    print(
        "\nAs the arrival rate approaches the service rate, the single-choice "
        "dispatcher develops long queues at unlucky servers while the two-choice "
        "dispatcher keeps the longest queue several times shorter — the dynamic "
        "counterpart of the paper's static Theta(log log n) vs Theta(log n / "
        "log log n) separation, at identical hop cost."
    )


if __name__ == "__main__":
    main()
