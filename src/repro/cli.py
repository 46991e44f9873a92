"""Command-line interface for the reproduction package.

Three subcommands cover the common workflows without writing Python:

``repro simulate``
    Run one simulation point (given ``n``, ``K``, ``M``, strategy, radius, …)
    for a number of trials and print the measured metrics next to the paper's
    predictions.

``repro figures``
    Regenerate one or more of the paper's figures (scaled-down sweeps by
    default) and write JSON/CSV/text artifacts.

``repro tables``
    Produce the theorem-check tables (TAB-T1, TAB-T3, TAB-T4, TAB-H, TAB-BB of
    DESIGN.md).

``repro stream``
    Open a persistent session (topology + placement + kernel group index
    built once) and serve a continuous stream of request windows against it,
    reporting cumulative load/cost metrics per window — the dynamic,
    supermarket-style view of the same system ``repro simulate`` measures in
    one shot.

``repro supermarket``
    Run the continuous-time queueing (supermarket-model) sweep on the
    event-batched queueing kernel: a grid over the per-server arrival rate
    and the number of choices ``d``, or — with ``--stream-windows`` — one
    persistent :class:`~repro.session.queueing.QueueingSession` served
    window by window with per-window statistics.

``repro engines``
    List the execution backends registered for each engine family, their
    ``"auto"`` resolution order, and — for backends that cannot run here —
    the reason they are skipped (e.g. ``numba: not importable``).  With
    ``--json``, emit the same information as a machine-readable document
    (the payload ``GET /healthz`` embeds).

``repro serve``
    Open one live session (static d-choice or queueing) and serve placement
    decisions from it over async HTTP — ``POST /dispatch``,
    ``POST /dispatch/batch``, ``GET /snapshot``, ``GET /healthz``,
    ``GET /metrics`` (see :mod:`repro.service`).

``repro loadgen``
    Drive an open-loop Poisson load (optionally time-varying via thinning,
    Zipf file popularity) against a running ``repro serve`` instance and
    report the achieved rate plus client-side latency quantiles.

Engine selection is one shared ``--engine`` flag (default ``auto``: the
fastest available backend), accepted by every simulating subcommand and
resolved once through :mod:`repro.backends.registry` — the single owner of
engine names and availability.

The CLI is also installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.backends.registry import (
    FAMILIES,
    registered_engines,
    resolve_engine_name,
)
from repro.experiments.figures import all_figure_specs
from repro.experiments.io import result_to_csv, save_experiment_result
from repro.experiments.report import render_comparison_table, render_experiment
from repro.experiments.queueing import run_queueing_experiment
from repro.experiments.runner import run_experiment
from repro.experiments.tables import (
    ballsbins_table,
    goodness_table,
    theorem1_table,
    theorem3_table,
    theorem4_table,
)
from repro.session import open_session
from repro.simulation.config import SimulationConfig
from repro.simulation.multirun import run_trials
from repro.simulation.parallel import run_trials_parallel
from repro.strategies.factory import resolve_strategy_name
from repro.theory.predictions import predict

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Proximity-Aware Balanced Allocations in Cache Networks'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # One shared --engine flag for every simulating subcommand; names are
    # validated by the backend registry at run time (not via argparse
    # choices), so registering a backend automatically extends the CLI.
    engine_flag = argparse.ArgumentParser(add_help=False)
    engine_flag.add_argument(
        "--engine",
        default="auto",
        help=(
            "execution engine (default: auto = fastest available; "
            "see 'repro engines' for what is registered)"
        ),
    )

    simulate = subparsers.add_parser(
        "simulate", help="run one simulation point", parents=[engine_flag]
    )
    simulate.add_argument("--nodes", type=int, required=True, help="number of servers n")
    simulate.add_argument("--files", type=int, required=True, help="library size K")
    simulate.add_argument("--cache", type=int, required=True, help="cache slots per server M")
    simulate.add_argument(
        "--strategy",
        default="proximity_two_choice",
        help="assignment strategy name or alias (default: proximity_two_choice)",
    )
    simulate.add_argument(
        "--radius",
        type=float,
        default=None,
        help="proximity radius r for Strategy II (default: unconstrained)",
    )
    simulate.add_argument("--choices", type=int, default=2, help="number of choices d")
    simulate.add_argument("--topology", default="torus", help="topology name (default: torus)")
    simulate.add_argument(
        "--popularity", default="uniform", help="popularity family (uniform or zipf)"
    )
    simulate.add_argument("--gamma", type=float, default=None, help="Zipf exponent")
    simulate.add_argument("--trials", type=int, default=10, help="number of trials")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--parallel", action="store_true", help="run trials in parallel")

    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures", parents=[engine_flag]
    )
    figures.add_argument(
        "--figures",
        nargs="+",
        type=int,
        default=[1, 2, 3, 4, 5],
        choices=[1, 2, 3, 4, 5],
        help="which figures to regenerate (default: all)",
    )
    figures.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    figures.add_argument("--seed", type=int, default=2017, help="random seed")
    figures.add_argument("--parallel", action="store_true", help="run trials in parallel")
    figures.add_argument(
        "--output-dir",
        type=Path,
        default=Path("reproduction_results"),
        help="directory for JSON/CSV/text artifacts",
    )
    figures.add_argument("--no-plot", action="store_true", help="omit the ASCII plots")

    stream = subparsers.add_parser(
        "stream",
        help="serve a windowed request stream over one persistent session",
        parents=[engine_flag],
    )
    stream.add_argument("--nodes", type=int, required=True, help="number of servers n")
    stream.add_argument("--files", type=int, required=True, help="library size K")
    stream.add_argument("--cache", type=int, required=True, help="cache slots per server M")
    stream.add_argument(
        "--strategy",
        default="proximity_two_choice",
        help="assignment strategy name or alias (default: proximity_two_choice)",
    )
    stream.add_argument(
        "--radius",
        type=float,
        default=None,
        help="proximity radius r for Strategy II (default: unconstrained)",
    )
    stream.add_argument("--choices", type=int, default=2, help="number of choices d")
    stream.add_argument("--topology", default="torus", help="topology name (default: torus)")
    stream.add_argument(
        "--popularity", default="uniform", help="popularity family (uniform or zipf)"
    )
    stream.add_argument("--gamma", type=float, default=None, help="Zipf exponent")
    stream.add_argument(
        "--placement", default="proportional", help="placement name (default: proportional)"
    )
    stream.add_argument(
        "--window", type=int, default=None, help="requests per window (default: n)"
    )
    stream.add_argument("--windows", type=int, default=10, help="number of windows")
    stream.add_argument("--seed", type=int, default=0, help="random seed")

    supermarket = subparsers.add_parser(
        "supermarket",
        help="run the continuous-time queueing (supermarket model) sweep",
        parents=[engine_flag],
    )
    supermarket.add_argument("--nodes", type=int, required=True, help="number of servers n")
    supermarket.add_argument("--files", type=int, required=True, help="library size K")
    supermarket.add_argument("--cache", type=int, required=True, help="cache slots per server M")
    supermarket.add_argument(
        "--topology", default="torus", help="topology name (default: torus)"
    )
    supermarket.add_argument(
        "--popularity", default="uniform", help="popularity family (uniform or zipf)"
    )
    supermarket.add_argument("--gamma", type=float, default=None, help="Zipf exponent")
    supermarket.add_argument(
        "--placement", default="proportional", help="placement name (default: proportional)"
    )
    supermarket.add_argument(
        "--radius",
        type=float,
        default=None,
        help="proximity radius r for candidate replicas (default: unconstrained)",
    )
    supermarket.add_argument(
        "--choices",
        nargs="+",
        type=int,
        default=[1, 2],
        help="numbers of choices d to sweep (default: 1 2)",
    )
    supermarket.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=[0.5, 0.7, 0.9],
        help="per-server arrival rates to sweep (default: 0.5 0.7 0.9)",
    )
    supermarket.add_argument(
        "--mu", type=float, default=1.0, help="per-server service rate (default: 1.0)"
    )
    supermarket.add_argument(
        "--horizon", type=float, default=60.0, help="simulated time horizon (default: 60)"
    )
    supermarket.add_argument(
        "--weights",
        default="uniform",
        choices=["uniform", "popularity"],
        help="candidate sampling bias (default: uniform)",
    )
    supermarket.add_argument(
        "--stream-windows",
        type=int,
        default=None,
        help="serve one session in this many equal windows instead of sweeping",
    )
    supermarket.add_argument("--seed", type=int, default=0, help="random seed")

    engines = subparsers.add_parser(
        "engines", help="list registered execution backends and their availability"
    )
    engines.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve d-choice placement decisions from a live session over HTTP",
        parents=[engine_flag],
    )
    serve.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="number of servers n (required unless --recover)",
    )
    serve.add_argument(
        "--files", type=int, default=None, help="library size K (required unless --recover)"
    )
    serve.add_argument(
        "--cache",
        type=int,
        default=None,
        help="cache slots per server M (required unless --recover)",
    )
    serve.add_argument(
        "--queueing",
        action="store_true",
        help="serve a queueing (supermarket-model) session instead of static d-choice",
    )
    serve.add_argument(
        "--strategy",
        default="proximity_two_choice",
        help="assignment strategy for static sessions (default: proximity_two_choice)",
    )
    serve.add_argument(
        "--radius",
        type=float,
        default=None,
        help="proximity radius r (default: unconstrained)",
    )
    serve.add_argument("--choices", type=int, default=2, help="number of choices d")
    serve.add_argument("--topology", default="torus", help="topology name (default: torus)")
    serve.add_argument(
        "--popularity", default="uniform", help="popularity family (uniform or zipf)"
    )
    serve.add_argument("--gamma", type=float, default=None, help="Zipf exponent")
    serve.add_argument(
        "--placement", default="proportional", help="placement name (default: proportional)"
    )
    serve.add_argument(
        "--mu", type=float, default=1.0, help="queueing service rate (default: 1.0)"
    )
    serve.add_argument("--seed", type=int, default=0, help="random seed")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral; default: 8642)"
    )
    serve.add_argument(
        "--flush-interval",
        type=float,
        default=0.002,
        help="micro-batch coalescing window in seconds (default: 0.002)",
    )
    serve.add_argument(
        "--flush-max",
        type=int,
        default=512,
        help="maximum requests per micro-batch commit (default: 512)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.05,
        help="seconds between state snapshot publications (default: 0.05)",
    )
    serve.add_argument(
        "--tick",
        type=float,
        default=0.001,
        help="queueing virtual-clock advance per request in simulated seconds",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="write-ahead dispatch journal path (enables crash recovery)",
    )
    serve.add_argument(
        "--journal-fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="journal durability policy (default: interval = fsync at checkpoints)",
    )
    serve.add_argument(
        "--journal-checkpoint",
        type=int,
        default=16,
        help="batches between journal checkpoints (default: 16)",
    )
    serve.add_argument(
        "--recover",
        default=None,
        metavar="JOURNAL",
        help="rebuild the session from this journal by deterministic replay, "
        "then continue serving (and appending) where the crashed server stopped",
    )
    serve.add_argument(
        "--watchdog",
        type=float,
        default=None,
        help="writer stall deadline in seconds before degrading to "
        "snapshot-only reads (default: disabled)",
    )
    serve.add_argument(
        "--chaos-crash-after-batches",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # test-only: SIGKILL after N journaled batches
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive open-loop load against a running dispatch server",
    )
    loadgen.add_argument("--host", default="127.0.0.1", help="server address")
    loadgen.add_argument("--port", type=int, default=8642, help="server port")
    loadgen.add_argument(
        "--rate", type=float, default=200.0, help="mean offered rate in requests/s"
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0, help="run length in seconds"
    )
    loadgen.add_argument(
        "--zipf-gamma",
        type=float,
        default=0.8,
        help="Zipf exponent of the file popularity (0 = uniform; default: 0.8)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="client connection pool size (default: 64)",
    )
    loadgen.add_argument(
        "--batch", type=int, default=1, help="requests per client batch (default: 1)"
    )
    loadgen.add_argument(
        "--wave-amplitude",
        type=float,
        default=0.0,
        help="sinusoidal rate modulation amplitude in [0, 1] (default: constant rate)",
    )
    loadgen.add_argument(
        "--wave-period",
        type=float,
        default=1.0,
        help="sinusoidal rate modulation period in seconds (default: 1.0)",
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed")
    loadgen.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-request timeout in seconds (0 = disabled; default: 5)",
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retries per request on transport errors and 503 (default: 0)",
    )

    tables = subparsers.add_parser("tables", help="produce the theorem-check tables")
    tables.add_argument(
        "--tables",
        nargs="+",
        default=["t1", "t3", "t4", "h", "bb"],
        choices=["t1", "t3", "t4", "h", "bb"],
        help="which tables to produce (default: all)",
    )
    tables.add_argument("--trials", type=int, default=3, help="trials per table entry")
    tables.add_argument("--seed", type=int, default=0, help="random seed")

    return parser


def _command_simulate(args: argparse.Namespace) -> int:
    config = _build_point_config(args)
    if config is None:
        return 2
    runner = run_trials_parallel if args.parallel else run_trials
    result = runner(config, args.trials, seed=args.seed, assignment_engine=args.engine)
    prediction = predict(config)
    rows = [
        {
            "metric": "maximum load L",
            "measured (mean over trials)": result.mean_max_load,
            "paper prediction (leading order)": prediction.max_load_order,
        },
        {
            "metric": "communication cost C (hops)",
            "measured (mean over trials)": result.mean_communication_cost,
            "paper prediction (leading order)": prediction.comm_cost_order,
        },
        {
            "metric": "fallback rate",
            "measured (mean over trials)": result.mean_fallback_rate,
            "paper prediction (leading order)": 0.0,
        },
    ]
    # The multirun description records the engine the trials actually
    # resolved to (the raw config cannot know about the --engine override).
    print(render_comparison_table(rows, title=result.config_description))
    print(f"\n{prediction.notes}")
    return 0


def _build_point_config(args: argparse.Namespace) -> SimulationConfig | None:
    """Shared config assembly of the ``simulate`` and ``stream`` subcommands."""
    strategy_params: dict[str, object] = {}
    strategy = resolve_strategy_name(args.strategy)
    if strategy != "nearest_replica":
        strategy_params["radius"] = args.radius
        # Only the d-choice strategies accept a number of choices.
        if strategy in ("proximity_two_choice", "threshold_hybrid"):
            strategy_params["num_choices"] = args.choices
    popularity_params: dict[str, object] = {}
    if args.popularity == "zipf":
        if args.gamma is None:
            print("error: --gamma is required with --popularity zipf", file=sys.stderr)
            return None
        popularity_params = {"gamma": args.gamma}
    return SimulationConfig(
        num_nodes=args.nodes,
        num_files=args.files,
        cache_size=args.cache,
        topology=args.topology,
        popularity=args.popularity,
        popularity_params=popularity_params,
        placement=getattr(args, "placement", "proportional"),
        strategy=args.strategy,
        strategy_params=strategy_params,
        num_requests=getattr(args, "window", None),
    )


def _command_stream(args: argparse.Namespace) -> int:
    if args.windows <= 0:
        print("error: --windows must be positive", file=sys.stderr)
        return 2
    if args.window is not None and args.window <= 0:
        print("error: --window must be positive", file=sys.stderr)
        return 2
    config = _build_point_config(args)
    if config is None:
        return 2
    session = open_session(config, seed=args.seed, assignment_engine=args.engine)
    print(
        f"streaming {args.windows} windows over: "
        f"{config.describe(engine=session.strategy.engine)}"
    )
    header = f"{'window':>6} {'m':>8} {'served':>10} {'L':>6} {'C':>8} {'fallback':>9}"
    print(header)
    print("-" * len(header))
    for window in session.serve_stream(session.workload_stream(num_windows=args.windows)):
        print(
            f"{window.window_index:>6} {window.num_requests:>8} "
            f"{window.cumulative_requests:>10} {window.cumulative_max_load:>6} "
            f"{window.communication_cost:>8.3f} {window.fallback_rate:>9.4f}"
        )
    snapshot = session.snapshot()
    print(
        f"\nfinal: served {snapshot.num_requests} requests in "
        f"{snapshot.num_windows} windows; max load L={snapshot.max_load}, "
        f"communication cost C={snapshot.communication_cost:.3f}, "
        f"fallback rate {snapshot.fallback_rate:.4f}"
    )
    return 0


def _command_supermarket(args: argparse.Namespace) -> int:
    popularity_params: dict[str, object] = {}
    if args.popularity == "zipf":
        if args.gamma is None:
            print("error: --gamma is required with --popularity zipf", file=sys.stderr)
            return 2
        popularity_params = {"gamma": args.gamma}
    engine = resolve_engine_name(args.engine, "queueing")
    radius_label = "inf" if args.radius is None else f"{args.radius:g}"
    title = (
        f"supermarket model on {args.topology} n={args.nodes}, K={args.files}, "
        f"M={args.cache}, r={radius_label}, mu={args.mu:g}, "
        f"horizon={args.horizon:g}, engine={engine}"
    )
    if args.stream_windows is not None:
        if args.stream_windows <= 0:
            print("error: --stream-windows must be positive", file=sys.stderr)
            return 2
        from repro.catalog.library import FileLibrary
        from repro.catalog.popularity import create_popularity
        from repro.placement.factory import create_placement
        from repro.session import open_queueing_session
        from repro.topology.factory import create_topology
        from repro.workload import PoissonArrivalProcess

        session = open_queueing_session(
            create_topology(args.topology, args.nodes),
            FileLibrary(
                args.files,
                create_popularity(args.popularity, args.files, **popularity_params),
            ),
            create_placement(args.placement, args.cache),
            PoissonArrivalProcess(rate_per_node=args.rates[0]),
            seed=args.seed,
            service_rate=args.mu,
            radius=np.inf if args.radius is None else args.radius,
            num_choices=args.choices[0],
            candidate_weights=args.weights,
            engine=engine,
        )
        print(
            f"streaming {args.stream_windows} windows at rate {args.rates[0]:g}, "
            f"d={args.choices[0]} over: {title}"
        )
        header = (
            f"{'window':>6} {'t':>8} {'arrivals':>9} {'done':>9} "
            f"{'Qmax':>6} {'meanQ':>8} {'W':>8} {'C':>8}"
        )
        print(header)
        print("-" * len(header))
        width = args.horizon / args.stream_windows
        for result in session.serve_windows(width, args.stream_windows):
            cumulative = result.result
            print(
                f"{result.window_index:>6} {result.window_end:>8.2f} "
                f"{cumulative.num_arrivals:>9} {cumulative.num_completed:>9} "
                f"{cumulative.max_queue_length:>6} "
                f"{cumulative.mean_queue_length / args.nodes:>8.4f} "
                f"{cumulative.mean_waiting_time:>8.4f} "
                f"{cumulative.communication_cost:>8.3f}"
            )
        return 0
    rows = run_queueing_experiment(
        num_nodes=args.nodes,
        num_files=args.files,
        cache_size=args.cache,
        topology=args.topology,
        popularity=args.popularity,
        popularity_params=popularity_params,
        placement=args.placement,
        arrival_rates=args.rates,
        choices=args.choices,
        radius=args.radius,
        service_rate=args.mu,
        horizon=args.horizon,
        candidate_weights=args.weights,
        engine=engine,
        seed=args.seed,
    )
    print(render_comparison_table(rows, title=title))
    return 0


def _command_engines(args: argparse.Namespace) -> int:
    if args.json:
        import json

        from repro.backends.registry import engines_payload

        print(json.dumps(engines_payload(), indent=2))
        return 0
    for family in FAMILIES:
        rows = []
        for order, engine in enumerate(registered_engines(family), start=1):
            if engine.available:
                status, note = "yes", engine.description
            else:
                status, note = "no", engine.unavailable_reason
            rows.append(
                {
                    "engine": engine.name,
                    "auto order": order,
                    "priority": engine.priority,
                    "available": status,
                    "streaming": "yes" if engine.supports_streaming else "no",
                    "note": note,
                }
            )
        print(render_comparison_table(rows, title=f"{family} engines"))
        print()
    print(
        "engine specs: 'auto' resolves to the first available engine in auto "
        "order;\nexplicit names select one backend (unavailable ones are "
        "rejected with the reason above)."
    )
    return 0


def _build_serve_session(args: argparse.Namespace):
    """The live session ``repro serve`` wraps (static or queueing)."""
    if args.queueing:
        from repro.catalog.library import FileLibrary
        from repro.catalog.popularity import create_popularity
        from repro.placement.factory import create_placement
        from repro.session import open_queueing_session
        from repro.topology.factory import create_topology
        from repro.workload import PoissonArrivalProcess

        popularity_params: dict[str, object] = {}
        if args.popularity == "zipf":
            if args.gamma is None:
                print("error: --gamma is required with --popularity zipf", file=sys.stderr)
                return None
            popularity_params = {"gamma": args.gamma}
        return open_queueing_session(
            create_topology(args.topology, args.nodes),
            FileLibrary(
                args.files,
                create_popularity(args.popularity, args.files, **popularity_params),
            ),
            create_placement(args.placement, args.cache),
            # The service drives arrival times itself (the virtual clock); the
            # process here only parameterises the utilisation warning.
            PoissonArrivalProcess(rate_per_node=0.5),
            seed=args.seed,
            service_rate=args.mu,
            radius=np.inf if args.radius is None else args.radius,
            num_choices=args.choices,
            engine=args.engine,
        )
    config = _build_point_config(args)
    if config is None:
        return None
    return open_session(config, seed=args.seed, assignment_engine=args.engine)


def _serve_spec(args: argparse.Namespace) -> dict[str, object]:
    """The declarative session spec journaled so --recover can rebuild it."""
    return {
        "kind": "queueing" if args.queueing else "assignment",
        "seed": args.seed,
        "engine": args.engine,
        "topology": args.topology,
        "nodes": args.nodes,
        "files": args.files,
        "cache": args.cache,
        "popularity": args.popularity,
        "gamma": args.gamma,
        "placement": args.placement,
        "mu": args.mu,
        "radius": args.radius,
        "choices": args.choices,
        "strategy": args.strategy,
    }


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DispatchServer
    from repro.service.chaos import ServerChaos
    from repro.service.journal import DispatchJournal, JournalError, recover_session

    if args.recover is None and None in (args.nodes, args.files, args.cache):
        print(
            "error: --nodes, --files and --cache are required "
            "(unless recovering with --recover)",
            file=sys.stderr,
        )
        return 2

    journal = None
    initial_seq = 0
    recovered = None
    if args.recover is not None:
        try:
            recovered = recover_session(args.recover)
        except (JournalError, OSError) as exc:
            print(f"error: recovery failed: {exc}", file=sys.stderr)
            return 2
        session = recovered.session
        initial_seq = recovered.next_seq
        journal = DispatchJournal.open_append(
            args.recover,
            fsync=args.journal_fsync,
            checkpoint_every=args.journal_checkpoint,
        )
        print(
            f"recovered {recovered.kind} session from {args.recover}: "
            f"{recovered.batches} batches / {recovered.requests} requests "
            f"replayed, {recovered.checkpoints_verified} checkpoints verified, "
            f"resuming at seq {initial_seq}",
            flush=True,
        )
    else:
        session = _build_serve_session(args)
        if session is None:
            return 2
        if args.journal is not None:
            journal = DispatchJournal.create(
                args.journal,
                kind="queueing" if args.queueing else "assignment",
                spec=_serve_spec(args),
                seed=args.seed,
                fsync=args.journal_fsync,
                checkpoint_every=args.journal_checkpoint,
            )

    chaos = None
    if args.chaos_crash_after_batches is not None:
        chaos = ServerChaos(crash_after_batches=args.chaos_crash_after_batches)

    server = DispatchServer(
        session,
        host=args.host,
        port=args.port,
        flush_interval=args.flush_interval,
        flush_max=args.flush_max,
        snapshot_interval=args.snapshot_interval,
        tick=args.tick,
        journal=journal,
        initial_seq=initial_seq,
        watchdog=args.watchdog,
        chaos=chaos,
    )
    if recovered is not None and recovered.idempotency:
        server.idempotency.preload(recovered.idempotency)

    async def _run() -> None:
        await server.start()
        host, port = server.address
        print(
            f"serving {server.kind} dispatch ({server.publisher.engine}) "
            f"on http://{host}:{port} — POST /dispatch, GET /snapshot, "
            f"GET /healthz, GET /metrics",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.loadgen import LoadGenConfig, run_loadgen

    config = LoadGenConfig(
        rate=args.rate,
        duration=args.duration,
        gamma=args.zipf_gamma,
        concurrency=args.concurrency,
        batch=args.batch,
        wave_amplitude=args.wave_amplitude,
        wave_period=args.wave_period,
        seed=args.seed,
        timeout=args.timeout if args.timeout > 0 else None,
        retries=args.retries,
    )
    try:
        report = asyncio.run(run_loadgen(args.host, args.port, config))
    except ConnectionRefusedError:
        print(
            f"error: no dispatch server at {args.host}:{args.port} "
            "(start one with 'repro serve')",
            file=sys.stderr,
        )
        return 2
    print(report.format())
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    specs = all_figure_specs(trials=args.trials)
    wanted = {f"FIG{number}" for number in args.figures}
    args.output_dir.mkdir(parents=True, exist_ok=True)
    for key, spec in specs.items():
        if key not in wanted:
            continue
        result = run_experiment(
            spec, seed=args.seed, parallel=args.parallel, assignment_engine=args.engine
        )
        report = render_experiment(result, plot=not args.no_plot)
        print(report)
        print()
        save_experiment_result(result, args.output_dir / f"{key.lower()}.json")
        result_to_csv(result, args.output_dir / f"{key.lower()}.csv")
        (args.output_dir / f"{key.lower()}.txt").write_text(report)
    print(f"artifacts written to {args.output_dir.resolve()}")
    return 0


def _command_tables(args: argparse.Namespace) -> int:
    producers = {
        "t1": ("TAB-T1: Strategy I max load vs log n", lambda: theorem1_table(trials=args.trials, seed=args.seed)),
        "t3": (
            "TAB-T3: Strategy I communication cost vs Theorem 3",
            lambda: theorem3_table(trials=args.trials, seed=args.seed),
        ),
        "t4": (
            "TAB-T4: Strategy II regimes (K = n)",
            lambda: theorem4_table(trials=args.trials, seed=args.seed),
        ),
        "h": (
            "TAB-H: goodness and configuration graph H",
            lambda: goodness_table(seed=args.seed),
        ),
        "bb": (
            "TAB-BB: balls-into-bins reference processes",
            lambda: ballsbins_table(trials=args.trials, seed=args.seed),
        ),
    }
    for key in args.tables:
        title, producer = producers[key]
        rows = producer()
        print(render_comparison_table(rows, title=title))
        print()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.exceptions import UnknownEngineError

    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "simulate": _command_simulate,
        "stream": _command_stream,
        "supermarket": _command_supermarket,
        "figures": _command_figures,
        "engines": _command_engines,
        "tables": _command_tables,
        "serve": _command_serve,
        "loadgen": _command_loadgen,
    }
    command = commands.get(args.command)
    if command is None:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command(args)
    except UnknownEngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
