"""Event-batched queueing engines (the dynamic supermarket model's kernels).

The discrete-event supermarket simulation has the same shape the static
strategies had before the batched kernels: per arrival, one topology query,
several small-array numpy operations and up to three RNG calls — pure
dispatch overhead around a tiny amount of sequential work.  This module
applies the PR-1 precompute/commit split to the event loop:

**Precompute phase** (pure numpy, window level)
    Group the window's arrivals by ``(origin, file)`` and resolve candidate
    replica sets through :func:`~repro.kernels.group_index.build_group_index`
    (memoisable across windows and sweep points via a ``GroupStore``); draw
    every arrival's ``d``-choice sample with the batched shifted-uniform
    sampler (or the weighted sampler); draw one tie-break uniform and one
    exponential service time per arrival in two batched calls.

**Commit phase** (minimal sequential loop)
    A tight loop over plain Python lists of ints/floats holding the arrival
    times, service times, pre-drawn uniforms and flat sampled candidate ids:
    pop due departures off a ``heapq`` binary heap (a plain list of
    ``(time, id, server)`` tuples), pick the least-loaded sampled server,
    push its departure.  No numpy scalar boxing, no topology queries, no RNG
    calls inside the loop, and O(1)-memory streaming accumulators (running
    sums) instead of unbounded per-arrival metric lists.

Queueing RNG-stream contract
----------------------------

Every engine (the event-batched ``"batch"`` and ``"numba"`` and the scalar
``"reference"``) derives the same three independent streams from the
dispatch seed::

    rng_sample, rng_tie, rng_service = spawn_generators(dispatch_seed, 3)

and consume them strictly per arrival, in arrival-time order:

* **sample stream** — exactly ``d`` doubles iff the arrival's candidate set
  has more than ``d`` members (the static contract's shifted-uniform rule;
  the weighted sampler consumes the same doubles through
  :func:`~repro.kernels.sampling.weighted_pick_positions`);
* **tie stream** — exactly one double ``u`` per arrival, consumed whether or
  not a tie occurs; when ``t`` sampled servers tie on the shortest queue, the
  winner is the ``floor(u * t)``-th tied server in sample order;
* **service stream** — exactly one ``Exponential(1 / mu)`` draw per arrival.

Because every stream is consumed strictly per arrival, the contract extends
to windowed serving exactly as the static one does: carrying the three
generators plus the :class:`QueueingState` across successive time windows
reproduces the one-shot run over ``[0, horizon)`` bit for bit (the property
``tests/test_session_queueing.py`` enforces).  When the engines disagree,
the reference engine is authoritative.

Time accounting never advances the clock to a window boundary — only to
event (arrival/departure) times — so the queue-length integral accumulates
the exact same float operations regardless of how the horizon is windowed;
boundary-truncated statistics are derived *functionally* in
:func:`finalize_result_fields`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernels.group_index import GroupStore, build_group_index

# The scalar shifted-uniform draw and the up-front replica lookup are shared
# with the static reference engine: both transcribe the same contract rules,
# and a single implementation keeps the two bit-identity guarantees anchored
# to one definition.
from repro.kernels.reference import _replica_cache, _sample_positions
from repro.kernels.sampling import draw_sample_positions, weighted_pick_positions, weighted_sample_positions
from repro.placement.cache import CacheState
from repro.strategies.base import FallbackPolicy
from repro.topology.base import Topology
from repro.types import FloatArray, IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "QueueingState",
    "commit_window",
    "drain_departures",
    "finalize_result_fields",
    "queueing_kernel_window",
    "queueing_reference_window",
    "validate_queueing_parameters",
]

#: Candidate-weighting modes of the d-choice draw.
CANDIDATE_WEIGHT_MODES = ("uniform", "popularity")


def validate_queueing_parameters(
    service_rate: float, radius: float, num_choices: int, candidate_weights: str
) -> None:
    """Shared parameter validation of the queueing simulation and session."""
    if service_rate <= 0:
        raise ConfigurationError(f"service_rate must be positive, got {service_rate}")
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    if num_choices < 1:
        raise ConfigurationError(f"num_choices must be at least 1, got {num_choices}")
    if candidate_weights not in CANDIDATE_WEIGHT_MODES:
        raise ConfigurationError(
            f"candidate_weights must be one of {CANDIDATE_WEIGHT_MODES}, "
            f"got {candidate_weights!r}"
        )


@dataclass
class QueueingState:
    """Mutable simulation state persisting across served time windows.

    Holds the per-server queue lengths and busy-until times, the departure
    heap, and the streaming metric accumulators.  Both engines operate on the
    same state type with identical scalar arithmetic, so a state served by
    one engine and finished by the other stays bit-identical to either
    engine alone (the session layer nevertheless pins one engine per
    session).
    """

    queue_lengths: list[int]
    busy_until: list[float]
    events: list[tuple[float, int, int]] = field(default_factory=list)
    next_event_id: int = 0
    clock: float = 0.0  # time of the last accounted event
    in_system: int = 0
    num_arrivals: int = 0
    completed: int = 0
    max_queue: int = 0
    area_queue: float = 0.0  # integral of total queue length up to ``clock``
    sum_wait: float = 0.0
    sum_sojourn: float = 0.0
    sum_hops: int = 0

    @classmethod
    def fresh(cls, num_nodes: int) -> "QueueingState":
        """An empty-system state for ``num_nodes`` servers at time zero."""
        return cls(queue_lengths=[0] * int(num_nodes), busy_until=[0.0] * int(num_nodes))


def drain_departures(state: QueueingState, until: float) -> None:
    """Pop and account every departure due at or before ``until``.

    Advances the clock to each departure time (never to ``until`` itself), so
    the queue-length integral accumulates only event-time segments and stays
    windowing-invariant.
    """
    events = state.events
    queue = state.queue_lengths
    clock = state.clock
    in_system = state.in_system
    area = state.area_queue
    completed = state.completed
    pop = heapq.heappop
    while events and events[0][0] <= until:
        dep_time, _, server = pop(events)
        area += in_system * (dep_time - clock)
        clock = dep_time
        queue[server] -= 1
        in_system -= 1
        completed += 1
    state.clock = clock
    state.in_system = in_system
    state.area_queue = area
    state.completed = completed


def finalize_result_fields(state: QueueingState, until: float) -> dict[str, float]:
    """Boundary-truncated summary statistics of ``state`` over ``[0, until)``.

    Pure function of the state — extends the queue-length integral from the
    last accounted event to ``until`` without mutating the state, so windowed
    and one-shot runs report identical floats at the same boundary.
    """
    area = state.area_queue + state.in_system * (until - state.clock)
    arrivals = state.num_arrivals
    return {
        "num_arrivals": arrivals,
        "num_completed": state.completed,
        "max_queue_length": state.max_queue,
        "mean_queue_length": float(area / until) if until > 0 else 0.0,
        "mean_waiting_time": float(state.sum_wait / arrivals) if arrivals else 0.0,
        "mean_sojourn_time": float(state.sum_sojourn / arrivals) if arrivals else 0.0,
        "communication_cost": float(state.sum_hops / arrivals) if arrivals else 0.0,
        "horizon": float(until),
    }


# --------------------------------------------------------------------- kernel
def commit_window(
    state: QueueingState,
    times: FloatArray,
    services: FloatArray,
    tie_uniforms: FloatArray,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
) -> IntArray:
    """The sequential event loop over pre-materialised per-arrival arrays.

    Returns, per arrival, the flat index of the winning server into
    ``sample_nodes`` so the caller gathers hop distances vectorised.  This is
    the default ``commit`` implementation of :func:`queueing_kernel_window`
    and the ``batch`` engine's event loop (re-exported as
    :func:`repro.kernels.batch_commit.commit_window`); compiled backends
    (:mod:`repro.backends.numba_backend`) provide bit-identical replacements
    with the same signature.
    """
    m = int(times.size)
    out = [0] * m
    times = times.tolist()
    services = services.tolist()
    tie_uniforms = tie_uniforms.tolist()
    nodes = sample_nodes.tolist()
    indptr = sample_indptr.tolist()
    queue = state.queue_lengths
    busy = state.busy_until
    events = state.events
    event_id = state.next_event_id
    clock = state.clock
    in_system = state.in_system
    area = state.area_queue
    completed = state.completed
    max_queue = state.max_queue
    sum_wait = state.sum_wait
    sum_sojourn = state.sum_sojourn
    push = heapq.heappush
    pop = heapq.heappop
    pairwise = m > 0 and len(nodes) == 2 * m and int(sample_counts.min()) == 2

    for i in range(m):
        now = times[i]
        while events and events[0][0] <= now:
            dep_time, _, dep_server = pop(events)
            area += in_system * (dep_time - clock)
            clock = dep_time
            queue[dep_server] -= 1
            in_system -= 1
            completed += 1
        area += in_system * (now - clock)
        clock = now

        if pairwise:
            # Fast path: the paper's d = 2 with every candidate set >= 2.
            j = 2 * i
            a = nodes[j]
            b = nodes[j + 1]
            load_a = queue[a]
            load_b = queue[b]
            if load_a < load_b:
                pick = j
            elif load_b < load_a:
                pick = j + 1
            elif tie_uniforms[i] < 0.5:
                pick = j
            else:
                pick = j + 1
            server = nodes[pick]
        else:
            start = indptr[i]
            end = indptr[i + 1]
            best = queue[nodes[start]]
            ties = 1
            pick = start
            for j in range(start + 1, end):
                load = queue[nodes[j]]
                if load < best:
                    best = load
                    ties = 1
                    pick = j
                elif load == best:
                    ties += 1
            if ties > 1:
                k = int(tie_uniforms[i] * ties)
                for j in range(start, end):
                    if queue[nodes[j]] == best:
                        if k == 0:
                            pick = j
                            break
                        k -= 1
            server = nodes[pick]

        svc_start = busy[server]
        if svc_start < now:
            svc_start = now
        finish = svc_start + services[i]
        busy[server] = finish
        sum_wait += svc_start - now
        sum_sojourn += finish - now
        load = queue[server] + 1
        queue[server] = load
        in_system += 1
        if load > max_queue:
            max_queue = load
        push(events, (finish, event_id, server))
        event_id += 1
        out[i] = pick

    state.next_event_id = event_id
    state.clock = clock
    state.in_system = in_system
    state.area_queue = area
    state.completed = completed
    state.max_queue = max_queue
    state.sum_wait = sum_wait
    state.sum_sojourn = sum_sojourn
    state.num_arrivals += m
    return np.asarray(out, dtype=np.int64)


def queueing_kernel_window(
    topology: Topology,
    cache: CacheState,
    state: QueueingState,
    requests: RequestBatch,
    times: FloatArray,
    streams: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
    *,
    radius: float,
    num_choices: int,
    service_rate: float,
    window_end: float,
    store: GroupStore | None = None,
    node_weights: np.ndarray | None = None,
    commit=commit_window,
) -> tuple[IntArray, IntArray, np.ndarray]:
    """Serve one time window ``[state's cursor, window_end)`` batched.

    ``requests``/``times`` hold the window's arrivals in time order;
    ``streams`` is the persistent ``(rng_sample, rng_tie, rng_service)``
    triple of the contract; ``node_weights`` (length ``n``) switches the
    ``d``-choice draw to weighted sampling.  ``commit`` swaps the sequential
    event-loop implementation (same signature and bit-identical semantics as
    :func:`commit_window`) — the hook compiled backends plug into while
    sharing all of this precompute.  Updates ``state`` in place and finally
    drains every departure due by ``window_end``.

    Returns the per-arrival decisions ``(servers, hops, fallbacks)`` in
    arrival order: chosen server and hop distance (``int64``), and whether
    the ball ``B_r(origin)`` held no replica (``bool``, the arrival's
    ``GroupIndex.fallback`` flag), so callers such as the dispatch service
    can report them; window-level consumers are free to ignore them.
    """
    m = requests.num_requests
    rng_sample, rng_tie, rng_service = streams
    servers = np.empty(0, dtype=np.int64)
    hops = np.empty(0, dtype=np.int64)
    fallbacks = np.empty(0, dtype=bool)
    if m:
        unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)
        index = build_group_index(
            topology,
            cache,
            requests,
            radius=radius,
            fallback=FallbackPolicy.NEAREST,
            need_dists=not unconstrained,
            store=store,
        )
        counts = index.request_counts()
        if node_weights is None:
            positions, sample_counts, sample_indptr = draw_sample_positions(
                counts, num_choices, rng_sample
            )
        else:
            positions, sample_counts, sample_indptr = weighted_sample_positions(
                counts,
                index.request_starts(),
                node_weights[index.nodes],
                num_choices,
                rng_sample,
            )
        tie_uniforms = rng_tie.random(m)
        services = rng_service.exponential(1.0 / service_rate, size=m)
        flat = np.repeat(index.request_starts(), sample_counts) + positions
        sample_nodes = index.nodes[flat]
        winners = commit(
            state,
            np.asarray(times, dtype=np.float64),
            services,
            tie_uniforms,
            sample_nodes,
            sample_counts,
            sample_indptr,
        )
        servers = sample_nodes[winners]
        if index.dists is not None:
            hops = index.dists[flat][winners].astype(np.int64)
        else:
            hops = topology.distances_between(requests.origins, servers).astype(
                np.int64
            )
        state.sum_hops += int(hops.sum())
        fallbacks = index.fallback[index.request_group]
    drain_departures(state, window_end)
    return servers, hops, fallbacks


# ------------------------------------------------------------------ reference
def queueing_reference_window(
    topology: Topology,
    cache: CacheState,
    state: QueueingState,
    requests: RequestBatch,
    times: FloatArray,
    streams: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
    *,
    radius: float,
    num_choices: int,
    service_rate: float,
    window_end: float,
    store: GroupStore | None = None,
    node_weights: np.ndarray | None = None,
) -> tuple[IntArray, IntArray, np.ndarray]:
    """Scalar per-arrival event loop under the queueing RNG-stream contract.

    The direct transcription of the supermarket dispatcher: per arrival one
    topology query, an in-ball filter with nearest-replica fallback, a scalar
    ``d``-choice draw, the shortest-queue comparison, and one service draw —
    no batching or CSR indexing to hide a kernel bug in.  ``store`` is
    accepted for signature parity and ignored.  Must stay bit-identical to
    :func:`queueing_kernel_window` for any seed; when the two disagree, this
    engine is authoritative.  Like the kernel window, returns the
    per-arrival ``(servers, hops, fallbacks)`` decisions.  A file cached
    nowhere raises :class:`~repro.exceptions.NoReplicaError` (the smallest
    such file) before the first arrival commits, as the kernel window's
    group index does, so ``state`` and ``streams`` are left untouched.
    """
    del store  # the scalar engine recomputes candidates per arrival
    replicas_of = _replica_cache(cache, requests)
    m = requests.num_requests
    rng_sample, rng_tie, rng_service = streams
    unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)
    scale = 1.0 / service_rate
    out_servers = [0] * m
    out_hops = [0] * m
    out_fallbacks = [False] * m

    for i in range(m):
        now = float(times[i])
        drain_departures(state, now)
        state.area_queue += state.in_system * (now - state.clock)
        state.clock = now

        origin = int(requests.origins[i])
        file_id = int(requests.files[i])
        replicas = replicas_of[file_id]
        if unconstrained:
            candidates = replicas
            candidate_dists = None
        else:
            dists = topology.distances_from(origin, replicas)
            in_ball = dists <= radius
            if np.any(in_ball):
                candidates = replicas[in_ball]
                candidate_dists = dists[in_ball]
            else:
                nearest = int(np.argmin(dists))
                candidates = replicas[nearest : nearest + 1]
                candidate_dists = dists[nearest : nearest + 1]
                out_fallbacks[i] = True

        size = int(candidates.size)
        if node_weights is None:
            selected = _sample_positions(size, num_choices, rng_sample)
        elif size <= num_choices:
            selected = list(range(size))
        else:
            uniforms = [float(rng_sample.random()) for _ in range(num_choices)]
            selected = weighted_pick_positions(
                node_weights[candidates].tolist(), uniforms
            )

        tie_u = float(rng_tie.random())
        sampled = [int(candidates[pos]) for pos in selected]
        loads = [state.queue_lengths[server] for server in sampled]
        best = min(loads)
        tied = [idx for idx, load in enumerate(loads) if load == best]
        pick = tied[int(tie_u * len(tied))]
        server = sampled[pick]

        service = float(rng_service.exponential(scale))
        svc_start = state.busy_until[server]
        if svc_start < now:
            svc_start = now
        finish = svc_start + service
        state.busy_until[server] = finish
        state.sum_wait += svc_start - now
        state.sum_sojourn += finish - now
        load = state.queue_lengths[server] + 1
        state.queue_lengths[server] = load
        state.in_system += 1
        if load > state.max_queue:
            state.max_queue = load
        heapq.heappush(state.events, (finish, state.next_event_id, server))
        state.next_event_id += 1

        if candidate_dists is not None:
            hop = int(candidate_dists[selected[pick]])
        else:
            hop = int(
                topology.distances_from(origin, np.asarray([server], dtype=np.int64))[0]
            )
        state.sum_hops += hop
        out_servers[i] = server
        out_hops[i] = hop
    state.num_arrivals += m
    drain_departures(state, window_end)
    return (
        np.asarray(out_servers, dtype=np.int64),
        np.asarray(out_hops, dtype=np.int64),
        np.asarray(out_fallbacks, dtype=bool),
    )
