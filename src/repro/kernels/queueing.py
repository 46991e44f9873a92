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

    The loop has one exact *route* around it for windows whose arrivals
    each sampled one or two servers (the paper's ``d = 1`` and ``d = 2``).
    It first decides every arrival's server, then replays the decided
    window as whole-array passes that reproduce the loop's state bit for
    bit (see :func:`_commit_forced`).  With one sampled server per arrival
    no decision reads a load, so every arrival is decided before any round.
    With two, an arrival is decided in a round once it is the *first
    toucher* of each server it sampled: no earlier undecided arrival
    sampled that server (see :func:`_decide_rounds`).  Its load then counts
    exactly the earlier jobs that finish after it arrives, so departures
    never end a round, and a d = 2 window of tens of thousands of arrivals
    is decided in about ten rounds.  Windows below ``FORCED_MIN_ARRIVALS``
    (d = 1) or ``ROUNDS_MIN_ARRIVALS`` (d = 2) arrivals stay on the loop,
    which is faster there, as do windows the rounds would crawl through
    (few distinct servers, long chains), which the route gives up on
    before it changes the state.

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
#: Fewest arrivals for which :func:`commit_window` takes its route (read at
#: call time, so tests patch it).  Below it the event loop is the faster of
#: the two, e.g. on a server's 64-arrival flushes: on a 2-core Xeon guest
#: the route overtook the loop between 1,024 and 2,048 arrivals for d = 1,
#: at n = 65536 with an empty heap and with a 90,000-event one.
FORCED_MIN_ARRIVALS = 2048

#: Fewest arrivals for which a window with two-server arrivals (d = 2) takes
#: the route, which then decides in rounds (read at call time, so tests
#: patch it).  On the same guest at n = 65536 the rounds' fixed cost lost to
#: the loop at 2,048 arrivals (2.6 against 2.1 ms on an empty heap, 5.9
#: against 4.3 ms against a 23,000-event one) and tied it from 3,072 to
#: 6,144 (see CHANGES.md).
ROUNDS_MIN_ARRIVALS = 4096

#: Arrivals per forced-route chunk; bounds the route's temporaries.
_FORCED_CHUNK = 1 << 16

#: The forced route's rank rounds must average at least this many arrivals.
_FORCED_ROUND_ARRIVALS = 32

#: The decision rounds skip a window whose ``m`` arrivals touch fewer than
#: ``m >> _PROGRESS_SHIFT`` servers (a round decides at most one arrival per
#: server), and give up at the first round deciding fewer than
#: ``undecided >> _PROGRESS_SHIFT`` arrivals: the progress rule of the
#: static ``batch`` commits' repair rounds.
_PROGRESS_SHIFT = 4


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

    A window whose arrivals each sampled one or two servers (the paper's
    d = 1 and d = 2) first tries the route when it holds at least
    ``FORCED_MIN_ARRIVALS`` arrivals, or ``ROUNDS_MIN_ARRIVALS`` if any
    arrival sampled two: decide every arrival's server in first-toucher
    rounds (:func:`_decide_rounds`; d = 1 needs none), then replay the
    decided window without the loop (:func:`_commit_forced`).  Its departure
    heap then holds the same events in a possibly different layout.  A
    window the route gives up on is committed by the loop from an untouched
    state, through the d = 2 fast path when its widths are 1 and 2.
    """
    m = int(times.size)
    if m >= FORCED_MIN_ARRIVALS and int(sample_counts.max()) <= 2 and int(sample_counts.min()) >= 1:
        picks = _commit_routed(state, times, services, tie_uniforms, sample_nodes, sample_indptr)
        if picks is not None:
            return picks
    out = [0] * m
    pairwise = m > 0 and int(sample_counts.max()) == 2
    spread = pairwise and sample_nodes.size < 2 * m
    if spread:
        # Candidate sets of one member: lay every arrival out as a pair, its
        # only server twice, so the d = 2 fast path below serves the window.
        first, last = sample_indptr[:-1], sample_indptr[1:] - 1
        sample_nodes = np.column_stack((sample_nodes[first], sample_nodes[last])).ravel()
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
            # Fast path: the paper's d = 2 (a spread one-member set ties
            # with itself and takes its only server either way).
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
    picks = np.asarray(out, dtype=np.int64)
    if spread:
        return np.where(picks & 1, last, first).astype(np.int64)
    return picks


def _commit_routed(
    state: QueueingState,
    times: FloatArray,
    services: FloatArray,
    tie_uniforms: FloatArray,
    nodes: IntArray,
    indptr: IntArray,
) -> IntArray | None:
    """Commit a window whose arrivals sampled one or two servers each, or give up.

    Decides every arrival's server (:func:`_decide_rounds`; with one sampled
    server per arrival every arrival is decided before the first round) and
    replays the decided window (:func:`_commit_forced`), returning the loop's
    picks.  Returns ``None`` with ``state`` exactly as it was, heap layout
    included, when the rounds give up or :func:`_forced_applies` fails.
    """
    m = int(times.size)
    events = state.events
    last = float(times[-1])
    held = due = None
    if nodes.size == m:
        # One sampled server each: every arrival is decided before any round.
        picks = indptr[:-1].astype(np.int64)
    else:
        if m < ROUNDS_MIN_ARRIVALS:
            return None
        slots = _server_slots(nodes)
        if slots[0].size < m >> _PROGRESS_SHIFT:
            return None
        if events and events[0][0] <= last:
            held = events.copy()  # restores the heap if the route gives up
        due = _pop_due(events, last)
        picks = _decide_rounds(state, times, services, tie_uniforms, indptr, *slots, due)
    if picks is not None:
        servers = nodes[picks]
        if _forced_applies(times, services, servers):
            _commit_forced(state, times, services, servers, _pop_due(events, last) if due is None else due)
            return picks
    if held is not None:
        events[:] = held
    return None


def _pop_due(
    events: list[tuple[float, int, int]], until: float
) -> tuple[FloatArray, IntArray, IntArray]:
    """Pop every departure due at or before ``until``, as ``(time, id, server)``
    arrays in pop order, which is ``(time, id)`` order."""
    due = []
    pop = heapq.heappop
    while events and events[0][0] <= until:
        due.append(pop(events))
    if not due:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t, ids, servers = zip(*due)
    return (
        np.array(t, dtype=np.float64),
        np.array(ids, dtype=np.int64),
        np.array(servers, dtype=np.int64),
    )


def _server_slots(nodes: IntArray) -> tuple[IntArray, IntArray]:
    """The distinct servers of ``nodes`` in ascending order, and each entry's
    position among them."""
    slot_of = np.zeros(int(nodes.max()) + 1, dtype=np.int64)
    slot_of[nodes] = 1
    servers = np.flatnonzero(slot_of)
    slot_of[servers] = np.arange(servers.size, dtype=np.int64)
    return servers, slot_of[nodes]


def _decide_rounds(
    state: QueueingState,
    times: FloatArray,
    services: FloatArray,
    tie_uniforms: FloatArray,
    indptr: IntArray,
    servers: IntArray,
    slots: IntArray,
    due: tuple[FloatArray, IntArray, IntArray],
) -> IntArray | None:
    """The event loop's pick for every arrival of a window of widths 1 and 2.

    ``servers`` are the window's distinct sampled servers and ``slots`` each
    sampled entry's position among them; ``due`` holds the departures popped
    off the heap that are due by the last arrival.  An undecided arrival is
    decided in a round once it is the *first toucher* of each server it
    sampled: no earlier undecided arrival sampled that server.  Every
    earlier job that could sit on its servers is then known, and, since the
    loop pops every departure at or before an arrival's time before it
    decides, a job counts in an arrival's load iff it finishes after that
    arrival.  The round's winners are distinct, so each server gains at most
    one job per round, in arrival order, finishing at ``max(busy, t) +
    service`` with the loop's comparison.  On equal loads ``tie_uniforms[i]
    < 0.5`` takes the first sampled server, the loop's rule; an arrival of
    one sampled server takes it.  Rounds stop once every arrival with two
    sampled servers is decided.

    Returns ``None`` at the first round that decides fewer than
    ``undecided >> _PROGRESS_SHIFT`` arrivals; reads ``state`` only at
    ``servers`` and writes nothing.
    """
    m = int(times.size)
    lo, hi = indptr[:-1], indptr[1:] - 1
    listed = servers.tolist()
    free = np.fromiter(map(state.busy_until.__getitem__, listed), dtype=np.float64, count=len(listed))
    base = np.fromiter(map(state.queue_lengths.__getitem__, listed), dtype=np.int64, count=len(listed))
    # Each server's decided jobs' finish times, in FIFO order, in a segment
    # with room for every arrival that sampled it.
    seg_start = np.zeros(servers.size, dtype=np.int64)
    np.cumsum(np.bincount(slots, minlength=servers.size)[:-1], out=seg_start[1:])
    finish_of = np.empty(slots.size, dtype=np.float64)
    filled = np.zeros(servers.size, dtype=np.int64)
    # Due departures keyed ``slot * (m + 1) + arrival popped before``, so one
    # sorted search counts a server's departures popped by an arrival.
    due_t, _, due_s = due
    due_keys = None
    if due_t.size:
        at = np.minimum(np.searchsorted(servers, due_s), servers.size - 1)
        on = servers[at] == due_s
        due_keys = np.sort(at[on] * (m + 1) + np.searchsorted(times, due_t[on], side="left"))
        base += np.searchsorted(due_keys, np.arange(servers.size, dtype=np.int64) * (m + 1))

    def loads(slot: IntArray, arrivals: IntArray) -> IntArray:
        """Queue lengths at ``slot`` as ``arrivals`` see them: the decided
        jobs there that finish after each arrival count."""
        load = base[slot]
        if due_keys is not None:
            load -= np.searchsorted(due_keys, slot * (m + 1) + arrivals, side="right")
        have = filled[slot]
        t = times[arrivals]
        live = np.flatnonzero(have)
        rank = 0
        while live.size:
            load[live] += finish_of[seg_start[slot[live]] + rank] > t[live]
            rank += 1
            live = live[have[live] > rank]
        return load

    # Undecided arrivals with the slots of their first and last sampled entry.
    undecided = np.arange(m, dtype=np.int64)
    touch = np.column_stack((slots[lo], slots[hi]))
    first = np.empty(servers.size, dtype=np.int64)
    two = hi != lo
    pairs_left = int(np.count_nonzero(two))
    second = np.zeros(m, dtype=bool)
    while pairs_left:
        # Each touched slot's earliest undecided toucher.
        first[touch] = m
        np.minimum.at(first, touch.ravel(), np.repeat(undecided, 2))
        safe = (first[touch[:, 0]] == undecided) & (first[touch[:, 1]] == undecided)
        now, later = np.flatnonzero(safe), np.flatnonzero(~safe)
        if now.size < undecided.size >> _PROGRESS_SHIFT:
            return None
        # ``take`` by position: much faster than a boolean mask here.
        decided, pair = undecided.take(now), touch.take(now, axis=0)
        undecided, touch = undecided.take(later), touch.take(later, axis=0)
        pairs_left -= int(np.count_nonzero(two[decided]))
        k = decided.size
        load = loads(pair.ravel(), np.repeat(decided, 2)).reshape(k, 2)
        takes_b = (load[:, 1] < load[:, 0]) | (
            (load[:, 1] == load[:, 0]) & (tie_uniforms[decided] >= 0.5)
        )
        second[decided] = takes_b
        won = np.where(takes_b, pair[:, 1], pair[:, 0])
        t = times[decided]
        busy = free[won]
        finish = np.where(busy < t, t, busy) + services[decided]
        free[won] = finish
        finish_of[seg_start[won] + filled[won]] = finish
        filled[won] += 1
    return np.where(second, hi, lo).astype(np.int64)


def _forced_applies(times: FloatArray, services: FloatArray, servers: IntArray) -> bool:
    """Whether :func:`_commit_forced` reproduces the event loop on this window.

    Arrival times must be non-decreasing and service times non-negative, so
    that each server's departures leave in arrival order and every departure
    is popped before the first later arrival at or after its time.  The
    rank rounds must average at least ``_FORCED_ROUND_ARRIVALS`` arrivals,
    or their per-round overhead outweighs the loop.
    """
    m = int(times.size)
    return bool(
        np.all(times[1:] >= times[:-1])
        and np.all(services >= 0.0)
        and int(np.bincount(servers).max()) * _FORCED_ROUND_ARRIVALS <= m
    )


def _accumulated(total: float, terms: FloatArray) -> float:
    """``total`` plus every term, added one at a time in array order.

    ``np.add.accumulate`` adds sequentially (no pairwise summation), so this
    is bit for bit the event loop's ``total += term`` over the same terms.
    """
    acc = np.empty(terms.size + 1, dtype=np.float64)
    acc[0] = total
    acc[1:] = terms
    return float(np.add.accumulate(acc, out=acc)[-1])


def _fifo_rounds(
    t: FloatArray,
    services: FloatArray,
    order: IntArray,
    seg_starts: IntArray,
    seg_counts: IntArray,
    free: FloatArray,
) -> tuple[FloatArray, FloatArray]:
    """Every arrival's service start and finish time, in arrival order.

    ``order`` lists the arrivals grouped by server, each group in arrival
    order; group ``g`` starts at ``seg_starts[g]``, has ``seg_counts[g]``
    members, and its server is busy until ``free[g]`` (updated in place).
    Round ``r`` serves every group's ``r``-th arrival at
    ``max(busy, t) + service``, with the loop's comparison.
    """
    t_srv, services_srv = t[order], services[order]
    start_srv = np.empty(t.size, dtype=np.float64)
    finish_srv = np.empty(t.size, dtype=np.float64)
    active = np.arange(seg_starts.size, dtype=np.int64)
    r = 0
    while active.size:
        pos = seg_starts[active] + r
        now, prev = t_srv[pos], free[active]
        begin = np.where(prev < now, now, prev)
        done = begin + services_srv[pos]
        free[active] = done
        start_srv[pos] = begin
        finish_srv[pos] = done
        r += 1
        active = active[seg_counts[active] > r]
    start = np.empty(t.size, dtype=np.float64)
    start[order] = start_srv
    finish = np.empty(t.size, dtype=np.float64)
    finish[order] = finish_srv
    return start, finish


def _area_after(
    area: float, clock: float, in_system: int, t: FloatArray, deps_t: FloatArray, deps_at: IntArray
) -> float:
    """``area_queue`` after the loop's events: each departure, then arrival ``i``.

    ``deps_t`` are the popped departures in pop order and ``deps_at[j]`` the
    arrival departure ``j`` is popped before.  Every event adds
    ``in_system * (time - clock)`` and moves the clock to its time.
    """
    total = t.size + deps_t.size
    arrival_at = np.arange(t.size, dtype=np.int64) + np.cumsum(
        np.bincount(deps_at, minlength=t.size)
    )
    departure_at = np.arange(deps_t.size, dtype=np.int64) + deps_at
    when = np.empty(total, dtype=np.float64)
    when[arrival_at] = t
    when[departure_at] = deps_t
    step = np.empty(total, dtype=np.int64)
    step[arrival_at] = 1
    step[departure_at] = -1
    count = np.empty(total, dtype=np.int64)
    count[0] = 0
    np.cumsum(step[:-1], out=count[1:])
    count += in_system
    gap = np.empty(total, dtype=np.float64)
    gap[0] = when[0] - clock
    np.subtract(when[1:], when[:-1], out=gap[1:])
    return _accumulated(area, count * gap)


def _commit_forced(
    state: QueueingState,
    times: FloatArray,
    services: FloatArray,
    servers: IntArray,
    due: tuple[FloatArray, IntArray, IntArray],
) -> None:
    """The event loop's effect on ``state`` when arrival ``i`` must go to ``servers[i]``.

    ``due`` holds the departures already popped off ``state.events`` that
    are due by the last arrival (:func:`_pop_due`); the heap holds the rest.
    No decision is left to make, so the window is replayed as whole-array
    passes, in chunks of at most ``_FORCED_CHUNK`` arrivals:

    * each server's FIFO start and finish times, ``max(busy, t) + service``
      in arrival order, are computed in rank rounds (:func:`_fifo_rounds`);
    * a departure is popped where the loop pops it: before the first
      arrival at or after its time, never before its own arrival's
      successor; departures popped before one arrival go in ``(time, id)``
      order, the heap's order;
    * ``area_queue``, ``sum_wait`` and ``sum_sojourn`` add their terms in
      event order with ``np.add.accumulate`` (:func:`_accumulated`);
    * every queue length an arrival sees comes from per-server running
      counts of arrivals and popped departures, and ``max_queue`` from them;
    * departures still pending after the last arrival go onto the heap.

    The heap may be laid out differently from the loop's, but it holds the
    same events and keeps the ``heapq`` invariant.
    """
    queue, busy, events = state.queue_lengths, state.busy_until, state.events
    # Departures not yet popped, (time, id) order: the due ones, then those
    # pushed by earlier chunks.
    carry_t, carry_id, carry_s = due
    for lo in range(0, int(times.size), _FORCED_CHUNK):
        hi = min(int(times.size), lo + _FORCED_CHUNK)
        t, s = times[lo:hi], servers[lo:hi].astype(np.int64)
        k = hi - lo
        last = float(t[-1])
        first_id = state.next_event_id

        # Arrivals grouped by server, each group in arrival order.
        key = s * k + np.arange(k, dtype=np.int64)
        key.sort()
        srv = key // k
        order = key - srv * k
        head = np.empty(k, dtype=bool)
        head[0] = True
        np.not_equal(srv[1:], srv[:-1], out=head[1:])
        seg_starts = np.flatnonzero(head)
        seg_counts = np.diff(np.append(seg_starts, k))
        seg = np.cumsum(head) - 1
        uniq = srv[seg_starts].tolist()
        q0 = np.fromiter(map(queue.__getitem__, uniq), dtype=np.int64, count=len(uniq))
        free = np.fromiter(map(busy.__getitem__, uniq), dtype=np.float64, count=len(uniq))
        start, finish = _fifo_rounds(t, services[lo:hi], order, seg_starts, seg_counts, free)
        state.sum_wait = _accumulated(state.sum_wait, start - t)
        state.sum_sojourn = _accumulated(state.sum_sojourn, finish - t)

        # The chunk's departures in (time, id) order: ids follow arrivals,
        # so a stable sort breaks time ties by id.  The last job departs no
        # earlier than the next chunk's first arrival.
        dep_order = np.argsort(finish)
        dep_t = finish[dep_order]
        if k > 1 and np.any(dep_t[1:] == dep_t[:-1]):
            dep_order = np.argsort(finish, kind="stable")
            dep_t = finish[dep_order]
        pending = (dep_t > last) | (dep_order == k - 1)
        popped = dep_order[~pending]
        # Older departures due by the last arrival, in (time, id) order.
        due_carry = carry_t <= last
        old_t, old_s = carry_t[due_carry], carry_s[due_carry]
        carry_t, carry_id, carry_s = carry_t[~due_carry], carry_id[~due_carry], carry_s[~due_carry]

        # Every popped departure in pop order, with the arrival it precedes.
        deps_t = np.concatenate([old_t, dep_t[~pending]])
        floor = np.concatenate([np.zeros(old_t.size, dtype=np.int64), popped + 1])
        is_old = np.arange(deps_t.size) < old_t.size
        if old_t.size:
            merged = np.argsort(deps_t, kind="stable")
            deps_t, floor, is_old = deps_t[merged], floor[merged], is_old[merged]
            old_s = old_s[merged[is_old]]
        deps_at = np.maximum(np.searchsorted(t, deps_t, side="left"), floor)
        state.area_queue = _area_after(
            state.area_queue, state.clock, state.in_system, t, deps_t, deps_at
        )

        # Queue lengths: the server's queue before the chunk, plus its
        # arrivals so far, minus its departures popped before this arrival
        # (the chunk's own, found per server group, then older ones).
        pop_at = np.full(k, k, dtype=np.int64)
        pop_at[popped] = deps_at[~is_old]
        pop_at_srv = pop_at[order]
        load = q0[seg] + np.arange(1, k + 1, dtype=np.int64) - seg_starts[seg]
        base = seg * (k + 1)
        load -= np.searchsorted(base + pop_at_srv, base + order, side="right") - seg_starts[seg]
        if old_t.size:
            old_key = np.sort(old_s * (k + 1) + deps_at[is_old])
            base = srv * (k + 1)
            load -= np.searchsorted(old_key, base + order, side="right")
            load += np.searchsorted(old_key, base, side="left")
        state.max_queue = max(state.max_queue, int(load.max()))
        q_end = q0 + seg_counts - np.add.reduceat(pop_at_srv < k, seg_starts)
        for server, length, until in zip(uniq, q_end.tolist(), free.tolist()):
            queue[server] = length
            busy[server] = until
        for server in old_s.tolist():
            queue[server] -= 1

        state.completed += int(deps_t.size)
        state.in_system += k - int(deps_t.size)
        state.clock = last
        state.next_event_id = first_id + k
        state.num_arrivals += k

        # Pending departures join the carry, which stays in (time, id) order.
        pend = dep_order[pending]
        carry_t = np.concatenate([carry_t, dep_t[pending]])
        carry_id = np.concatenate([carry_id, pend + first_id])
        carry_s = np.concatenate([carry_s, s[pend]])
        if carry_t.size > pend.size:
            resort = np.argsort(carry_t, kind="stable")
            carry_t, carry_id, carry_s = carry_t[resort], carry_id[resort], carry_s[resort]

    pending_events = list(zip(carry_t.tolist(), carry_id.tolist(), carry_s.tolist()))
    if not events:
        events.extend(pending_events)  # sorted, so already a heap
    elif len(pending_events) >= len(events):
        events.extend(pending_events)
        heapq.heapify(events)
    else:
        for event in pending_events:
            heapq.heappush(events, event)


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
