"""Numba-compiled commit loops: the first payoff backend of the registry.

The sequential commit phases of both stacks — the static d-choice loops in
:mod:`repro.kernels.commit` and the supermarket event loop in
:mod:`repro.kernels.queueing` — deliberately operate on flat int64/float64
arrays with no topology queries and no RNG calls, which is exactly the shape
``numba.njit`` compiles well.  This module transcribes them 1:1:

* the three static commit loops
  (:func:`commit_least_loaded_of_sample`, :func:`commit_least_loaded_scan`,
  :func:`commit_threshold_hybrid`) keep the signatures of their pure-Python
  originals, so :mod:`repro.kernels.engine` runs unchanged with the compiled
  loop swapped in through its ``commit`` hook;
* the queueing event loop (:func:`commit_window`) replaces the ``heapq``
  departure heap with an array-based binary heap ordered by the same
  ``(time, id)`` key — event ids are unique, so pop order (and therefore
  every float accumulation) is identical to ``heapq``'s, and the heap array
  written back to :class:`~repro.kernels.queueing.QueueingState` satisfies
  the ``heapq`` invariant for whoever drains it next.

Bit-identity is the contract, not a hope: the loops perform the same integer
comparisons, the same ``floor(u * t)`` tie rule and the same float additions
in the same order as the Python engines, so the differential suites hold the
``numba`` engine to exact equality with ``reference``.

When numba is not importable the module still imports — ``@njit`` degrades
to a no-op decorator — so the transcriptions themselves stay testable
(``tests/test_backends_numba_fallback.py`` runs them in pure Python against
the reference engine).  The registry, however, only offers the ``numba``
engine when ``import numba`` succeeds; without it, ``"auto"`` falls back to
the ``batch`` engine and explicit ``engine="numba"`` requests raise
:class:`~repro.exceptions.UnknownEngineError`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.loads import as_load_array
from repro.types import FloatArray, IntArray

__all__ = [
    "NUMBA_AVAILABLE",
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
    "commit_window",
    "repair_round_of_sample",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default offline environment
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op stand-in so the loops below run (slowly) as plain Python."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


# ----------------------------------------------------------- static commits
@njit(cache=True)
def _least_loaded_of_sample_core(nodes, indptr, uniforms, loads, out):
    m = indptr.shape[0] - 1
    for i in range(m):
        start = indptr[i]
        end = indptr[i + 1]
        best = loads[nodes[start]]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < best:
                best = load
                ties = 1
                pick = j
            elif load == best:
                ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] == best:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


def commit_least_loaded_of_sample(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Compiled drop-in for :func:`repro.kernels.commit.commit_least_loaded_of_sample`."""
    m = int(sample_counts.size)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = (
        np.zeros(int(num_nodes), dtype=np.int64)
        if initial_loads is None
        else as_load_array(initial_loads)
    )
    out = np.empty(m, dtype=np.int64)
    _least_loaded_of_sample_core(
        np.asarray(sample_nodes, dtype=np.int64),
        np.asarray(sample_indptr, dtype=np.int64),
        np.asarray(tie_uniforms, dtype=np.float64),
        loads,
        out,
    )
    return out


@njit(cache=True)
def _repair_round_core(loads, nodes, indptr, uniforms, first, sentinel, picks, safe):
    num_active = indptr.shape[0] - 1
    # Pass 1: earliest active toucher per node (reverse order so the lowest
    # request position wins on duplicates).
    for s in range(num_active - 1, -1, -1):
        for j in range(indptr[s], indptr[s + 1]):
            first[nodes[j]] = s
    # Pass 2: winner + first-toucher safety; safe winners commit in place.
    # A safe request's candidates are untouched by every earlier active, so
    # the in-loop bumps cannot reach the loads it reads — its pick equals the
    # frozen-loads pick the numpy rounds compute.
    for s in range(num_active):
        start = indptr[s]
        end = indptr[s + 1]
        ok = first[nodes[start]] == s
        best = loads[nodes[start]]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            node = nodes[j]
            if first[node] != s:
                ok = False
            load = loads[node]
            if load < best:
                best = load
                ties = 1
                pick = j
            elif load == best:
                ties += 1
        if ties > 1:
            k = int(uniforms[s] * ties)
            for j in range(start, end):
                if loads[nodes[j]] == best:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        picks[s] = pick
        safe[s] = ok
        if ok:
            loads[nodes[pick]] += 1
    # Pass 3: restore the scratch sentinel for the next round.
    for j in range(nodes.shape[0]):
        first[nodes[j]] = sentinel


def repair_round_of_sample(
    loads: IntArray,
    nodes: IntArray,
    indptr: IntArray,
    uniforms: np.ndarray,
    first: IntArray,
    sentinel: int,
):
    """One compiled speculate-and-repair round of the of_sample family.

    The fused form of a :mod:`repro.kernels.batch_commit` round: speculative
    winner per CSR segment, first-toucher safety, and the load bumps of the
    safe set — one pass instead of a dozen vector operations.  ``first`` is
    the caller's per-node scratch (filled with ``sentinel``; restored before
    returning).  Returns ``(picks, safe)`` where ``picks`` holds flat
    candidate positions (only meaningful where ``safe``) and the safe
    winners' loads are already bumped.
    """
    num_active = int(indptr.size) - 1
    picks = np.empty(num_active, dtype=np.int64)
    safe = np.empty(num_active, dtype=np.bool_)
    _repair_round_core(
        loads,
        nodes,
        indptr,
        uniforms,
        first,
        np.int64(sentinel),
        picks,
        safe,
    )
    return picks, safe


@njit(cache=True)
def _least_loaded_scan_core(nodes, dists, starts, counts, uniforms, loads, out):
    m = starts.shape[0]
    for i in range(m):
        start = starts[i]
        end = start + counts[i]
        best_load = loads[nodes[start]]
        best_dist = dists[start]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < best_load:
                best_load = load
                best_dist = dists[j]
                ties = 1
                pick = j
            elif load == best_load:
                dist = dists[j]
                if dist < best_dist:
                    best_dist = dist
                    ties = 1
                    pick = j
                elif dist == best_dist:
                    ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] == best_load and dists[j] == best_dist:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


def commit_least_loaded_scan(
    num_nodes: int,
    cand_nodes: IntArray,
    cand_dists: IntArray,
    request_starts: IntArray,
    request_counts: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Compiled drop-in for :func:`repro.kernels.commit.commit_least_loaded_scan`."""
    m = int(request_starts.size)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = (
        np.zeros(int(num_nodes), dtype=np.int64)
        if initial_loads is None
        else as_load_array(initial_loads)
    )
    out = np.empty(m, dtype=np.int64)
    _least_loaded_scan_core(
        np.asarray(cand_nodes, dtype=np.int64),
        np.asarray(cand_dists, dtype=np.int64),
        np.asarray(request_starts, dtype=np.int64),
        np.asarray(request_counts, dtype=np.int64),
        np.asarray(tie_uniforms, dtype=np.float64),
        loads,
        out,
    )
    return out


@njit(cache=True)
def _threshold_hybrid_core(nodes, dists, indptr, threshold, uniforms, loads, out):
    m = indptr.shape[0] - 1
    for i in range(m):
        start = indptr[i]
        end = indptr[i + 1]
        min_load = loads[nodes[start]]
        for j in range(start + 1, end):
            load = loads[nodes[j]]
            if load < min_load:
                min_load = load
        limit = min_load + threshold
        found = False
        best_dist = dists[start]
        ties = 0
        pick = start
        for j in range(start, end):
            if loads[nodes[j]] <= limit:
                dist = dists[j]
                if not found or dist < best_dist:
                    found = True
                    best_dist = dist
                    ties = 1
                    pick = j
                elif dist == best_dist:
                    ties += 1
        if ties > 1:
            k = int(uniforms[i] * ties)
            for j in range(start, end):
                if loads[nodes[j]] <= limit and dists[j] == best_dist:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        loads[nodes[pick]] += 1
        out[i] = pick


def commit_threshold_hybrid(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_dists: IntArray,
    sample_indptr: IntArray,
    threshold: float,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Compiled drop-in for :func:`repro.kernels.commit.commit_threshold_hybrid`."""
    m = int(sample_indptr.size) - 1
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = (
        np.zeros(int(num_nodes), dtype=np.int64)
        if initial_loads is None
        else as_load_array(initial_loads)
    )
    out = np.empty(m, dtype=np.int64)
    _threshold_hybrid_core(
        np.asarray(sample_nodes, dtype=np.int64),
        np.asarray(sample_dists, dtype=np.int64),
        np.asarray(sample_indptr, dtype=np.int64),
        float(threshold),
        np.asarray(tie_uniforms, dtype=np.float64),
        loads,
        out,
    )
    return out


# --------------------------------------------------------- queueing commit
@njit(cache=True)
def _heap_push(ev_times, ev_ids, ev_servers, size, t, eid, server):
    i = size
    ev_times[i] = t
    ev_ids[i] = eid
    ev_servers[i] = server
    while i > 0:
        parent = (i - 1) >> 1
        if ev_times[i] < ev_times[parent] or (
            ev_times[i] == ev_times[parent] and ev_ids[i] < ev_ids[parent]
        ):
            ev_times[i], ev_times[parent] = ev_times[parent], ev_times[i]
            ev_ids[i], ev_ids[parent] = ev_ids[parent], ev_ids[i]
            ev_servers[i], ev_servers[parent] = ev_servers[parent], ev_servers[i]
            i = parent
        else:
            break
    return size + 1


@njit(cache=True)
def _heap_pop(ev_times, ev_ids, ev_servers, size):
    last = size - 1
    ev_times[0] = ev_times[last]
    ev_ids[0] = ev_ids[last]
    ev_servers[0] = ev_servers[last]
    size = last
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        child = left
        right = left + 1
        if right < size and (
            ev_times[right] < ev_times[left]
            or (ev_times[right] == ev_times[left] and ev_ids[right] < ev_ids[left])
        ):
            child = right
        if ev_times[child] < ev_times[i] or (
            ev_times[child] == ev_times[i] and ev_ids[child] < ev_ids[i]
        ):
            ev_times[i], ev_times[child] = ev_times[child], ev_times[i]
            ev_ids[i], ev_ids[child] = ev_ids[child], ev_ids[i]
            ev_servers[i], ev_servers[child] = ev_servers[child], ev_servers[i]
            i = child
        else:
            break
    return size


@njit(cache=True)
def _queueing_window_core(
    queue,
    busy,
    ev_times,
    ev_ids,
    ev_servers,
    heap_size,
    next_event_id,
    clock,
    in_system,
    area,
    completed,
    max_queue,
    sum_wait,
    sum_sojourn,
    times,
    services,
    tie_uniforms,
    sample_nodes,
    sample_indptr,
    out,
):
    m = times.shape[0]
    for i in range(m):
        now = times[i]
        while heap_size > 0 and ev_times[0] <= now:
            dep_time = ev_times[0]
            dep_server = ev_servers[0]
            heap_size = _heap_pop(ev_times, ev_ids, ev_servers, heap_size)
            area += in_system * (dep_time - clock)
            clock = dep_time
            queue[dep_server] -= 1
            in_system -= 1
            completed += 1
        area += in_system * (now - clock)
        clock = now

        start = sample_indptr[i]
        end = sample_indptr[i + 1]
        best = queue[sample_nodes[start]]
        ties = 1
        pick = start
        for j in range(start + 1, end):
            load = queue[sample_nodes[j]]
            if load < best:
                best = load
                ties = 1
                pick = j
            elif load == best:
                ties += 1
        if ties > 1:
            k = int(tie_uniforms[i] * ties)
            for j in range(start, end):
                if queue[sample_nodes[j]] == best:
                    if k == 0:
                        pick = j
                        break
                    k -= 1
        server = sample_nodes[pick]

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
        heap_size = _heap_push(
            ev_times, ev_ids, ev_servers, heap_size, finish, next_event_id, server
        )
        next_event_id += 1
        out[i] = pick
    return (
        heap_size,
        next_event_id,
        clock,
        in_system,
        area,
        completed,
        max_queue,
        sum_wait,
        sum_sojourn,
    )


def commit_window(
    state,
    times: FloatArray,
    services: FloatArray,
    tie_uniforms: FloatArray,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
) -> IntArray:
    """Compiled drop-in for :func:`repro.kernels.queueing.commit_window`.

    Unpacks the :class:`~repro.kernels.queueing.QueueingState` into flat
    arrays, runs the compiled event loop, and writes the state back — the
    returned departure heap is array-ordered but satisfies the ``heapq``
    invariant under the ``(time, id)`` key, so the shared
    :func:`~repro.kernels.queueing.drain_departures` keeps working on it.
    """
    del sample_counts  # the general loop covers the d = 2 fast path
    m = int(times.size)
    queue = np.asarray(state.queue_lengths, dtype=np.int64)
    busy = np.asarray(state.busy_until, dtype=np.float64)
    heap_size = len(state.events)
    capacity = heap_size + m
    ev_times = np.zeros(capacity, dtype=np.float64)
    ev_ids = np.zeros(capacity, dtype=np.int64)
    ev_servers = np.zeros(capacity, dtype=np.int64)
    for index, (event_time, event_id, server) in enumerate(state.events):
        ev_times[index] = event_time
        ev_ids[index] = event_id
        ev_servers[index] = server
    out = np.empty(m, dtype=np.int64)
    (
        heap_size,
        next_event_id,
        clock,
        in_system,
        area,
        completed,
        max_queue,
        sum_wait,
        sum_sojourn,
    ) = _queueing_window_core(
        queue,
        busy,
        ev_times,
        ev_ids,
        ev_servers,
        heap_size,
        state.next_event_id,
        state.clock,
        state.in_system,
        state.area_queue,
        state.completed,
        state.max_queue,
        state.sum_wait,
        state.sum_sojourn,
        np.asarray(times, dtype=np.float64),
        np.asarray(services, dtype=np.float64),
        np.asarray(tie_uniforms, dtype=np.float64),
        np.asarray(sample_nodes, dtype=np.int64),
        np.asarray(sample_indptr, dtype=np.int64),
        out,
    )
    state.queue_lengths = queue.tolist()
    state.busy_until = busy.tolist()
    state.events = [
        (float(ev_times[i]), int(ev_ids[i]), int(ev_servers[i]))
        for i in range(int(heap_size))
    ]
    state.next_event_id = int(next_event_id)
    state.clock = float(clock)
    state.in_system = int(in_system)
    state.area_queue = float(area)
    state.completed = int(completed)
    state.max_queue = int(max_queue)
    state.sum_wait = float(sum_wait)
    state.sum_sojourn = float(sum_sojourn)
    state.num_arrivals += m
    return out
