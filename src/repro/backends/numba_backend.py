"""Numba-compiled commit loops: the ``numba`` engine of both families.

The sequential commit phases of both stacks — the static d-choice loops in
:mod:`repro.kernels.commit` and the supermarket event loop in
:mod:`repro.kernels.queueing` — deliberately operate on flat int64/float64
arrays with no topology queries and no RNG calls, which is exactly the shape
``numba.njit`` compiles well:

* the three static loops are *not* copied here: ``njit`` compiles
  :mod:`repro.kernels.commit`'s own loop functions, whose pure-Python
  wrappers run the same code on lists.  :func:`commit_least_loaded_of_sample`,
  :func:`commit_least_loaded_scan` and :func:`commit_threshold_hybrid` keep
  the signatures of those wrappers, so :mod:`repro.kernels.engine` runs
  unchanged with the compiled loop swapped in through its ``commit`` hook;
* the queueing event loop (:func:`commit_window`, which the ``batch``
  engine runs as plain Python) is transcribed, because it replaces the
  ``heapq`` departure heap with an array-based binary heap ordered by the
  same ``(time, id)`` key — event ids are unique, so pop order (and
  therefore every float accumulation) is identical to ``heapq``'s, and the
  heap array written back to :class:`~repro.kernels.queueing.QueueingState`
  satisfies the ``heapq`` invariant for whoever drains it next.

Bit-identity is the contract, not a hope: the loops perform the same integer
comparisons, the same ``floor(u * t)`` tie rule and the same float additions
in the same order as the Python engines, so the differential suites hold the
``numba`` engine to exact equality with ``reference``.

When numba is not importable the module still imports — ``@njit`` degrades
to a no-op decorator — so the same operation tables run as plain Python
(``tests/test_backends_numba_fallback.py`` holds them to the reference
engine).  The engine table (:mod:`repro.backends.registry`), however, only
offers the ``numba`` engine where numba is importable; without it,
``"auto"`` falls back to the ``batch`` engine and explicit
``engine="numba"`` requests raise
:class:`~repro.exceptions.UnknownEngineError`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import commit
from repro.types import FloatArray, IntArray

__all__ = [
    "NUMBA_AVAILABLE",
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
    "commit_window",
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
# The static loops are compiled from their one definition in
# repro.kernels.commit (without numba, these names are those functions).
_least_loaded_of_sample_core = njit(cache=True)(commit.least_loaded_of_sample_loop)
_least_loaded_scan_core = njit(cache=True)(commit.least_loaded_scan_loop)
_threshold_hybrid_core = njit(cache=True)(commit.threshold_hybrid_loop)


def _static_commit(core, num_nodes, m, initial_loads, *inputs):
    """Run a compiled static loop over ``inputs``: the shared wrapper body."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = (
        np.zeros(int(num_nodes), dtype=np.int64)
        if initial_loads is None
        else initial_loads
    )
    out = np.empty(m, dtype=np.int64)
    core(*inputs, loads, out)
    return out


def commit_least_loaded_of_sample(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Compiled drop-in for :func:`repro.kernels.commit.commit_least_loaded_of_sample`."""
    return _static_commit(
        _least_loaded_of_sample_core,
        num_nodes,
        int(sample_counts.size),
        initial_loads,
        np.asarray(sample_nodes, dtype=np.int64),
        np.asarray(sample_indptr, dtype=np.int64),
        np.asarray(tie_uniforms, dtype=np.float64),
    )


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
    return _static_commit(
        _least_loaded_scan_core,
        num_nodes,
        int(request_starts.size),
        initial_loads,
        np.asarray(cand_nodes, dtype=np.int64),
        np.asarray(cand_dists, dtype=np.int64),
        np.asarray(request_starts, dtype=np.int64),
        np.asarray(request_counts, dtype=np.int64),
        np.asarray(tie_uniforms, dtype=np.float64),
    )


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
    return _static_commit(
        _threshold_hybrid_core,
        num_nodes,
        int(sample_indptr.size) - 1,
        initial_loads,
        np.asarray(sample_nodes, dtype=np.int64),
        np.asarray(sample_dists, dtype=np.int64),
        np.asarray(sample_indptr, dtype=np.int64),
        float(threshold),
        np.asarray(tie_uniforms, dtype=np.float64),
    )


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
