"""The sequential commit phase: tight loops over pre-materialised arrays.

Everything that does not depend on the evolving load vector happens in the
precompute phase; what remains — for every request, inspect the loads of its
(pre-sampled) candidates, pick a winner, bump its load — is inherently
sequential and lives here.

Each static rule is one loop function (:func:`least_loaded_of_sample_loop`,
:func:`least_loaded_scan_loop`, :func:`threshold_hybrid_loop`) written so the
same code runs on Python lists and, compiled, on int64/float64 arrays: the
public wrappers below call it with ``tolist()``-ed inputs — per-iteration work
is then a handful of list index operations, with no numpy scalar boxing — and
:mod:`repro.backends.numba_backend` compiles the very same functions with
``numba.njit``.  A caller's int64 load vector (``initial_loads``) is converted
to a list on entry and written back on exit, an O(n) round-trip per call; the
engines commit whole windows through :mod:`repro.kernels.batch_commit` or
numba and reach these wrappers only as ``batch``'s fallback.

Tie-breaking consumes one pre-drawn uniform ``u`` per request (drawn whether
or not a tie occurs, so the stream position never depends on the loads): if
``t`` options tie, the winner is option ``floor(u * t)`` in candidate order.
The scalar reference engine implements the exact same rule, which is what
makes the engines bit-identical.

All functions return, per request, the *flat index* of the winning candidate
into the arrays they were given, so callers gather node ids and hop distances
vectorised afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = [
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
]


# ------------------------------------------------------------------- loops
# Each loop commits every request in order: it reads ``loads``, bumps the
# winner's entry and writes the winner's flat index to ``out[i]``.


def least_loaded_of_sample_loop(nodes, indptr, uniforms, loads, out):
    """Least loaded of request ``i``'s candidates ``indptr[i]:indptr[i + 1]``."""
    m = len(indptr) - 1
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


def least_loaded_scan_loop(nodes, dists, starts, counts, uniforms, loads, out):
    """Least loaded, then nearest, of each request's ``counts[i]`` candidates."""
    m = len(starts)
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


def threshold_hybrid_loop(nodes, dists, indptr, threshold, uniforms, loads, out):
    """Nearest sampled candidate whose load is within ``threshold`` of the minimum."""
    m = len(indptr) - 1
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


# ---------------------------------------------------------------- wrappers
def _load_list(num_nodes, initial_loads):
    """The working load list: zeros, or a copy of the caller's int64 array."""
    return [0] * int(num_nodes) if initial_loads is None else initial_loads.tolist()


def _finish(out, loads, initial_loads):
    """Write the loads back into the caller's array; the picks as int64."""
    if initial_loads is not None:
        initial_loads[:] = loads
    return np.asarray(out, dtype=np.int64)


def commit_least_loaded_of_sample(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Strategy II commit: least loaded of each request's sampled candidates.

    Returns the flat index into ``sample_nodes`` of every request's winner.
    ``initial_loads``, an int64 array when given, seeds the load vector and
    is updated in place — the mechanism behind incremental (session)
    serving, where the loads persist across request windows.
    """
    m = int(sample_counts.size)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    nodes = sample_nodes.tolist()
    uniforms = tie_uniforms.tolist()
    loads = _load_list(num_nodes, initial_loads)
    out = [0] * m

    if sample_nodes.size == 2 * m and int(sample_counts.min()) == 2:
        # Fast path: the paper's d = 2 with every candidate set >= 2.
        for i in range(m):
            j = 2 * i
            a = nodes[j]
            b = nodes[j + 1]
            load_a = loads[a]
            load_b = loads[b]
            if load_a < load_b:
                winner, pick = a, j
            elif load_b < load_a:
                winner, pick = b, j + 1
            elif uniforms[i] < 0.5:
                winner, pick = a, j
            else:
                winner, pick = b, j + 1
            loads[winner] += 1
            out[i] = pick
    else:
        least_loaded_of_sample_loop(nodes, sample_indptr.tolist(), uniforms, loads, out)
    return _finish(out, loads, initial_loads)


def commit_least_loaded_scan(
    num_nodes: int,
    cand_nodes: IntArray,
    cand_dists: IntArray,
    request_starts: IntArray,
    request_counts: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Omniscient commit: scan every candidate, pick the least loaded.

    Ties on load prefer the smaller hop distance; residual ties resolve via
    the pre-drawn uniforms.  Returns flat indices into ``cand_nodes``.
    ``initial_loads`` seeds the persistent load vector and is updated in
    place, as in :func:`commit_least_loaded_of_sample`.
    """
    m = int(request_starts.size)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = _load_list(num_nodes, initial_loads)
    out = [0] * m
    least_loaded_scan_loop(
        cand_nodes.tolist(),
        cand_dists.tolist(),
        request_starts.tolist(),
        request_counts.tolist(),
        tie_uniforms.tolist(),
        loads,
        out,
    )
    return _finish(out, loads, initial_loads)


def commit_threshold_hybrid(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_dists: IntArray,
    sample_indptr: IntArray,
    threshold: float,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Hybrid commit: closest sampled candidate within the load threshold.

    A candidate is eligible when its load is at most ``min sampled load +
    threshold``; the closest eligible candidate wins, residual distance ties
    resolve via the pre-drawn uniforms.  Returns flat indices into
    ``sample_nodes``.  ``initial_loads`` seeds the persistent load vector
    and is updated in place, as in :func:`commit_least_loaded_of_sample`.
    """
    m = int(sample_indptr.size) - 1
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads = _load_list(num_nodes, initial_loads)
    out = [0] * m
    threshold_hybrid_loop(
        sample_nodes.tolist(),
        sample_dists.tolist(),
        sample_indptr.tolist(),
        threshold,
        tie_uniforms.tolist(),
        loads,
        out,
    )
    return _finish(out, loads, initial_loads)
