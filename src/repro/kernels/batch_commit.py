"""Speculate-and-repair batch commit: the vectorised ``batch`` engine.

The commit phase is sequential only in appearance.  Within a window, most
requests' candidate sets never collide, so the true dependency chain is far
shorter than the window: if two requests touch disjoint server sets, their
relative order cannot change either decision.  This module exploits that with
speculative rounds over a frozen load vector:

1. **Freeze** the loads and let every uncommitted request pick its winner
   *vectorised* — segmented argmin over the CSR candidate arrays, ties
   resolved by the same pre-drawn ``tie_uniforms`` the scalar loop would use
   (one uniform per request is consumed whether or not a tie occurs, so
   speculation never moves the RNG stream — see the RNG contract in
   :mod:`repro.kernels.commit`).
2. **Repair**: a request's speculative decision is provably equal to its
   sequential decision iff it is the *first toucher* of every node in its
   candidate set among the still-uncommitted requests — no earlier active
   request shares any of its candidates, so no earlier bump (present or
   future) can reach the loads it read.  The earliest toucher per node is one
   reversed scatter (``first[nodes[::-1]] = request_positions[::-1]``); a
   request is safe when the segmented minimum of ``first`` over its
   candidates equals its own position.
3. **Commit** the safe set: safe winners are necessarily distinct (a shared
   winner would make the later request unsafe), so a plain fancy-indexed
   ``loads[winners] += 1`` is exact.  Repeat on the shrinking remainder.

The head of the active set is always safe, so every round commits at least
one request; adversarial windows (every request fighting over one node)
degenerate to one commit per round, which is why a round committing below
``active >> 4`` falls back to the authoritative scalar loop of
:mod:`repro.kernels.commit` for the chunk's remainder — guaranteed progress
at scalar speed, bit-identical by construction.

Requests are processed in chunks (roughly ``n / 4`` requests per speculation
scope) so the collision rate per round stays low; each chunk drains
completely before the next begins, preserving sequential semantics across
chunks.

Every function here is a drop-in for its namesake in
:mod:`repro.kernels.commit` / :mod:`repro.kernels.queueing` — same
signatures, bit-identical outputs for any input — and is registered as the
``batch`` engine; :data:`DEFAULT_MAX_ROUNDS` caps the repair rounds per chunk
before the scalar fallback.  When numba is importable, the repair round of
the ``of_sample`` family runs as a single compiled pass
(:func:`repro.backends.numba_backend.repair_round_of_sample`).

The queueing variant batches the arrivals between consecutive departures:
arrivals strictly before the next due departure are speculated in one round,
and the *safe prefix* is committed through a scalar mini-loop that replays
the exact float accounting of :func:`repro.kernels.queueing.commit_window`
(the metric accumulators are order-dependent, so only prefixes commit).
Heavy traffic makes those segments short; after a few consecutive short or
low-progress rounds the window falls back to the scalar event loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.kernels import commit as _scalar
from repro.kernels.loads import LoadVector
from repro.types import IntArray

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "BatchCommitStats",
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
    "commit_window",
    "get_last_stats",
]

#: Repair rounds per chunk before the scalar fallback (read at call time, so
#: tests lower or lift the cap by patching it).
DEFAULT_MAX_ROUNDS = 32

#: A round committing fewer than ``active >> _PROGRESS_SHIFT`` requests
#: triggers the scalar fallback for the chunk remainder (tests lower the
#: aggressiveness by raising this).
_PROGRESS_SHIFT = 4

#: Queueing: speculation lookahead (arrivals per round) and the segment /
#: commit sizes below which speculation is judged not to pay.
_LOOKAHEAD = 4096
_QUEUE_MIN_SEGMENT = 8
_QUEUE_MIN_COMMITS = 8

_SENTINEL = np.int64(2**62)
_SCRATCH: dict[int, np.ndarray] = {}


@dataclass
class BatchCommitStats:
    """Diagnostics of the most recent batch commit call (see :func:`get_last_stats`).

    ``rounds`` counts speculative repair rounds; ``chunks`` the speculation
    scopes; ``committed_vectorised`` / ``committed_scalar`` how many requests
    each path retired; ``fallbacks`` how many times the scalar fallback
    (round cap or low progress) was taken.
    """

    rounds: int = 0
    chunks: int = 0
    committed_vectorised: int = 0
    committed_scalar: int = 0
    fallbacks: int = 0


_LAST_STATS = BatchCommitStats()


def get_last_stats() -> BatchCommitStats:
    """Stats of the most recent batch commit call (diagnostic, not thread-safe)."""
    return _LAST_STATS


def _reset_stats() -> BatchCommitStats:
    global _LAST_STATS
    _LAST_STATS = BatchCommitStats()
    return _LAST_STATS


# ------------------------------------------------------------------ plumbing
def _scratch(num_nodes: int) -> np.ndarray:
    """The persistent first-toucher scratch for ``num_nodes`` servers.

    Filled with the sentinel; every user must reset the entries it touched
    before returning.  Cached per size so tiny windows never pay an O(n)
    allocation (the point of the array-native load path).
    """
    arr = _SCRATCH.get(num_nodes)
    if arr is None:
        if len(_SCRATCH) >= 4:
            _SCRATCH.pop(next(iter(_SCRATCH)))
        arr = np.full(num_nodes, _SENTINEL, dtype=np.int64)
        _SCRATCH[num_nodes] = arr
    return arr


_EPOCH = 1


def _pairs_scratch(num_nodes: int) -> np.ndarray:
    """Epoch-stamped first-toucher scratch for the width-2 driver.

    Stamps are ``epoch_base + row`` with a monotonically increasing module
    epoch, so any value below the current round's base is stale by
    construction and the per-round O(touched) reset scatter disappears.
    Keyed negatively so it never collides with the sentinel scratch.
    """
    key = -int(num_nodes) - 1
    arr = _SCRATCH.get(key)
    if arr is None:
        if len(_SCRATCH) >= 4:
            _SCRATCH.pop(next(iter(_SCRATCH)))
        arr = np.zeros(int(num_nodes), dtype=np.int64)
        _SCRATCH[key] = arr
    return arr


def _resolve_loads(num_nodes, initial_loads):
    """The int64 working load array plus the object to write back into."""
    if initial_loads is None:
        return np.zeros(int(num_nodes), dtype=np.int64), None
    if isinstance(initial_loads, LoadVector):
        return initial_loads.as_array(), None
    if isinstance(initial_loads, np.ndarray) and initial_loads.dtype == np.int64:
        return initial_loads, None
    work = np.asarray(initial_loads, dtype=np.int64).copy()
    return work, initial_loads


def _layout(counts: IntArray) -> IntArray:
    iptr = np.empty(counts.size + 1, dtype=np.int64)
    iptr[0] = 0
    np.cumsum(counts, out=iptr[1:])
    return iptr


def _chunk_size(num_nodes: int) -> int:
    return max(2048, num_nodes // 4)


_NUMBA_ROUND = None
_NUMBA_CHECKED = False


def _numba_round():
    """The compiled repair round of the of_sample family, when importable."""
    global _NUMBA_ROUND, _NUMBA_CHECKED
    if not _NUMBA_CHECKED:
        _NUMBA_CHECKED = True
        try:
            from repro.backends import numba_backend as nb
        except ImportError:  # pragma: no cover - backends always importable
            nb = None
        if nb is not None and nb.NUMBA_AVAILABLE:
            _NUMBA_ROUND = nb.repair_round_of_sample
    return _NUMBA_ROUND


# ------------------------------------------------------------ round building
def _pick_uniform(loads: IntArray, cand: np.ndarray, u: np.ndarray) -> IntArray:
    """Winning column per row of a fixed-width candidate matrix."""
    gathered = loads[cand]
    best = gathered.min(axis=1)
    is_min = gathered == best[:, None]
    ties = is_min.sum(axis=1)
    k = (u * ties).astype(np.int64)
    csum = np.cumsum(is_min, axis=1)
    return np.argmax(csum == (k + 1)[:, None], axis=1)


def _safe_uniform(first: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """First-toucher safety per row of a fixed-width candidate matrix."""
    num_active = cand.shape[0]
    flat = cand.ravel()
    rows = np.repeat(np.arange(num_active, dtype=np.int64), cand.shape[1])
    first[flat[::-1]] = rows[::-1]
    try:
        seg_first = first[cand].min(axis=1)
    finally:
        first[flat] = _SENTINEL
    return seg_first == np.arange(num_active)


def _safe_csr(first: np.ndarray, nd: IntArray, counts: IntArray, seg_starts: IntArray) -> np.ndarray:
    """First-toucher safety per segment of a compact CSR candidate layout."""
    num_active = counts.size
    rows = np.repeat(np.arange(num_active, dtype=np.int64), counts)
    first[nd[::-1]] = rows[::-1]
    try:
        seg_first = np.minimum.reduceat(first[nd], seg_starts)
    finally:
        first[nd] = _SENTINEL
    return seg_first == np.arange(num_active)


def _kth_tied(
    is_best: np.ndarray, counts: IntArray, seg_starts: IntArray, u: np.ndarray
) -> IntArray:
    """Flat position of the ``floor(u * t)``-th best candidate per segment."""
    ties = np.add.reduceat(is_best.astype(np.int64), seg_starts)
    k = (u * ties).astype(np.int64)
    csum = np.cumsum(is_best, dtype=np.int64)
    prev = csum[seg_starts] - is_best[seg_starts]
    within = csum - np.repeat(prev, counts)
    sel = is_best & (within == np.repeat(k + 1, counts))
    return np.flatnonzero(sel)


def _speculate_of_sample(loads, nd, dd, counts, iptr, u):
    seg_starts = iptr[:-1]
    gathered = loads[nd]
    seg_min = np.minimum.reduceat(gathered, seg_starts)
    is_min = gathered == np.repeat(seg_min, counts)
    return _kth_tied(is_min, counts, seg_starts, u)


def _speculate_scan(loads, nd, dd, counts, iptr, u, shift):
    # Lexicographic (load, dist) via one combined int64 key: the minimum-key
    # set is exactly the scalar loop's "min load, then min dist" tie set.
    seg_starts = iptr[:-1]
    key = loads[nd] * shift + dd
    seg_min = np.minimum.reduceat(key, seg_starts)
    is_min = key == np.repeat(seg_min, counts)
    return _kth_tied(is_min, counts, seg_starts, u)


def _speculate_hybrid(loads, nd, dd, counts, iptr, u, threshold):
    seg_starts = iptr[:-1]
    gathered = loads[nd]
    seg_min = np.minimum.reduceat(gathered, seg_starts)
    # int64 <= float64 matches the scalar loop's int <= float comparison for
    # any realistic load (exact below 2**53).
    eligible = gathered <= np.repeat(seg_min + threshold, counts)
    masked = np.where(eligible, dd, _SENTINEL)
    seg_mind = np.minimum.reduceat(masked, seg_starts)
    is_best = eligible & (masked == np.repeat(seg_mind, counts))
    ties = np.add.reduceat(is_best.astype(np.int64), seg_starts)
    empty = ties == 0
    if np.any(empty):
        # Negative thresholds can empty the eligible set; the scalar loop
        # then keeps its initial pick — the segment's first candidate.
        is_best[seg_starts[empty]] = True
    k = (u * np.where(empty, 1, ties)).astype(np.int64)
    csum = np.cumsum(is_best, dtype=np.int64)
    prev = csum[seg_starts] - is_best[seg_starts]
    within = csum - np.repeat(prev, counts)
    sel = is_best & (within == np.repeat(k + 1, counts))
    return np.flatnonzero(sel)


# ------------------------------------------------------------- chunk drivers
def _drain_chunk_uniform(loads, nodes, width, lo, hi, uniforms, out, first, stats):
    """Repair rounds over a fixed-width chunk; returns the uncommitted ids."""
    req = np.arange(lo, hi, dtype=np.int64)
    cand = nodes[lo * width : hi * width].reshape(-1, width)
    u = uniforms[lo:hi]
    rounds = 0
    while req.size:
        if rounds >= DEFAULT_MAX_ROUNDS:
            return req
        active = req.size
        wcol = _pick_uniform(loads, cand, u)
        safe = _safe_uniform(first, cand)
        safe_idx = np.flatnonzero(safe)
        loads[cand[safe_idx, wcol[safe_idx]]] += 1
        committed = req[safe_idx]
        out[committed] = committed * width + wcol[safe_idx]
        rounds += 1
        stats.rounds += 1
        stats.committed_vectorised += safe_idx.size
        if safe_idx.size == active:
            return req[:0]
        keep = ~safe
        req = req[keep]
        cand = cand[keep]
        u = u[keep]
        if safe_idx.size < max(1, active >> _PROGRESS_SHIFT):
            return req
    return req


def _drain_chunk_pairs(loads, nodes, lo, hi, uniforms, out, stamp, stats):
    """Width-2 repair rounds in flat 1-D ops (the paper's d = 2 hot shape).

    Semantically identical to :func:`_drain_chunk_uniform` at ``width == 2``
    but avoids every 2-D fancy index / axis-1 reduction: with two candidates
    the tie rule collapses to ``u >= 1/2`` and segment minima to a single
    :func:`numpy.minimum`.  The first-toucher scatter writes epoch stamps
    (``base + row``) through a pre-reversed index so the lowest row wins with
    forward strides and nothing ever needs resetting — which together is what
    makes the batch engine actually beat the scalar loop on strategy II
    workloads.
    """
    global _EPOCH
    req = np.arange(lo, hi, dtype=np.int64)
    c0 = nodes[2 * lo : 2 * hi : 2]
    c1 = nodes[2 * lo + 1 : 2 * hi : 2]
    u = uniforms[lo:hi]
    width = hi - lo
    # Descending rows repeated pairwise; the tail slice of length 2*active is
    # exactly the reversed row array of any later (smaller) round.
    rows_rev = np.repeat(np.arange(width - 1, -1, -1, dtype=np.int64), 2)
    rounds = 0
    while req.size:
        if rounds >= DEFAULT_MAX_ROUNDS:
            return req
        active = req.size
        l0 = loads[c0]
        l1 = loads[c1]
        # ties == 2 makes floor(u * ties) the column index itself.
        wcol = np.where(l0 == l1, u >= 0.5, l1 < l0).astype(np.int64)
        pair_rev = np.empty(2 * active, dtype=np.int64)
        pair_rev[0::2] = c1[::-1]
        pair_rev[1::2] = c0[::-1]
        base = _EPOCH
        _EPOCH = base + active
        stamp[pair_rev] = rows_rev[2 * (width - active) :] + base
        safe = np.minimum(stamp[c0], stamp[c1]) == np.arange(
            base, base + active, dtype=np.int64
        )
        safe_idx = np.flatnonzero(safe)
        winners = np.where(wcol, c1, c0)
        loads[winners[safe_idx]] += 1
        committed = req[safe_idx]
        out[committed] = committed * 2 + wcol[safe_idx]
        rounds += 1
        stats.rounds += 1
        stats.committed_vectorised += safe_idx.size
        if safe_idx.size == active:
            return req[:0]
        keep = ~safe
        req = req[keep]
        c0 = c0[keep]
        c1 = c1[keep]
        u = u[keep]
        if safe_idx.size < max(1, active >> _PROGRESS_SHIFT):
            return req
    return req


def _drain_chunk_csr(
    loads, nodes, dists, starts0, counts0, lo, hi, uniforms, out, first,
    stats, speculate, fused=None,
):
    """Repair rounds over a variable-width chunk; returns the uncommitted ids.

    ``fused`` (the compiled repair round, of_sample only) replaces the
    speculate + safety pair with one pass that also bumps the safe winners.
    """
    req = np.arange(lo, hi, dtype=np.int64)
    base = starts0[lo:hi]
    counts = counts0[lo:hi]
    u = uniforms[lo:hi]
    rounds = 0
    while req.size:
        if rounds >= DEFAULT_MAX_ROUNDS:
            return req
        active = req.size
        iptr = _layout(counts)
        total = int(iptr[-1])
        seg_starts = iptr[:-1]
        flat_src = np.repeat(base, counts) + (
            np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
        )
        nd = nodes[flat_src]
        if fused is not None:
            pick_local, safe = fused(loads, nd, iptr, u, first, int(_SENTINEL))
            safe_idx = np.flatnonzero(safe)
        else:
            dd = dists[flat_src] if dists is not None else None
            pick_local = speculate(loads, nd, dd, counts, iptr, u)
            safe = _safe_csr(first, nd, counts, seg_starts)
            safe_idx = np.flatnonzero(safe)
            loads[nd[pick_local[safe_idx]]] += 1
        out[req[safe_idx]] = flat_src[pick_local[safe_idx]]
        rounds += 1
        stats.rounds += 1
        stats.committed_vectorised += safe_idx.size
        if safe_idx.size == active:
            return req[:0]
        keep = ~safe
        req = req[keep]
        base = base[keep]
        counts = counts[keep]
        u = u[keep]
        if safe_idx.size < max(1, active >> _PROGRESS_SHIFT):
            return req
    return req


# ------------------------------------------------------------ scalar fallback
def _subset_csr(starts, counts, req):
    """Compact CSR over a request subset plus the flat source positions."""
    sub_counts = counts[req]
    sub_iptr = _layout(sub_counts)
    flat_src = np.repeat(starts[req], sub_counts) + (
        np.arange(int(sub_iptr[-1]), dtype=np.int64)
        - np.repeat(sub_iptr[:-1], sub_counts)
    )
    return sub_counts, sub_iptr, flat_src


def _forced_picks(loads, nodes, picks, out, writeback, stats, m):
    """Commit a window whose every candidate set has exactly one member."""
    out[:] = picks
    loads += np.bincount(nodes[picks], minlength=loads.size)
    stats.committed_vectorised += m
    if writeback is not None:
        writeback[:] = loads


# ------------------------------------------------------------- public: static
def commit_least_loaded_of_sample(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Batch drop-in for :func:`repro.kernels.commit.commit_least_loaded_of_sample`."""
    m = int(sample_counts.size)
    stats = _reset_stats()
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads, writeback = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    wmin = int(sample_counts.min())
    wmax = int(sample_counts.max())
    if wmax == 1:
        # Forced choice (d = 1 or singleton candidate sets): winners are
        # load-independent, so the whole window commits in one pass.
        _forced_picks(loads, sample_nodes, sample_indptr[:-1], out, writeback, stats, m)
        return out
    first = _scratch(int(num_nodes))
    chunk = _chunk_size(int(num_nodes))
    fused = _numba_round()
    starts0 = sample_indptr[:-1]
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        stats.chunks += 1
        if wmin == wmax == 2 and fused is None:
            leftover = _drain_chunk_pairs(
                loads, sample_nodes, lo, hi, tie_uniforms, out,
                _pairs_scratch(int(num_nodes)), stats,
            )
        elif wmin == wmax and fused is None:
            leftover = _drain_chunk_uniform(
                loads, sample_nodes, wmin, lo, hi, tie_uniforms, out, first,
                stats,
            )
        else:
            leftover = _drain_chunk_csr(
                loads, sample_nodes, None, starts0, sample_counts, lo, hi,
                tie_uniforms, out, first, stats,
                _speculate_of_sample, fused=fused,
            )
        if leftover.size:
            stats.fallbacks += 1
            stats.committed_scalar += leftover.size
            sub_counts, sub_iptr, flat_src = _subset_csr(
                starts0, sample_counts, leftover
            )
            picks = _scalar.commit_least_loaded_of_sample(
                int(num_nodes), sample_nodes[flat_src], sub_counts, sub_iptr,
                tie_uniforms[leftover], initial_loads=loads,
            )
            out[leftover] = flat_src[picks]
    if writeback is not None:
        writeback[:] = loads
    return out


def commit_least_loaded_scan(
    num_nodes: int,
    cand_nodes: IntArray,
    cand_dists: IntArray,
    request_starts: IntArray,
    request_counts: IntArray,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Batch drop-in for :func:`repro.kernels.commit.commit_least_loaded_scan`."""
    m = int(request_starts.size)
    stats = _reset_stats()
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads, writeback = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    if int(request_counts.max()) == 1:
        _forced_picks(loads, cand_nodes, request_starts, out, writeback, stats, m)
        return out
    shift = np.int64(int(cand_dists.max()) + 1)
    first = _scratch(int(num_nodes))
    chunk = _chunk_size(int(num_nodes))

    def speculate(loads_, nd, dd, counts, iptr, u):
        return _speculate_scan(loads_, nd, dd, counts, iptr, u, shift)

    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        stats.chunks += 1
        leftover = _drain_chunk_csr(
            loads, cand_nodes, cand_dists, request_starts, request_counts,
            lo, hi, tie_uniforms, out, first, stats, speculate,
        )
        if leftover.size:
            stats.fallbacks += 1
            stats.committed_scalar += leftover.size
            sub_counts, sub_iptr, flat_src = _subset_csr(
                request_starts, request_counts, leftover
            )
            picks = _scalar.commit_least_loaded_scan(
                int(num_nodes), cand_nodes[flat_src], cand_dists[flat_src],
                sub_iptr[:-1], sub_counts, tie_uniforms[leftover],
                initial_loads=loads,
            )
            out[leftover] = flat_src[picks]
    if writeback is not None:
        writeback[:] = loads
    return out


def commit_threshold_hybrid(
    num_nodes: int,
    sample_nodes: IntArray,
    sample_dists: IntArray,
    sample_indptr: IntArray,
    threshold: float,
    tie_uniforms: np.ndarray,
    initial_loads: IntArray | None = None,
) -> IntArray:
    """Batch drop-in for :func:`repro.kernels.commit.commit_threshold_hybrid`."""
    m = int(sample_indptr.size) - 1
    stats = _reset_stats()
    if m == 0:
        return np.empty(0, dtype=np.int64)
    loads, writeback = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    counts = np.diff(sample_indptr)
    starts0 = sample_indptr[:-1]
    if int(counts.max()) == 1:
        # A single candidate wins regardless of the threshold: eligible means
        # it wins, ineligible (negative slack) keeps the initial pick — which
        # is the same candidate.
        _forced_picks(loads, sample_nodes, starts0, out, writeback, stats, m)
        return out
    first = _scratch(int(num_nodes))
    chunk = _chunk_size(int(num_nodes))
    threshold = float(threshold)

    def speculate(loads_, nd, dd, counts_, iptr, u):
        return _speculate_hybrid(loads_, nd, dd, counts_, iptr, u, threshold)

    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        stats.chunks += 1
        leftover = _drain_chunk_csr(
            loads, sample_nodes, sample_dists, starts0, counts, lo, hi,
            tie_uniforms, out, first, stats, speculate,
        )
        if leftover.size:
            stats.fallbacks += 1
            stats.committed_scalar += leftover.size
            sub_counts, sub_iptr, flat_src = _subset_csr(starts0, counts, leftover)
            picks = _scalar.commit_threshold_hybrid(
                int(num_nodes), sample_nodes[flat_src], sample_dists[flat_src],
                sub_iptr, threshold, tie_uniforms[leftover], initial_loads=loads,
            )
            out[leftover] = flat_src[picks]
    if writeback is not None:
        writeback[:] = loads
    return out


# ---------------------------------------------------------- public: queueing
def commit_window(
    state,
    times,
    services,
    tie_uniforms,
    sample_nodes: IntArray,
    sample_counts: IntArray,
    sample_indptr: IntArray,
) -> IntArray:
    """Batch drop-in for :func:`repro.kernels.queueing.commit_window`.

    Speculates over the arrivals strictly before the next due departure (one
    repair round per inter-departure segment) and commits the safe *prefix*
    through a scalar mini-loop replaying the event loop's exact float
    accounting.  Heavy traffic shortens the segments until speculation stops
    paying, at which point the remainder of the window falls back to the
    scalar event loop.  The queueing round structure is governed by
    departures, so the low-progress fallback (not a round cap) bounds the
    adversarial case.
    """
    from repro.kernels import queueing as _queueing

    m = int(times.size)
    stats = _reset_stats()
    out = np.empty(m, dtype=np.int64)
    if m == 0:
        state.num_arrivals += 0
        return out
    num_nodes = len(state.queue_lengths)
    queue = np.asarray(state.queue_lengths, dtype=np.int64)
    busy = np.asarray(state.busy_until, dtype=np.float64)
    times_arr = np.asarray(times, dtype=np.float64)
    times_l = times_arr.tolist()
    services_l = np.asarray(services, dtype=np.float64).tolist()
    nodes_l = sample_nodes.tolist()
    events = state.events
    clock = state.clock
    in_system = state.in_system
    area = state.area_queue
    completed = state.completed
    max_queue = state.max_queue
    sum_wait = state.sum_wait
    sum_sojourn = state.sum_sojourn
    event_id = state.next_event_id
    push = heapq.heappush
    pop = heapq.heappop
    pairwise = sample_nodes.size == 2 * m and int(sample_counts.min()) == 2
    first = _scratch(num_nodes)

    def write_back():
        state.queue_lengths = queue.tolist()
        state.busy_until = busy.tolist()
        state.next_event_id = event_id
        state.clock = float(clock)
        state.in_system = in_system
        state.area_queue = float(area)
        state.completed = completed
        state.max_queue = max_queue
        state.sum_wait = float(sum_wait)
        state.sum_sojourn = float(sum_sojourn)

    p = 0
    lowp = 0
    smallseg = 0
    while p < m:
        now_p = times_l[p]
        while events and events[0][0] <= now_p:
            dep_time, _, dep_server = pop(events)
            area += in_system * (dep_time - clock)
            clock = dep_time
            queue[dep_server] -= 1
            in_system -= 1
            completed += 1
        if events:
            hi = p + int(
                np.searchsorted(times_arr[p : p + _LOOKAHEAD], events[0][0], side="left")
            )
            if hi == p:  # defensive: the drain above guarantees times[p] < top
                hi = p + 1
        else:
            hi = min(m, p + _LOOKAHEAD)
        active = hi - p
        if pairwise:
            cand = sample_nodes[2 * p : 2 * hi].reshape(active, 2)
            wcol = _pick_uniform(queue, cand, tie_uniforms[p:hi])
            safe = _safe_uniform(first, cand)
            picks = 2 * np.arange(p, hi, dtype=np.int64) + wcol
        else:
            counts = sample_counts[p:hi]
            iptr = _layout(counts)
            flat0 = int(sample_indptr[p])
            nd = sample_nodes[flat0 : flat0 + int(iptr[-1])]
            pick_local = _speculate_of_sample(queue, nd, None, counts, iptr, tie_uniforms[p:hi])
            safe = _safe_csr(first, nd, counts, iptr[:-1])
            picks = pick_local + flat0
        stats.rounds += 1
        prefix = active if bool(safe.all()) else int(np.argmin(safe))
        picks_l = picks.tolist()
        committed = 0
        for idx in range(prefix):
            i = p + idx
            now = times_l[i]
            if events and events[0][0] <= now:
                break
            area += in_system * (now - clock)
            clock = now
            pick = picks_l[idx]
            server = nodes_l[pick]
            svc_start = busy[server]
            if svc_start < now:
                svc_start = now
            finish = svc_start + services_l[i]
            busy[server] = finish
            sum_wait += svc_start - now
            sum_sojourn += finish - now
            load = int(queue[server]) + 1
            queue[server] = load
            in_system += 1
            if load > max_queue:
                max_queue = load
            push(events, (float(finish), event_id, server))
            event_id += 1
            out[i] = pick
            committed += 1
        p += committed
        stats.committed_vectorised += committed
        smallseg = smallseg + 1 if active < _QUEUE_MIN_SEGMENT else 0
        lowp = (
            lowp + 1
            if (committed < _QUEUE_MIN_COMMITS and active >= 2 * _QUEUE_MIN_COMMITS)
            else 0
        )
        if (smallseg >= 3 or lowp >= 2) and p < m:
            write_back()
            state.num_arrivals += p
            stats.fallbacks += 1
            stats.committed_scalar += m - p
            flat0 = int(sample_indptr[p])
            sub = _queueing.commit_window(
                state,
                times_arr[p:],
                np.asarray(services, dtype=np.float64)[p:],
                np.asarray(tie_uniforms, dtype=np.float64)[p:],
                sample_nodes[flat0:],
                sample_counts[p:],
                sample_indptr[p:] - flat0,
            )
            out[p:] = sub + flat0
            return out
    write_back()
    state.num_arrivals += m
    return out
