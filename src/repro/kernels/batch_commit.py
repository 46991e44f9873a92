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
chunks.  A window takes one of three routes: *forced* when every candidate
set has one member (winners are load-independent, one pass commits all),
*pairs* for the paper's d = 2 sample (flat width-2 rounds), and *CSR* for
any other widths (and for every least-loaded or hybrid window).

The three static functions here are drop-ins for their namesakes in
:mod:`repro.kernels.commit` — same signatures, bit-identical outputs for any
input — and are the ``batch`` engine's commits in the assignment family.
``initial_loads``, when given, is an int64 array, updated in place (``None``
starts from an empty network).  :data:`DEFAULT_MAX_ROUNDS` caps the repair
rounds per chunk before the scalar fallback.  The queueing ``batch`` engine
runs the plain event loop :func:`repro.kernels.queueing.commit_window`,
re-exported here under the same name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import commit as _scalar

# Queueing ``batch`` runs the plain event loop; perfbench's tracer wraps this name.
from repro.kernels.queueing import commit_window
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

_SENTINEL = np.int64(2**62)


@dataclass
class BatchCommitStats:
    """Diagnostics of the most recent static batch commit (see :func:`get_last_stats`).

    Only the three static d-choice commits record stats; the queueing
    :func:`commit_window` leaves them untouched.  ``rounds`` counts
    speculative repair rounds; ``chunks`` the speculation scopes;
    ``committed_vectorised`` / ``committed_scalar`` how many requests each
    path retired; ``fallbacks`` how many times the scalar fallback (round cap
    or low progress) was taken.
    """

    rounds: int = 0
    chunks: int = 0
    committed_vectorised: int = 0
    committed_scalar: int = 0
    fallbacks: int = 0


_LAST_STATS = BatchCommitStats()


def get_last_stats() -> BatchCommitStats:
    """Stats of the most recent static batch commit (diagnostic, not thread-safe)."""
    return _LAST_STATS


def _reset_stats() -> BatchCommitStats:
    global _LAST_STATS
    _LAST_STATS = BatchCommitStats()
    return _LAST_STATS


# ------------------------------------------------------------------ plumbing
def _scratch(num_nodes: int) -> np.ndarray:
    """A fresh first-toucher scratch for ``num_nodes`` servers.

    Filled with the sentinel; every user resets the entries it touched, so
    one scratch serves all chunks of a call.  Allocated per call, never
    shared: two threads committing independent sessions must not see each
    other's stamps.
    """
    return np.full(num_nodes, _SENTINEL, dtype=np.int64)


def _resolve_loads(num_nodes, initial_loads):
    """The int64 load array to commit into: the caller's, or fresh zeros."""
    if initial_loads is None:
        return np.zeros(int(num_nodes), dtype=np.int64)
    return initial_loads


def _layout(counts: IntArray) -> IntArray:
    iptr = np.empty(counts.size + 1, dtype=np.int64)
    iptr[0] = 0
    np.cumsum(counts, out=iptr[1:])
    return iptr


def _chunk_size(num_nodes: int) -> int:
    return max(2048, num_nodes // 4)


# ------------------------------------------------------------ round building
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
def _drain_chunk_pairs(loads, nodes, lo, hi, uniforms, out, stamp, epoch, stats):
    """Width-2 repair rounds in flat 1-D ops (the paper's d = 2 hot shape).

    Semantically identical to :func:`_drain_chunk_csr` at ``width == 2``
    but avoids every CSR gather and segmented reduction: with two candidates
    the tie rule collapses to ``u >= 1/2`` and segment minima to a single
    :func:`numpy.minimum`.  The first-toucher scatter writes epoch stamps
    (``base + row``) through a pre-reversed index so the lowest row wins with
    forward strides and nothing ever needs resetting — which together is what
    makes the batch engine actually beat the scalar loop on strategy II
    workloads.  ``stamp`` starts at zero for the call and ``epoch`` (at
    least 1) only grows, so a stamp below the current round's base is stale
    by construction.  Returns ``(uncommitted ids, next epoch)``.
    """
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
            return req, epoch
        active = req.size
        l0 = loads[c0]
        l1 = loads[c1]
        # ties == 2 makes floor(u * ties) the column index itself.
        wcol = np.where(l0 == l1, u >= 0.5, l1 < l0).astype(np.int64)
        pair_rev = np.empty(2 * active, dtype=np.int64)
        pair_rev[0::2] = c1[::-1]
        pair_rev[1::2] = c0[::-1]
        base = epoch
        epoch = base + active
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
            return req[:0], epoch
        keep = ~safe
        req = req[keep]
        c0 = c0[keep]
        c1 = c1[keep]
        u = u[keep]
        if safe_idx.size < max(1, active >> _PROGRESS_SHIFT):
            return req, epoch
    return req, epoch


def _drain_chunk_csr(
    loads, nodes, dists, starts0, counts0, lo, hi, uniforms, out, first,
    stats, speculate,
):
    """Repair rounds over a variable-width chunk; returns the uncommitted ids."""
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


def _forced_picks(loads, nodes, picks, out, stats, m):
    """Commit a window whose every candidate set has exactly one member."""
    out[:] = picks
    loads += np.bincount(nodes[picks], minlength=loads.size)
    stats.committed_vectorised += m


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
    loads = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    wmin = int(sample_counts.min())
    wmax = int(sample_counts.max())
    if wmax == 1:
        # Forced choice (d = 1 or singleton candidate sets): winners are
        # load-independent, so the whole window commits in one pass.
        _forced_picks(loads, sample_nodes, sample_indptr[:-1], out, stats, m)
        return out
    pairs = wmin == wmax == 2
    if pairs:
        stamp, epoch = np.zeros(int(num_nodes), dtype=np.int64), 1
    else:
        first = _scratch(int(num_nodes))
    chunk = _chunk_size(int(num_nodes))
    starts0 = sample_indptr[:-1]
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        stats.chunks += 1
        if pairs:
            leftover, epoch = _drain_chunk_pairs(
                loads, sample_nodes, lo, hi, tie_uniforms, out, stamp, epoch, stats
            )
        else:
            leftover = _drain_chunk_csr(
                loads, sample_nodes, None, starts0, sample_counts, lo, hi,
                tie_uniforms, out, first, stats, _speculate_of_sample,
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
    loads = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    if int(request_counts.max()) == 1:
        _forced_picks(loads, cand_nodes, request_starts, out, stats, m)
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
    loads = _resolve_loads(num_nodes, initial_loads)
    out = np.empty(m, dtype=np.int64)
    counts = np.diff(sample_indptr)
    starts0 = sample_indptr[:-1]
    if int(counts.max()) == 1:
        # A single candidate wins regardless of the threshold: eligible means
        # it wins, ineligible (negative slack) keeps the initial pick — which
        # is the same candidate.
        _forced_picks(loads, sample_nodes, starts0, out, stats, m)
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
    return out
