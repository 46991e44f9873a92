"""The CSR request-group index — the precompute phase's data backbone.

Sequential strategies repeat the exact same candidate computation for every
request with the same ``(origin, file)`` pair: the replica set of the file,
the distances from the origin, the in-ball filter and (rarely) the fallback
resolution are all independent of the evolving load vector.  The group index
factors that work out of the per-request loop:

1. requests are grouped by ``(origin, file)`` (``np.unique`` on a packed key);
2. where the topology lists ``B_r`` as a dense matrix
   (:meth:`~repro.topology.base.Topology.ball_matrix`; on a torus
   ``(origin + offset) mod side`` for every lattice offset) and the ball is
   smaller than a file's replica set, a group's row is gathered from the ball
   itself: the members the :class:`~repro.placement.cache.CacheState`
   membership bitset says cache the file, sorted by node id, each at its
   column's distance — ``|B_r|`` lookups instead of one distance per replica;
3. every other group — other topologies, unconstrained or wrapping radii,
   libraries wider than ``64 M`` files (where the ``n ceil(K / 8)``-byte
   bitset would outgrow the ``n M 8``-byte int64 file-index nodes), files
   with at most ``|B_r|`` replicas, and ball groups with no in-ball
   replica — takes one flat replica scan: the
   ``(group, replica)`` pairs of all these groups, expanded from the cache's
   file→nodes CSR in group-aligned chunks, one element-wise
   :meth:`~repro.topology.base.Topology.distances_between_unchecked` call per chunk,
   the in-ball filter, and fallback resolution (NEAREST / EXPAND / ERROR)
   vectorised over the empty rows' segments;
4. both routes scatter into one CSR layout ``(starts, counts, nodes[, dists])``
   of candidate sets, bit-identical whichever route built a row.

Strategy I's rows (``nearest_ties``) are each group's replicas at its minimum
distance.  Where step 2 applies, groups first probe ``d = 0, 1, ...``, looking
up only the ring of ``B_d`` at distance ``d``; the first ring with a hit is the
row.  The rest take the scan, which keeps every pair at its row's minimum.

When the radius is unconstrained and candidate distances are not needed up
front (Strategy II resolves chosen-replica distances *after* the commit loop),
the index borrows the :class:`~repro.placement.cache.CacheState` file→nodes
CSR wholesale instead of materialising per-group copies — candidate sets then
alias the cache's own arrays via per-group ``starts``/``counts``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import NoReplicaError, StrategyError
from repro.placement.cache import CacheState
from repro.strategies.base import FallbackPolicy
from repro.topology.base import Topology
from repro.types import IntArray, index_type
from repro.workload.request import RequestBatch

__all__ = [
    "GroupIndex",
    "GroupStore",
    "build_group_index",
    "group_requests",
    "csr_scatter_destinations",
    "segmented_arange",
]


def segmented_arange(counts: IntArray) -> IntArray:
    """Concatenated ``arange(c)`` for every ``c`` in ``counts``.

    ``segmented_arange([2, 0, 3]) == [0, 1, 0, 1, 2]`` — the within-segment
    offsets of a CSR layout with the given segment sizes.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def group_requests(requests: RequestBatch) -> tuple[IntArray, IntArray, IntArray]:
    """Group requests by their packed ``(origin, file)`` key.

    Returns ``(origins, files, request_group)``: per-group origin and file
    (ascending packed-key order) plus the ``(m,)`` map from request position
    to group id.  ``origin * K + file`` fits int64 for any realistic system
    (``n * K < 2**63``).
    """
    num_files = int(requests.num_files)
    keys = requests.origins * num_files + requests.files
    uniq, inverse = np.unique(keys, return_inverse=True)
    origins = (uniq // num_files).astype(np.int64)
    files = (uniq % num_files).astype(np.int64)
    return origins, files, inverse.astype(np.int64)


def csr_scatter_destinations(
    indptr: IntArray, gids: IntArray, counts: IntArray
) -> IntArray:
    """Flat destination offsets for scattering per-group rows into a CSR.

    ``counts[i]`` consecutive slots starting at ``indptr[gids[i]]`` — the
    row-major layout ``np.nonzero`` produces for a per-group boolean mask.
    """
    return np.repeat(indptr[gids], counts) + segmented_arange(counts)


@dataclass(frozen=True)
class GroupIndex:
    """Candidate sets of all distinct ``(origin, file)`` request groups.

    Attributes
    ----------
    origins, files:
        Per-group origin node and requested file, shape ``(G,)``.
    starts, counts:
        CSR addressing: group ``g``'s candidates are
        ``nodes[starts[g]:starts[g] + counts[g]]``.  Segments are contiguous
        when the index is materialised but may alias the cache's shared
        file→nodes array (non-contiguous, possibly overlapping) in shared
        mode — never assume ``starts`` is a cumulative sum.
    nodes:
        Flat candidate node ids.
    dists:
        Flat candidate hop distances aligned with ``nodes``, or ``None`` in
        shared mode (distances are then resolved after the commit phase).
    fallback:
        Per-group flag: the fallback policy had to be invoked (no in-ball
        replica).
    request_group:
        Shape ``(m,)`` map from request position to its group id.
    """

    origins: IntArray
    files: IntArray
    starts: IntArray
    counts: IntArray
    nodes: IntArray
    dists: IntArray | None
    fallback: np.ndarray
    request_group: IntArray

    @property
    def num_groups(self) -> int:
        """Number of distinct ``(origin, file)`` groups ``G``."""
        return int(self.origins.size)

    def request_counts(self) -> IntArray:
        """Candidate-set size of every request's group, shape ``(m,)``."""
        return self.counts[self.request_group]

    def request_starts(self) -> IntArray:
        """Candidate-set start offset of every request's group, shape ``(m,)``."""
        return self.starts[self.request_group]


def _grown(array: np.ndarray, used: int, need: int) -> np.ndarray:
    """``array`` with room for ``need`` elements and its first ``used`` kept.

    Capacity at least doubles on every growth, so appends are amortised O(1).
    """
    if need <= array.size:
        return array
    fresh = np.empty(max(need, 2 * array.size), dtype=array.dtype)
    fresh[:used] = array[:used]
    return fresh


#: Rows a :class:`GroupStore` retains at most; read when rows are put.  The
#: supermarket sweep's n = 65536 store holds under 30,000.
MAX_GROUPS = 1 << 20


class GroupStore:
    """Insert-only bounded memo of materialised candidate rows, one group per key.

    A store is only valid for one combination of cache state, topology,
    ``radius``, ``fallback`` and ``need_dists`` (or ``nearest_ties``) —
    callers (the session layer's
    :class:`~repro.session.artifacts.ArtifactCache`) key stores accordingly and
    hand the right one to :func:`build_group_index`, which then materialises
    only the groups it has never seen.  Across the windows and sweep points of
    a queueing run, recurring ``(origin, file)`` pairs skip their distance
    computation entirely.

    Storage is array-native: all retained rows live in one flat CSR pool
    (``nodes`` / ``dists`` int64 slabs) addressed by per-slot
    ``starts`` / ``counts`` arrays, so :meth:`get_many` / :meth:`put_many`
    move whole windows with a handful of vectorised gathers instead of one
    Python call per group.

    Rows are appended once and never replaced, evicted or compacted.  Once
    ``MAX_GROUPS`` rows are held the store retains nothing more: a group it
    does not hold is rebuilt whenever a window asks for it, exactly as any
    miss is.  Rows do not depend on the load vector, so which groups a store
    holds changes no output, only which windows pay for their build.
    """

    __slots__ = (
        "_slots",
        "_starts",
        "_counts",
        "_fallback",
        "_n_alloc",
        "_pool_nodes",
        "_pool_dists",
        "_pool_used",
        "hits",
        "misses",
    )

    def __init__(self) -> None:
        self._slots: dict[int, int] = {}
        self._starts = np.empty(16, dtype=np.int64)
        self._counts = np.empty(16, dtype=np.int64)
        self._fallback = np.empty(16, dtype=bool)
        self._n_alloc = 0
        self._pool_nodes = np.empty(64, dtype=np.int64)
        self._pool_dists = np.empty(64, dtype=np.int64)
        self._pool_used = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._slots)

    def keys(self) -> list[int]:
        """The retained packed group keys (unordered; for tests/diagnostics)."""
        return list(self._slots)

    def get_many(
        self, keys: IntArray
    ) -> tuple[np.ndarray, IntArray, IntArray, IntArray, np.ndarray]:
        """Vectorised lookup of a whole window of packed group keys.

        Returns ``(hit_mask, counts, nodes, dists, fallback)`` where
        ``hit_mask`` is boolean of ``keys.shape`` and the remaining arrays
        describe the hit rows *in key order* as one contiguous CSR: group
        ``i``'s candidates occupy the next ``counts[j]`` slots of ``nodes`` /
        ``dists`` for its hit position ``j``.  Updates the ``hits`` /
        ``misses`` counters.
        """
        keys = np.asarray(keys, dtype=np.int64)
        num_keys = int(keys.size)
        lookup = self._slots.get
        slots = np.fromiter(
            (lookup(key, -1) for key in keys.tolist()), dtype=np.int64, count=num_keys
        )
        hit_mask = slots >= 0
        hit_slots = slots[hit_mask]
        self.hits += int(hit_slots.size)
        self.misses += num_keys - int(hit_slots.size)
        counts = self._counts[hit_slots]
        flat = np.repeat(self._starts[hit_slots], counts) + segmented_arange(counts)
        return (
            hit_mask,
            counts,
            self._pool_nodes[flat],
            self._pool_dists[flat],
            self._fallback[hit_slots],
        )

    def put_many(
        self,
        keys: IntArray,
        counts: IntArray,
        nodes: IntArray,
        dists: IntArray,
        fallback: np.ndarray,
    ) -> None:
        """Retain a batch of new rows given as one contiguous CSR slab.

        ``keys[i]``'s row is the next ``counts[i]`` slots of ``nodes`` /
        ``dists``.  The keys must be distinct and absent from the store:
        :func:`build_group_index` only ever puts the groups of its
        ``np.unique`` grouping that the store missed.  The first keys in array
        order that fit the remaining room are kept, the rest dropped.
        """
        keys = np.asarray(keys, dtype=np.int64)
        kept = min(int(keys.size), MAX_GROUPS - self._n_alloc)
        if kept <= 0:
            return
        counts = np.asarray(counts, dtype=np.int64)[:kept]
        base, total = self._pool_used, int(counts.sum())
        self._pool_nodes = _grown(self._pool_nodes, base, base + total)
        self._pool_dists = _grown(self._pool_dists, base, base + total)
        self._pool_nodes[base : base + total] = nodes[:total]
        self._pool_dists[base : base + total] = dists[:total]
        self._pool_used = base + total
        first = self._n_alloc
        self._n_alloc = first + kept
        self._starts = _grown(self._starts, first, first + kept)
        self._counts = _grown(self._counts, first, first + kept)
        self._fallback = _grown(self._fallback, first, first + kept)
        self._starts[first : first + kept] = base + np.cumsum(counts) - counts
        self._counts[first : first + kept] = counts
        self._fallback[first : first + kept] = fallback[:kept]
        self._slots.update(zip(keys[:kept].tolist(), range(first, first + kept)))


#: Elements (group rows x ball offsets) per ball-gather chunk; bounds the
#: gather's temporaries to a few hundred KiB each.
_BALL_CHUNK = 1 << 16


def _ball_hits(
    cache: CacheState, members: IntArray, dists: IntArray, files: IntArray
) -> tuple[IntArray, IntArray, IntArray]:
    """The replicas of ``files[i]`` among the ball members ``members[i]``.

    ``members`` / ``dists`` come from :meth:`Topology.ball_matrix`.  Returns
    ``(row_counts, flat_nodes, flat_dists)`` with each row's hits in
    ascending node id — the order the replica scan yields — at their
    column's distance.  Rows with no in-ball replica come back empty.
    """
    num_rows, ball_size = members.shape
    hits = np.flatnonzero(cache.contains_many(members, files[:, None]))
    rows = hits // ball_size
    nodes = members.reshape(-1)[hits]
    order = np.argsort(rows * cache.num_nodes + nodes)
    row_counts = np.bincount(rows, minlength=num_rows)
    return row_counts, nodes[order], dists[hits[order] % ball_size]


#: Pairs (group x replica) per replica-scan chunk; bounds each of the scan's
#: temporaries to at most 128 KiB.  A group with more replicas than this is a
#: chunk of its own.
_SCAN_PAIRS = 1 << 14


def _scan_rows(
    topology: Topology,
    cache: CacheState,
    origins: IntArray,
    files: IntArray,
    *,
    radius: float,
    fallback: FallbackPolicy,
    nearest_ties: bool,
) -> tuple[IntArray, list[IntArray], list[IntArray], np.ndarray]:
    """Candidate rows of the groups ``(origins[i], files[i])`` from every replica.

    Returns ``(row_counts, nodes_parts, dists_parts, fallback_flags)``: the
    rows in group order, each row's replicas ascending, as per-chunk parts
    whose concatenation is one contiguous CSR slab.  Every file must have a
    replica and every origin must be a valid node id.  The ``(group,
    replica)`` pairs are expanded from the :meth:`CacheState.file_index` CSR
    in group-aligned chunks of at most ``_SCAN_PAIRS`` pairs, one
    :meth:`Topology.distances_between_unchecked` call per chunk.  Pair
    positions and repeated origins are int32 while they fit (see
    :func:`~repro.types.index_type`), and the distances stay in the
    topology's type through the in-ball test, the fallback and the compress.
    With ``nearest_ties`` a row keeps every pair at its minimum distance (no
    row is then empty or flagged).  Otherwise a radius of at least the
    diameter keeps every replica, and a row left empty by the in-ball filter
    resolves over its segment of the chunk: NEAREST keeps the first minimum
    in replica order (``np.argmin``'s tie rule), EXPAND keeps ``d <= e`` for
    the smallest ``e = max(r, 1) * 2**k`` (``k >= 1``) that reaches the
    minimum, and ERROR raises.
    """
    indptr, replicas = cache.file_index()
    position = index_type(replicas.size)
    origins = origins.astype(index_type(topology.n))
    first = indptr[files]
    sizes = indptr[files + 1] - first
    pair_ends = np.cumsum(sizes)
    pair_starts = pair_ends - sizes
    # Distances are integers no larger than the diameter, so ``d <= radius``
    # is ``d <= limit`` for an integer limit that fits the distance type.
    limit = int(min(np.floor(radius), topology.diameter))
    row_counts = np.empty(files.size, dtype=np.int64)
    flags = np.zeros(files.size, dtype=bool)
    nodes_parts: list[IntArray] = []
    dists_parts: list[IntArray] = []
    lo = 0
    while lo < files.size:
        base = pair_starts[lo]
        hi = int(np.searchsorted(pair_ends, base + _SCAN_PAIRS, side="right"))
        hi = max(hi, lo + 1)
        row_sizes = sizes[lo:hi]
        row_starts = pair_starts[lo:hi] - base
        # Pair j of row i sits at first[i] + j, i.e. its chunk offset plus
        # first[i] - row_starts[i].
        flat = np.repeat((first[lo:hi] - row_starts).astype(position), row_sizes)
        flat += np.arange(flat.size, dtype=position)
        cand = replicas.take(flat)
        dist = topology.distances_between_unchecked(
            np.repeat(origins[lo:hi], row_sizes), cand
        )
        if nearest_ties:
            # No pair is nearer than its row's minimum, so ``<=`` keeps the ties.
            keep = dist <= np.repeat(np.minimum.reduceat(dist, row_starts), row_sizes)
        else:
            keep = dist <= limit
        # Every row has a replica, so no segment is empty and reduceat sums
        # exactly each row's pairs.
        counts = np.add.reduceat(keep, row_starts)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            if fallback is FallbackPolicy.ERROR:
                row = lo + int(empty[0])
                raise StrategyError(
                    f"no replica of file {int(files[row])} within radius "
                    f"{radius} of node {int(origins[row])}"
                )
            # The empty rows' pairs, as contiguous non-empty segments: a
            # reduceat over a subset of the chunk's segment starts would
            # span the segments in between.
            on_empty = np.flatnonzero(np.repeat(counts == 0, row_sizes))
            seg_sizes = row_sizes[empty]
            seg_starts = np.cumsum(seg_sizes) - seg_sizes
            seg_dist = dist[on_empty]
            seg_min = np.minimum.reduceat(seg_dist, seg_starts)
            if fallback is FallbackPolicy.NEAREST:
                at_min = np.flatnonzero(seg_dist == np.repeat(seg_min, seg_sizes))
                # Every segment holds its minimum, so the first hit at or
                # after a segment's start is that segment's first minimum.
                keep[on_empty[at_min[np.searchsorted(at_min, seg_starts)]]] = True
                counts[empty] = 1
            else:  # EXPAND: double the radius until a replica is inside.
                expanded = np.full(empty.size, 2.0 * max(radius, 1.0))
                short = expanded < seg_min
                while short.any():
                    expanded[short] *= 2.0
                    short = expanded < seg_min
                reached = seg_dist <= np.repeat(expanded, seg_sizes)
                keep[on_empty] = reached
                counts[empty] = np.add.reduceat(reached, seg_starts)
            flags[lo + empty] = True
        row_counts[lo:hi] = counts
        # Two takes of the kept positions beat two boolean compresses.
        kept = np.flatnonzero(keep)
        nodes_parts.append(cand.take(kept))
        dists_parts.append(dist.take(kept))
        lo = hi
    return row_counts, nodes_parts, dists_parts, flags


def _build_rows_csr(
    topology: Topology,
    cache: CacheState,
    origins: IntArray,
    files: IntArray,
    *,
    radius: float,
    fallback: FallbackPolicy,
    nearest_ties: bool,
) -> tuple[IntArray, IntArray, IntArray, np.ndarray]:
    """Fused count-then-scatter build of the rows of groups ``(origins[i], files[i])``.

    Returns ``(counts, nodes, dists, fallback_flags)`` in group order as one
    contiguous CSR slab: group ``i``'s candidates are the next
    ``counts[i]`` slots of ``nodes`` / ``dists``.  The cold build hands
    every group; the store-backed build hands only its misses.  A file
    cached nowhere raises :class:`NoReplicaError` before any distance work,
    then an origin outside the topology raises
    :class:`~repro.exceptions.TopologyError`, checked once for both routes.

    Where the topology lists ``B_r`` as a dense matrix (see
    :meth:`Topology.ball_matrix`), groups whose file has more replicas than
    ``B_r`` has nodes are gathered from the ball first (see
    :func:`_ball_hits`), in chunks of at most ``_BALL_CHUNK`` elements.
    With ``nearest_ties`` the ball route reads ``B_d``'s ring at distance
    ``d = 0, 1, ...`` instead, while a group has no hit and more replicas
    than ``|B_d|``, and ``B_d`` has a dense form.  Every group left without
    candidates — the rest, plus ball groups with no hit — then takes one
    flat replica scan (see :func:`_scan_rows`), fallback resolution
    included.  Both routes work in narrow integer types; the slab is int64.
    When one route built every row, its per-chunk parts are already in
    group order and one ``np.concatenate`` per array is the slab; otherwise
    the parts are scattered into place via :func:`csr_scatter_destinations`.
    """
    replication = cache.replication_counts()[files]
    if not replication.all():
        raise NoReplicaError(int(files[replication == 0].min()))
    origins = topology.validate_nodes(origins)
    counts = np.zeros(files.size, dtype=np.int64)
    flags = np.zeros(files.size, dtype=bool)
    # Per-route flat pieces, addressed by group position; scattered
    # into place once all counts are known.
    piece_pos: list[IntArray] = []
    piece_counts: list[IntArray] = []
    piece_nodes: list[IntArray] = []
    piece_dists: list[IntArray] = []
    levels: Iterable[float] = ()
    # The membership bitset costs n * ceil(K / 8) bytes; the ball route builds
    # it only while that is at most the int64 file-index nodes (n M 8 bytes),
    # i.e. K <= 64 M.
    if cache.num_files <= 64 * cache.cache_size:
        levels = itertools.count() if nearest_ties else (radius,)
    for level in levels:
        # No origins yet: this only asks whether B_level has a dense form,
        # and its size.
        ball = topology.ball_matrix(np.empty(0, dtype=np.int64), level)
        if ball is None:
            break
        ball_size = int(ball[1].size)
        on_ball = np.flatnonzero(replication > ball_size)
        if nearest_ties and level:
            # Later rings skip the groups an earlier ring hit.
            on_ball = on_ball[counts[on_ball] == 0]
        if not on_ball.size:
            break
        columns = np.flatnonzero(ball[1] == level) if nearest_ties else slice(None)
        step = max(1, _BALL_CHUNK // ball_size)
        for start in range(0, on_ball.size, step):
            local = on_ball[start : start + step]
            members, dists = topology.ball_matrix(origins[local], level)
            row_counts, flat_nodes, flat_dists = _ball_hits(
                cache, members[:, columns], dists[columns], files[local]
            )
            counts[local] = row_counts
            piece_pos.append(local)
            piece_counts.append(row_counts)
            piece_nodes.append(flat_nodes)
            piece_dists.append(flat_dists)
    # Everything still empty: off-ball groups and ball groups with no hit.
    scan = np.flatnonzero(counts == 0)
    if scan.size:
        row_counts, nodes_parts, dists_parts, row_flags = _scan_rows(
            topology,
            cache,
            origins[scan],
            files[scan],
            radius=radius,
            fallback=fallback,
            nearest_ties=nearest_ties,
        )
        counts[scan] = row_counts
        flags[scan] = row_flags
        piece_pos.append(scan)
        piece_counts.append(row_counts)
        piece_nodes += nodes_parts
        piece_dists += dists_parts
    # The empty int64 head makes every slab int64, even one of no parts.
    head = [np.empty(0, dtype=np.int64)]
    if scan.size == files.size or (scan.size == 0 and not nearest_ties):
        # One route built every row in group order: the ball route alone
        # (chunks of ascending positions, unlike the probe's rings), or the
        # scan alone (the ball rows it redid left empty parts).  The parts
        # already are the slab.
        nodes = np.concatenate(head + piece_nodes)
        dists = np.concatenate(head + piece_dists)
        return counts, nodes, dists, flags
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    total = int(indptr[-1])
    nodes = np.empty(total, dtype=np.int64)
    dists = np.empty(total, dtype=np.int64)
    dest = csr_scatter_destinations(
        indptr, np.concatenate(piece_pos), np.concatenate(piece_counts)
    )
    nodes[dest] = np.concatenate(piece_nodes)
    dists[dest] = np.concatenate(piece_dists)
    return counts, nodes, dists, flags


def build_group_index(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    *,
    radius: float = np.inf,
    fallback: FallbackPolicy = FallbackPolicy.NEAREST,
    need_dists: bool = True,
    store: GroupStore | None = None,
    nearest_ties: bool = False,
) -> GroupIndex:
    """Build the CSR candidate index for ``requests`` in batched passes.

    Parameters
    ----------
    radius:
        Proximity constraint; ``inf`` (or anything at least the diameter)
        disables it.
    fallback:
        Policy for groups whose ball contains no replica.
    need_dists:
        When false *and* the radius is unconstrained, candidate distances are
        skipped entirely and the cache's shared file→nodes CSR is aliased
        instead of materialising per-group candidate arrays.
    store:
        Optional :class:`GroupStore` memoising materialised candidate rows
        across calls.  The caller is responsible for handing over a store that
        was only ever used with this exact ``(topology, cache, radius,
        fallback, nearest_ties)`` combination; groups already present in the
        store skip their distance computation, and the missed groups are put
        into it (a full store keeps none of them, so they are rebuilt on every
        call that asks for them).  A fully cold store (``len(store) == 0``)
        is not probed at all — the first window pays exactly the no-store
        build cost, populates the store in one batch ``put_many``, and leaves
        the hit/miss counters untouched.  Ignored in shared (aliasing) mode,
        which does no per-group work to begin with.
    nearest_ties:
        Strategy I's rows instead: each group's replicas at its minimum
        distance, ascending; ``radius``, ``fallback`` and ``need_dists`` do
        not apply.

    Raises
    ------
    NoReplicaError:
        When a requested file is cached nowhere.
    """
    g_origins, g_files, request_group = group_requests(requests)
    num_groups = int(g_origins.size)
    unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)

    fallback_flags = np.zeros(num_groups, dtype=bool)

    if unconstrained and not need_dists and not nearest_ties:
        # Shared mode: every group's candidate set IS the file's replica list.
        indptr, shared_nodes = cache.file_index()
        starts = indptr[g_files].astype(np.int64)
        counts = (indptr[g_files + 1] - indptr[g_files]).astype(np.int64)
        empty = counts == 0
        if np.any(empty):
            raise NoReplicaError(int(g_files[np.flatnonzero(empty)[0]]))
        return GroupIndex(
            origins=g_origins,
            files=g_files,
            starts=starts,
            counts=counts,
            nodes=shared_nodes,
            dists=None,
            fallback=fallback_flags,
            request_group=request_group,
        )

    rows = dict(radius=radius, fallback=fallback, nearest_ties=nearest_ties)
    if store is not None and len(store):
        keys = g_origins * np.int64(requests.num_files) + g_files
        hit_mask, hit_counts, hit_nodes, hit_dists, hit_flags = store.get_many(keys)
        miss_gids = np.flatnonzero(~hit_mask)
        if miss_gids.size:
            miss_counts, miss_nodes, miss_dists, miss_flags = _build_rows_csr(
                topology, cache, g_origins[miss_gids], g_files[miss_gids], **rows
            )
            store.put_many(
                keys[miss_gids], miss_counts, miss_nodes, miss_dists, miss_flags
            )
        else:
            miss_counts = np.empty(0, dtype=np.int64)
            miss_nodes = miss_dists = miss_counts
            miss_flags = np.zeros(0, dtype=bool)
        counts = np.empty(num_groups, dtype=np.int64)
        counts[hit_mask] = hit_counts
        counts[miss_gids] = miss_counts
        fallback_flags[hit_mask] = hit_flags
        fallback_flags[miss_gids] = miss_flags
        ends = np.cumsum(counts)
        indptr = np.concatenate([np.zeros(1, dtype=np.int64), ends])
        total = int(indptr[-1])
        nodes = np.empty(total, dtype=np.int64)
        dists = np.empty(total, dtype=np.int64)
        dest = csr_scatter_destinations(indptr, np.flatnonzero(hit_mask), hit_counts)
        nodes[dest] = hit_nodes
        dists[dest] = hit_dists
        dest = csr_scatter_destinations(indptr, miss_gids, miss_counts)
        nodes[dest] = miss_nodes
        dists[dest] = miss_dists
        return GroupIndex(
            origins=g_origins,
            files=g_files,
            starts=ends - counts,
            counts=counts,
            nodes=nodes,
            dists=dists,
            fallback=fallback_flags,
            request_group=request_group,
        )

    # Cold build: no store, or a store that has never seen a group (first
    # window of a stream) — skip the pointless probe and the miss-counter
    # inflation, build everything fused, and batch-populate the store.
    counts, nodes, dists, fallback_flags = _build_rows_csr(
        topology, cache, g_origins, g_files, **rows
    )
    if store is not None:
        keys = g_origins * np.int64(requests.num_files) + g_files
        store.put_many(keys, counts, nodes, dists, fallback_flags)

    return GroupIndex(
        origins=g_origins,
        files=g_files,
        starts=np.cumsum(counts) - counts,
        counts=counts,
        nodes=nodes,
        dists=dists,
        fallback=fallback_flags,
        request_group=request_group,
    )
