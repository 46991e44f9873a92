"""Kernel-engine orchestration: precompute batch-wise, commit sequentially.

Every entry point here follows the same shape:

1. build the :class:`~repro.kernels.group_index.GroupIndex` (batched distance
   matrices, in-ball filtering, fallback resolution — all load-independent);
2. derive the two RNG streams of the contract
   (``rng_sample, rng_tie = spawn_generators(seed, 2)``) and draw *all* of
   their output up front;
3. run the minimal sequential commit loop (load-dependent strategies) or a
   single vectorised gather (load-independent strategies);
4. gather node ids / hop distances vectorised; unconstrained Strategy II
   resolves chosen-replica distances in one batched
   :meth:`~repro.topology.base.Topology.distances_between` call *after* the
   commit loop instead of one topology query per request.

The scalar implementations of the same contract live in
:mod:`repro.kernels.reference`; for any seed the two produce bit-identical
:class:`~repro.strategies.base.AssignmentResult` arrays.

Incremental (session) serving
-----------------------------

Every entry point also accepts three optional keyword arguments used by the
session layer (:mod:`repro.session`) to serve a request *stream* window by
window (the scalar entry points of :mod:`repro.kernels.reference` take the
same three, so every engine serves windows):

* ``streams`` — a pre-spawned ``(rng_sample, rng_tie)`` pair used instead of
  deriving fresh streams from ``seed``.  Because the contract consumes
  randomness strictly per request, carrying the same generator pair across
  windows makes the windowed run consume exactly the one-shot stream.
* ``loads`` — a persistent int64 load vector (length ``n``) seeding the commit
  loop and updated in place, so window ``w + 1`` observes the loads created by
  windows ``0 .. w``.  Load-independent strategies also add their assignments
  to it, keeping the session's cumulative metrics uniform.
* ``store`` — a :class:`~repro.kernels.group_index.GroupStore` memoising
  materialised candidate rows across windows (the group index depends only on
  ``(topology, cache, radius, fallback)``, never on the loads).

Serving any partition of a request batch through these hooks is bit-identical
to the one-shot call — the property enforced by ``tests/test_session_stream.py``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.commit import (
    commit_least_loaded_of_sample,
    commit_least_loaded_scan,
    commit_threshold_hybrid,
)
from repro.exceptions import NoReplicaError
from repro.kernels.group_index import (
    GroupStore,
    build_group_index,
    csr_scatter_destinations,
    group_requests,
    iter_file_segments,
)
from repro.kernels.sampling import draw_sample_positions
from repro.placement.cache import CacheState
from repro.rng import SeedLike, spawn_generators
from repro.strategies.base import AssignmentResult, FallbackPolicy
from repro.topology.base import Topology
from repro.types import IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "two_choice_kernel",
    "least_loaded_kernel",
    "threshold_hybrid_kernel",
    "random_replica_kernel",
    "nearest_replica_kernel",
]

#: Strategy I's bound on the group rows of one per-file distance matrix:
#: peak memory is about this many rows times the file's replica count.
_NEAREST_CHUNK_ROWS = 4096


def _empty_result(n: int, strategy_name: str) -> AssignmentResult:
    return AssignmentResult(
        servers=np.empty(0, dtype=np.int64),
        distances=np.empty(0, dtype=np.int64),
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=np.zeros(0, dtype=bool),
    )


def _gather_sample(
    index, positions: IntArray, sample_counts: IntArray
) -> tuple[IntArray, IntArray | None]:
    """Flat sampled node ids (and distances when materialised)."""
    base = np.repeat(index.request_starts(), sample_counts)
    flat = base + positions
    nodes = index.nodes[flat]
    dists = index.dists[flat] if index.dists is not None else None
    return nodes, dists


def two_choice_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    num_choices: int,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=commit_least_loaded_of_sample,
) -> AssignmentResult:
    """Batched Strategy II (proximity-aware ``d``-choice assignment).

    ``commit`` swaps the sequential commit-loop implementation (same
    signature and bit-identical semantics as
    :func:`~repro.kernels.commit.commit_least_loaded_of_sample`) — the hook
    compiled backends (:mod:`repro.backends.numba_backend`) plug into while
    sharing all of this precompute.
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=not unconstrained,
        store=store,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    positions, sample_counts, sample_indptr = draw_sample_positions(
        index.request_counts(), num_choices, rng_sample
    )
    tie_uniforms = rng_tie.random(m)
    sample_nodes, sample_dists = _gather_sample(index, positions, sample_counts)
    winners = commit(
        n, sample_nodes, sample_counts, sample_indptr, tie_uniforms, loads
    )
    servers = sample_nodes[winners]
    if sample_dists is not None:
        distances = sample_dists[winners]
    else:
        distances = topology.distances_between(requests.origins, servers)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def least_loaded_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=commit_least_loaded_scan,
) -> AssignmentResult:
    """Batched omniscient baseline: least loaded replica in the ball.

    ``commit`` swaps the commit-loop implementation (see
    :func:`two_choice_kernel`).
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    tie_uniforms = rng_tie.random(m)
    winners = commit(
        n,
        index.nodes,
        index.dists,
        index.request_starts(),
        index.request_counts(),
        tie_uniforms,
        loads,
    )
    return AssignmentResult(
        servers=index.nodes[winners],
        distances=index.dists[winners],
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def threshold_hybrid_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    num_choices: int,
    threshold: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
    commit=commit_threshold_hybrid,
) -> AssignmentResult:
    """Batched threshold hybrid: closest sampled candidate within the slack.

    ``commit`` swaps the commit-loop implementation (see
    :func:`two_choice_kernel`).
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    # The hybrid rule compares candidate distances, so they are materialised
    # even without a radius constraint.
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=True,
        store=store,
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    positions, sample_counts, sample_indptr = draw_sample_positions(
        index.request_counts(), num_choices, rng_sample
    )
    tie_uniforms = rng_tie.random(m)
    sample_nodes, sample_dists = _gather_sample(index, positions, sample_counts)
    winners = commit(
        n, sample_nodes, sample_dists, sample_indptr, threshold, tie_uniforms, loads
    )
    return AssignmentResult(
        servers=sample_nodes[winners],
        distances=sample_dists[winners],
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def random_replica_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    radius: float,
    fallback: FallbackPolicy,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
) -> AssignmentResult:
    """One-choice baseline as a single vectorised pass (no Python loop)."""
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=fallback,
        need_dists=not unconstrained,
        store=store,
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    uniforms = rng_tie.random(m)
    counts = index.request_counts()
    picks = (uniforms * counts).astype(np.int64)
    flat = index.request_starts() + picks
    servers = index.nodes[flat]
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    if index.dists is not None:
        distances = index.dists[flat]
    else:
        distances = topology.distances_between(requests.origins, servers)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=index.fallback[index.request_group],
    )


def nearest_replica_kernel(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    seed: SeedLike,
    *,
    allow_origin_fallback: bool,
    strategy_name: str,
    streams: tuple[np.random.Generator, np.random.Generator] | None = None,
    loads: IntArray | None = None,
    store: GroupStore | None = None,
) -> AssignmentResult:
    """Strategy I as a single vectorised pass over grouped requests.

    Unlike the load-aware kernels this never materialises full candidate
    sets: per file (chunked to ``_NEAREST_CHUNK_ROWS`` group rows) only each
    group's minimum distance and its tied nearest replicas survive the
    distance matrix, so peak memory stays bounded by one chunk — matching
    the pre-kernel behaviour of the strategy.
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)

    g_origins, g_files, group_of = group_requests(requests)
    num_groups = int(g_origins.size)

    group_min = np.zeros(num_groups, dtype=np.int64)
    tie_counts = np.zeros(num_groups, dtype=np.int64)
    missing = np.zeros(num_groups, dtype=bool)
    pieces: list[tuple[IntArray, IntArray, IntArray]] = []

    for segment in iter_file_segments(g_files):
        file_id = int(g_files[segment[0]])
        replicas = cache.file_nodes(file_id)
        if replicas.size == 0:
            if not allow_origin_fallback:
                raise NoReplicaError(file_id)
            missing[segment] = True
            continue
        for start in range(0, segment.size, _NEAREST_CHUNK_ROWS):
            gids = segment[start : start + _NEAREST_CHUNK_ROWS]
            matrix = topology.pairwise_distances(g_origins[gids], replicas)
            row_min = matrix.min(axis=1)
            is_min = matrix == row_min[:, None]
            group_min[gids] = row_min
            row_ties = is_min.sum(axis=1).astype(np.int64)
            tie_counts[gids] = row_ties
            _, cols = np.nonzero(is_min)  # row-major: replicas ascending
            pieces.append((gids.astype(np.int64), row_ties, replicas[cols]))

    tie_indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(tie_counts)])
    tie_nodes = np.empty(int(tie_indptr[-1]), dtype=np.int64)
    for gids, row_ties, flat_nodes in pieces:
        tie_nodes[csr_scatter_destinations(tie_indptr, gids, row_ties)] = flat_nodes

    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    uniforms = rng_tie.random(m)
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    fallback_mask = missing[group_of]
    served = ~fallback_mask
    if np.any(served):
        groups = group_of[served]
        picks = (uniforms[served] * tie_counts[groups]).astype(np.int64)
        servers[served] = tie_nodes[tie_indptr[groups] + picks]
        distances[served] = group_min[groups]
    if np.any(fallback_mask):
        servers[fallback_mask] = requests.origins[fallback_mask]
        distances[fallback_mask] = topology.diameter
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )
