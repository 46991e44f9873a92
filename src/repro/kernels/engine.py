"""Kernel-engine orchestration: precompute batch-wise, commit sequentially.

Every entry point here follows the same shape:

1. build the :class:`~repro.kernels.group_index.GroupIndex` (ball or ring
   gathers, replica scan, fallback resolution — all load-independent);
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

Every entry point also accepts two optional keyword arguments used by the
session layer (:mod:`repro.session`) to serve a request *stream* window by
window (the scalar entry points of :mod:`repro.kernels.reference` take the
same two, so every engine serves windows):

* ``streams`` — a pre-spawned ``(rng_sample, rng_tie)`` pair used instead of
  deriving fresh streams from ``seed``.  Because the contract consumes
  randomness strictly per request, carrying the same generator pair across
  windows makes the windowed run consume exactly the one-shot stream.
* ``loads`` — a persistent int64 load vector (length ``n``) seeding the commit
  loop and updated in place, so window ``w + 1`` observes the loads created by
  windows ``0 .. w``.  Load-independent strategies also add their assignments
  to it, keeping the session's cumulative metrics uniform.

Serving any partition of a request batch through these hooks is bit-identical
to the one-shot call — the property enforced by ``tests/test_session_stream.py``.
Each window builds its group index afresh.  Its rows do not depend on the
loads, so a memo could carry them across windows, but at the shares of
recurring groups static streams show (1–20%) looking rows up in a
:class:`~repro.kernels.group_index.GroupStore` measured slower than building
them; only the queueing windows keep one.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.commit import (
    commit_least_loaded_of_sample,
    commit_least_loaded_scan,
    commit_threshold_hybrid,
)
from repro.exceptions import NoReplicaError
from repro.kernels.group_index import build_group_index
from repro.kernels.sampling import draw_sample_positions
from repro.placement.cache import CacheState
from repro.rng import SeedLike, spawn_generators
from repro.strategies.base import AssignmentResult, FallbackPolicy
from repro.topology.base import Topology
from repro.types import FloatArray, IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "two_choice_kernel",
    "least_loaded_kernel",
    "threshold_hybrid_kernel",
    "random_replica_kernel",
    "nearest_replica_kernel",
]

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


def _pick_uniformly(
    topology: Topology, origins: IntArray, index, uniforms: FloatArray
) -> tuple[IntArray, IntArray]:
    """Each request's ``floor(u * count)``-th candidate: ``(servers, distances)``."""
    picks = (uniforms * index.request_counts()).astype(np.int64)
    flat = index.request_starts() + picks
    servers = index.nodes[flat]
    if index.dists is None:
        return servers, topology.distances_between(origins, servers)
    return servers, index.dists[flat]


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
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    servers, distances = _pick_uniformly(
        topology, requests.origins, index, rng_tie.random(m)
    )
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
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
) -> AssignmentResult:
    """Strategy I: a uniform pick among each group's nearest replicas.

    The rows are :func:`build_group_index`'s ``nearest_ties`` rows.  A
    request for a file cached nowhere raises :class:`NoReplicaError` (the
    smallest such file) before any draw, or, with ``allow_origin_fallback``,
    goes to its origin at the diameter without entering the index.
    """
    m = requests.num_requests
    n = topology.n
    if m == 0:
        return _empty_result(n, strategy_name)
    uncached = cache.replication_counts()[requests.files] == 0
    if uncached.any() and not allow_origin_fallback:
        raise NoReplicaError(int(requests.files[uncached].min()))
    served = np.flatnonzero(~uncached)
    batch = requests.subset(served)
    index = build_group_index(topology, cache, batch, nearest_ties=True)
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    uniforms = rng_tie.random(m)
    servers = requests.origins.copy()
    distances = np.full(m, topology.diameter, dtype=np.int64)
    servers[served], distances[served] = _pick_uniformly(
        topology, batch.origins, index, uniforms[served]
    )
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=uncached,
    )
