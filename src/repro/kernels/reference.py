"""Scalar reference engine: the per-request loop, under the kernel contract.

These are the pre-kernel per-request implementations, restructured only in how
they consume randomness so that they follow the RNG-stream contract documented
in ``repro/kernels/__init__.py``.  They exist for differential testing: the
batched engines must produce bit-identical results to this module for
every seed, and when the two disagree the reference engine is authoritative —
it is the direct transcription of the paper's process definitions, with no
batching, CSR indexing or vectorised sampling to hide a bug in.

The paper's processes run one request at a time, so a request stream served
in windows is the same process.  Every function here therefore takes the
window keywords of the batched entry points (:mod:`repro.kernels.engine`):
``streams`` replaces the ``(rng_sample, rng_tie)`` pair derived from
``seed``, and ``loads`` is an int64 load vector updated in place (the
load-independent baselines add their assignments to it).  Candidates are
load-independent, so every request's are resolved before the first draw: a
window that raises (a file cached nowhere, or ``FallbackPolicy.ERROR`` with
an empty ball) leaves the caller's streams and loads untouched, as it does on
the batched engines.

Keep this module boring.  Optimisations belong in :mod:`repro.kernels.engine`;
the only non-obvious transformation retained here is resolving chosen-replica
distances for the unconstrained Strategy II / one-choice paths in one batched
call after the loop — the loop itself never queries the topology for a request
whose candidate filtering did not need distances.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NoReplicaError, StrategyError
from repro.placement.cache import CacheState
from repro.rng import SeedLike, spawn_generators
from repro.strategies.base import AssignmentResult, FallbackPolicy
from repro.topology.base import Topology
from repro.types import IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "two_choice_reference",
    "least_loaded_reference",
    "threshold_hybrid_reference",
    "random_replica_reference",
    "nearest_replica_reference",
]


def _replica_cache(
    cache: CacheState, requests: RequestBatch, allow_missing: bool = False
) -> dict[int, IntArray]:
    """Replicas of every requested file.

    Unless ``allow_missing``, a file cached nowhere raises
    :class:`NoReplicaError` (the smallest such file, as the group index does)
    before any distance work or draw.
    """
    out: dict[int, IntArray] = {}
    for file_id in np.unique(requests.files):
        replicas = cache.file_nodes(int(file_id))
        if replicas.size == 0 and not allow_missing:
            raise NoReplicaError(int(file_id))
        out[int(file_id)] = replicas
    return out


def _candidate_sets(
    topology: Topology,
    cache: CacheState,
    requests: RequestBatch,
    radius: float,
    fallback: FallbackPolicy,
    need_dists: bool,
) -> tuple[list[IntArray], list[IntArray | None], np.ndarray]:
    """Every request's candidate replicas, their distances and fallback flag.

    Distances are ``None`` for an unconstrained radius when ``need_dists`` is
    false; the topology is then never queried.
    """
    replicas_of = _replica_cache(cache, requests)
    unconstrained = np.isinf(radius) or radius >= topology.diameter
    candidates: list[IntArray] = []
    candidate_dists: list[IntArray | None] = []
    fallback_mask = np.zeros(requests.num_requests, dtype=bool)
    for i in range(requests.num_requests):
        origin = int(requests.origins[i])
        file_id = int(requests.files[i])
        replicas = replicas_of[file_id]
        if unconstrained and not need_dists:
            candidates.append(replicas)
            candidate_dists.append(None)
            continue
        dists = topology.distances_from(origin, replicas)
        if unconstrained:
            candidates.append(replicas)
            candidate_dists.append(dists)
            continue
        in_ball, in_ball_dists, fallback_mask[i] = _filter_ball(
            fallback, radius, origin, file_id, replicas, dists
        )
        candidates.append(in_ball)
        candidate_dists.append(in_ball_dists)
    return candidates, candidate_dists, fallback_mask


def _sample_positions(
    candidates_size: int, num_choices: int, rng_sample: np.random.Generator
) -> IntArray:
    """Contract sampling: sequential shifted-uniform draw, ``d`` doubles."""
    if candidates_size <= num_choices:
        return np.arange(candidates_size, dtype=np.int64)
    picks: list[int] = []
    for j in range(num_choices):
        pick = int(rng_sample.random() * (candidates_size - j))
        for taken in sorted(picks):
            if pick >= taken:
                pick += 1
        picks.append(pick)
    return np.asarray(picks, dtype=np.int64)


def _filter_ball(
    policy: FallbackPolicy,
    radius: float,
    origin: int,
    file_id: int,
    replicas: IntArray,
    dists: IntArray,
) -> tuple[IntArray, IntArray, bool]:
    """In-ball candidates, applying the fallback policy when the ball is empty."""
    in_ball = dists <= radius
    if np.any(in_ball):
        return replicas[in_ball], dists[in_ball], False
    if policy is FallbackPolicy.ERROR:
        raise StrategyError(
            f"no replica of file {file_id} within radius {radius} of node {origin}"
        )
    if policy is FallbackPolicy.NEAREST:
        nearest = int(np.argmin(dists))
        return replicas[nearest : nearest + 1], dists[nearest : nearest + 1], True
    expanded = max(radius, 1.0)
    while True:
        expanded *= 2.0
        in_ball = dists <= expanded
        if np.any(in_ball):
            return replicas[in_ball], dists[in_ball], True


def two_choice_reference(
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
) -> AssignmentResult:
    """Scalar Strategy II under the kernel RNG-stream contract."""
    candidates_of, dists_of, fallback_mask = _candidate_sets(
        topology, cache, requests, radius, fallback, need_dists=False
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    m = requests.num_requests
    n = topology.n
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    if loads is None:
        loads = np.zeros(n, dtype=np.int64)

    for i in range(m):
        candidates = candidates_of[i]
        candidate_dists = dists_of[i]
        selected = _sample_positions(candidates.size, num_choices, rng_sample)
        sampled = candidates[selected]
        tie_u = rng_tie.random()
        sampled_loads = loads[sampled]
        minimal = np.flatnonzero(sampled_loads == sampled_loads.min())
        winner = int(minimal[int(tie_u * minimal.size)])
        chosen = int(sampled[winner])
        servers[i] = chosen
        distances[i] = -1 if candidate_dists is None else int(candidate_dists[selected[winner]])
        loads[chosen] += 1

    unresolved = distances < 0
    if np.any(unresolved):
        distances[unresolved] = topology.distances_between(
            requests.origins[unresolved], servers[unresolved]
        )
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )


def least_loaded_reference(
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
    """Scalar omniscient baseline under the kernel RNG-stream contract."""
    candidates_of, dists_of, fallback_mask = _candidate_sets(
        topology, cache, requests, radius, fallback, need_dists=True
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    m = requests.num_requests
    n = topology.n
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    if loads is None:
        loads = np.zeros(n, dtype=np.int64)

    for i in range(m):
        candidates = candidates_of[i]
        candidate_dists = dists_of[i]
        tie_u = rng_tie.random()
        candidate_loads = loads[candidates]
        minimal = np.flatnonzero(candidate_loads == candidate_loads.min())
        closest = minimal[candidate_dists[minimal] == candidate_dists[minimal].min()]
        pick = int(closest[int(tie_u * closest.size)])
        chosen = int(candidates[pick])
        servers[i] = chosen
        distances[i] = int(candidate_dists[pick])
        loads[chosen] += 1

    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )


def threshold_hybrid_reference(
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
) -> AssignmentResult:
    """Scalar threshold hybrid under the kernel RNG-stream contract."""
    candidates_of, dists_of, fallback_mask = _candidate_sets(
        topology, cache, requests, radius, fallback, need_dists=True
    )
    rng_sample, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    m = requests.num_requests
    n = topology.n
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    if loads is None:
        loads = np.zeros(n, dtype=np.int64)

    for i in range(m):
        candidates = candidates_of[i]
        selected = _sample_positions(candidates.size, num_choices, rng_sample)
        sampled = candidates[selected]
        sampled_dists = dists_of[i][selected]
        tie_u = rng_tie.random()
        sampled_loads = loads[sampled]
        eligible = np.flatnonzero(sampled_loads <= sampled_loads.min() + threshold)
        closest = eligible[sampled_dists[eligible] == sampled_dists[eligible].min()]
        pick = int(closest[int(tie_u * closest.size)])
        chosen = int(sampled[pick])
        servers[i] = chosen
        distances[i] = int(sampled_dists[pick])
        loads[chosen] += 1

    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )


def random_replica_reference(
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
    """Scalar one-choice baseline under the kernel RNG-stream contract."""
    candidates_of, dists_of, fallback_mask = _candidate_sets(
        topology, cache, requests, radius, fallback, need_dists=False
    )
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    m = requests.num_requests
    n = topology.n
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)

    for i in range(m):
        candidates = candidates_of[i]
        candidate_dists = dists_of[i]
        tie_u = rng_tie.random()
        pick = int(tie_u * candidates.size)
        servers[i] = int(candidates[pick])
        distances[i] = -1 if candidate_dists is None else int(candidate_dists[pick])

    unresolved = distances < 0
    if np.any(unresolved):
        distances[unresolved] = topology.distances_between(
            requests.origins[unresolved], servers[unresolved]
        )
    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )


def nearest_replica_reference(
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
    """Scalar Strategy I under the kernel RNG-stream contract."""
    replicas_of = _replica_cache(cache, requests, allow_missing=allow_origin_fallback)
    _, rng_tie = streams if streams is not None else spawn_generators(seed, 2)
    m = requests.num_requests
    n = topology.n
    servers = np.empty(m, dtype=np.int64)
    distances = np.empty(m, dtype=np.int64)
    fallback_mask = np.zeros(m, dtype=bool)

    for i in range(m):
        origin = int(requests.origins[i])
        replicas = replicas_of[int(requests.files[i])]
        tie_u = rng_tie.random()
        if replicas.size == 0:
            servers[i] = origin
            distances[i] = topology.diameter
            fallback_mask[i] = True
            continue
        dists = topology.distances_from(origin, replicas)
        nearest = np.flatnonzero(dists == dists.min())
        pick = int(nearest[int(tie_u * nearest.size)])
        servers[i] = int(replicas[pick])
        distances[i] = int(dists[pick])

    if loads is not None:
        loads += np.bincount(servers, minlength=n)
    return AssignmentResult(
        servers=servers,
        distances=distances,
        num_nodes=n,
        strategy_name=strategy_name,
        fallback_mask=fallback_mask,
    )
