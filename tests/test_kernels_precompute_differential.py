"""Differential suite for the precompute: every build path bit-identical.

The fused cold build and the batch store-backed warm/mixed paths must all
produce the exact same :class:`~repro.kernels.group_index.GroupIndex` as a
scalar per-group model of the paper's candidate semantics — one
``distances_from`` row per ``(origin, file)`` group, then the reference
engine's in-ball filter and fallback policy
(:func:`~repro.kernels.reference._filter_ball`, the authority).  The grid
covers radius ∈ {2, 2.5, 8, inf} × fallback ∈ {NEAREST, EXPAND, ERROR} ×
replica-scan chunk budget ∈ {1, 7, default} plus the shared (aliasing)
mode, on systems chosen so that both row routes run: the torus ball-offset
gather (files with more replicas than ``|B_r|``) and the flat replica scan
(everything else, including ball groups with no in-ball replica).  The
radius-2 points do trigger fallback groups, some with a tied nearest
distance, so the ERROR cells assert every path raises.

Strategy I's ``nearest_ties`` rows (every replica at the group's minimum
distance) go through the same paths and budgets against the model's
``replicas[d == d.min()]``, plus the places where the torus ring probe
stops: ties on the ring it stops at, a group that leaves it for the scan,
a ball that wraps, a file cached nowhere, and the topologies without a
ring probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.catalog.popularity import create_popularity
from repro.exceptions import NoReplicaError, StrategyError
from repro.kernels import group_index
from repro.kernels.group_index import GroupStore, build_group_index, group_requests
from repro.kernels.reference import _filter_ball
from repro.placement.cache import CacheState
from repro.placement.proportional import ProportionalPlacement
from repro.strategies.base import FallbackPolicy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.topology.complete import CompleteTopology
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload
from repro.workload.request import RequestBatch

RADII = [2.0, 2.5, 8.0, np.inf]
POLICIES = [FallbackPolicy.NEAREST, FallbackPolicy.EXPAND, FallbackPolicy.ERROR]


def _make_system(topology, library, cache_size=3):
    cache = ProportionalPlacement(cache_size).place(topology, library, seed=0)
    requests = UniformOriginWorkload(400).generate(topology, library, seed=1)
    return topology, cache, requests


#: Side 16: radius 8 wraps (2r = side), so only r <= 7 takes the ball route;
#: ~38 replicas per file against |B_2| = 13, with many empty balls at r = 2.
#: Side 17: 2r = side - 1 at r = 8, the largest radius the ball route takes;
#: every file has more than |B_8| = 145 replicas.
#: Side 17 with 20 files: about 41 replicas per file, below |B_8| = 145, so
#: at r = 8 every group takes the replica scan with 2r = side - 1 — Figure
#: 5's r = 22 point on a side-45 torus, in small.
#: Zipf: replica counts from 5 to 179, so one build splits at |B_2| = 13.
#: Grid: no wrap-around, never on the ball route.
SYSTEMS = {
    "torus16": lambda: _make_system(Torus2D(256), FileLibrary(20)),
    "torus17": lambda: _make_system(Torus2D(289), FileLibrary(4)),
    "torus17-scan": lambda: _make_system(Torus2D(289), FileLibrary(20)),
    "torus16-zipf": lambda: _make_system(
        Torus2D(256), FileLibrary(20, create_popularity("zipf", 20, gamma=1.2))
    ),
    "grid16": lambda: _make_system(Grid2D(256), FileLibrary(20)),
}


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


def _model_build(topology, cache, requests, *, radius, fallback, nearest_ties=False):
    """Scalar per-group model of the candidate semantics (the authority)."""
    g_origins, g_files, request_group = group_requests(requests)
    unconstrained = bool(np.isinf(radius) or radius >= topology.diameter)
    counts = np.empty(g_origins.size, dtype=np.int64)
    flags = np.zeros(g_origins.size, dtype=bool)
    nodes_rows, dists_rows = [], []
    for gid, (origin, file_id) in enumerate(zip(g_origins, g_files)):
        replicas = cache.file_nodes(int(file_id))
        dist_row = topology.distances_from(int(origin), replicas)
        if nearest_ties:
            # Strategy I: every replica at the minimum distance.
            at_min = dist_row == dist_row.min()
            cand, cand_d = replicas[at_min], dist_row[at_min]
        elif unconstrained:
            cand, cand_d = replicas, dist_row
        else:
            cand, cand_d, flags[gid] = _filter_ball(
                fallback, radius, int(origin), int(file_id), replicas, dist_row
            )
        counts[gid] = cand.size
        nodes_rows.append(cand)
        dists_rows.append(cand_d)
    return {
        "origins": g_origins,
        "files": g_files,
        "counts": counts,
        "nodes": np.concatenate(nodes_rows),
        "dists": np.concatenate(dists_rows),
        "fallback": flags,
        "request_group": request_group,
        "starts": np.cumsum(counts) - counts,
    }


def _assert_matches_model(index, model):
    np.testing.assert_array_equal(index.origins, model["origins"])
    np.testing.assert_array_equal(index.files, model["files"])
    np.testing.assert_array_equal(index.starts, model["starts"])
    np.testing.assert_array_equal(index.counts, model["counts"])
    np.testing.assert_array_equal(index.nodes, model["nodes"])
    np.testing.assert_array_equal(index.dists, model["dists"])
    np.testing.assert_array_equal(index.fallback, model["fallback"])
    np.testing.assert_array_equal(index.request_group, model["request_group"])


def _build_paths(topology, cache, requests, *, radius, fallback, nearest_ties=False):
    """Every build path, labelled: fused cold, store warm, store mixed."""
    kwargs = dict(
        radius=radius, fallback=fallback, need_dists=True, nearest_ties=nearest_ties
    )
    yield "plain", lambda: build_group_index(topology, cache, requests, **kwargs)

    def store_warm():
        store = GroupStore()
        build_group_index(topology, cache, requests, store=store, **kwargs)
        return build_group_index(topology, cache, requests, store=store, **kwargs)

    yield "store-warm", store_warm

    def store_mixed():
        # Half the requests first: the second build mixes hits with misses.
        store = GroupStore()
        half = requests.subset(np.arange(requests.num_requests // 2))
        build_group_index(topology, cache, half, store=store, **kwargs)
        return build_group_index(topology, cache, requests, store=store, **kwargs)

    yield "store-mixed", store_mixed


@pytest.mark.parametrize(
    "scan_pairs", [1, 7, None], ids=["scan=1", "scan=7", "scan=default"]
)
@pytest.mark.parametrize("fallback", POLICIES, ids=lambda p: p.name.lower())
@pytest.mark.parametrize("radius", RADII, ids=lambda r: f"r={r:g}")
def test_all_paths_match_scalar_model(
    monkeypatch, system, radius, fallback, scan_pairs
):
    if scan_pairs is not None:
        # Budgets below a group's replica count give each group its own
        # chunk; the default packs many groups into each chunk.
        monkeypatch.setattr(group_index, "_SCAN_PAIRS", scan_pairs)
    topology, cache, requests = system
    try:
        model = _model_build(
            topology, cache, requests, radius=radius, fallback=fallback
        )
    except StrategyError:
        # ERROR policy with fallback groups present: every path must raise.
        for label, build in _build_paths(
            topology, cache, requests, radius=radius, fallback=fallback
        ):
            with pytest.raises(StrategyError):
                build()
        return
    for label, build in _build_paths(
        topology, cache, requests, radius=radius, fallback=fallback
    ):
        _assert_matches_model(build(), model)


def test_radius_two_exercises_fallback():
    """The grid's radius-2 cells are only meaningful if fallback fires, and
    NEAREST's tie rule (the first minimum in replica order) only if some
    fallback group has more than one replica at its nearest distance."""
    topology, cache, requests = SYSTEMS["torus16"]()
    index = build_group_index(
        topology, cache, requests, radius=2.0, fallback=FallbackPolicy.NEAREST
    )
    assert bool(index.fallback.any())
    tied = 0
    for gid in np.flatnonzero(index.fallback):
        dist_row = topology.distances_from(
            int(index.origins[gid]), cache.file_nodes(int(index.files[gid]))
        )
        tied += int(np.count_nonzero(dist_row == dist_row.min()) > 1)
    assert tied > 0


def _no_call(*args, **kwargs):
    raise AssertionError("this route must not run here")


def test_ball_route_serves_every_group_with_an_in_ball_replica(monkeypatch):
    """Side 17, r = 8: every file beats |B_8| and every ball holds a replica,
    so the replica scan never runs."""
    topology, cache, requests = SYSTEMS["torus17"]()
    assert bool((cache.replication_counts() > topology.ball_size(0, 8)).all())
    model = _model_build(
        topology, cache, requests, radius=8.0, fallback=FallbackPolicy.ERROR
    )
    monkeypatch.setattr(topology, "distances_between", _no_call)
    monkeypatch.setattr(topology, "distances_between_unchecked", _no_call)
    index = build_group_index(
        topology, cache, requests, radius=8.0, fallback=FallbackPolicy.ERROR
    )
    _assert_matches_model(index, model)


def test_scan_serves_every_group_below_the_ball_size(monkeypatch):
    """Side 17 with 20 files, r = 8: every file has fewer replicas than
    |B_8|, so the ball route never runs and the scan builds every row."""
    topology, cache, requests = SYSTEMS["torus17-scan"]()
    assert bool((cache.replication_counts() < topology.ball_size(0, 8)).all())
    model = _model_build(
        topology, cache, requests, radius=8.0, fallback=FallbackPolicy.NEAREST
    )
    monkeypatch.setattr(group_index, "_ball_hits", _no_call)
    index = build_group_index(
        topology, cache, requests, radius=8.0, fallback=FallbackPolicy.NEAREST
    )
    _assert_matches_model(index, model)


def test_zipf_system_splits_between_routes(monkeypatch):
    """One build of the mixed system sends exactly the files with more
    replicas than |B_2| through the ball route, and the rest to the scan."""
    topology, cache, requests = SYSTEMS["torus16-zipf"]()
    replication = cache.replication_counts()
    requested = np.unique(requests.files)
    ball_size = topology.ball_size(0, 2)
    on_ball = requested[replication[requested] > ball_size]
    assert 0 < on_ball.size < requested.size
    seen = []
    ball_hits = group_index._ball_hits

    def spy(cache, members, dists, files):
        seen.append(files)
        return ball_hits(cache, members, dists, files)

    monkeypatch.setattr(group_index, "_ball_hits", spy)
    build_group_index(
        topology, cache, requests, radius=2.0, fallback=FallbackPolicy.NEAREST
    )
    np.testing.assert_array_equal(np.unique(np.concatenate(seen)), on_ball)


@pytest.mark.parametrize(
    "topology,radius,num_files,cache_size",
    [
        (Grid2D(256), 2.0, 4, 3),
        (Torus2D(256), 8.0, 4, 3),  # 2r = side: offsets would overlap
        (Torus2D(289), 16.0, 4, 3),  # the diameter: unconstrained
        (Torus2D(1024), 1.0, 100, 1),  # ~10 replicas > |B_1|, but K > 64 M
    ],
    ids=["grid", "torus-wrapping", "torus-diameter", "torus-wide-library"],
)
def test_replica_scan_only_outside_valid_balls(
    monkeypatch, topology, radius, num_files, cache_size
):
    """Off the torus, where the ball wraps onto itself, or where the
    membership bitset would outgrow the slot array, rows come from the
    replica scan alone and still match the model."""
    library = FileLibrary(num_files)
    _, cache, requests = _make_system(topology, library, cache_size)
    model = _model_build(
        topology, cache, requests, radius=radius, fallback=FallbackPolicy.NEAREST
    )
    monkeypatch.setattr(group_index, "_ball_hits", _no_call)
    index = build_group_index(
        topology, cache, requests, radius=radius, fallback=FallbackPolicy.NEAREST
    )
    _assert_matches_model(index, model)


def test_shared_mode_aliases_cache(system):
    """Unconstrained + no dists: candidate sets alias the cache CSR exactly."""
    topology, cache, requests = system
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=np.inf,
        fallback=FallbackPolicy.NEAREST,
        need_dists=False,
    )
    indptr, shared_nodes = cache.file_index()
    assert index.nodes is shared_nodes  # aliased, not copied
    assert index.dists is None
    for gid in range(index.num_groups):
        start, count = int(index.starts[gid]), int(index.counts[gid])
        np.testing.assert_array_equal(
            index.nodes[start : start + count],
            cache.file_nodes(int(index.files[gid])),
        )
    assert not index.fallback.any()


@pytest.mark.parametrize("radius", [2.0, 8.0], ids=lambda r: f"r={r:g}")
def test_full_store_matches_default(monkeypatch, system, radius):
    """A tiny store, full after the first build, still yields identical indexes."""
    monkeypatch.setattr(group_index, "MAX_GROUPS", 16)
    topology, cache, requests = system
    kwargs = dict(radius=radius, fallback=FallbackPolicy.NEAREST, need_dists=True)
    plain = build_group_index(topology, cache, requests, **kwargs)
    store = GroupStore()
    for _ in range(3):
        churned = build_group_index(
            topology, cache, requests, store=store, **kwargs
        )
        np.testing.assert_array_equal(churned.nodes, plain.nodes)
        np.testing.assert_array_equal(churned.dists, plain.dists)
        np.testing.assert_array_equal(churned.counts, plain.counts)
    assert len(store) == 16


# --------------------------------------------------------------------------
# Strategy I's nearest rows: the ring probe, then the scan.


@pytest.mark.parametrize(
    "scan_pairs", [1, 7, None], ids=["scan=1", "scan=7", "scan=default"]
)
def test_nearest_ties_paths_match_scalar_model(monkeypatch, system, scan_pairs):
    if scan_pairs is not None:
        monkeypatch.setattr(group_index, "_SCAN_PAIRS", scan_pairs)
    topology, cache, requests = system
    kwargs = dict(radius=np.inf, fallback=FallbackPolicy.NEAREST, nearest_ties=True)
    model = _model_build(topology, cache, requests, **kwargs)
    for label, build in _build_paths(topology, cache, requests, **kwargs):
        _assert_matches_model(build(), model)


def _route_spies(monkeypatch):
    """Record each probe ring's distance and the number of scanned groups."""
    rings, scanned = [], []
    ball_hits, scan_rows = group_index._ball_hits, group_index._scan_rows

    def ball_spy(cache, members, dists, files):
        rings.append(int(dists[0]))
        return ball_hits(cache, members, dists, files)

    def scan_spy(topology, cache, origins, files, **kwargs):
        scanned.append(int(origins.size))
        return scan_rows(topology, cache, origins, files, **kwargs)

    monkeypatch.setattr(group_index, "_ball_hits", ball_spy)
    monkeypatch.setattr(group_index, "_scan_rows", scan_spy)
    return rings, scanned


def _file_zero_at(topology, holders, origin):
    """File 0 cached at ``holders`` only, file 1 everywhere else; 40
    requests for file 0 from ``origin``."""
    slots = np.ones((topology.n, 1), dtype=np.int64)
    slots[holders, 0] = 0
    requests = RequestBatch(
        origins=np.full(40, origin, dtype=np.int64),
        files=np.zeros(40, dtype=np.int64),
        num_nodes=topology.n,
        num_files=2,
    )
    return CacheState(slots, 2), requests


def _at(topology, origin, distances):
    hops = topology.distances_from(origin)
    return np.flatnonzero(np.isin(hops, distances))


def _ring_ties():
    # 8 replicas at distance 2 and 6 beyond: 14 > |B_2| = 13, so the
    # probe reaches ring 2 and stops there with eight ties.
    torus = Torus2D(100)
    holders = np.concatenate([_at(torus, 0, [2]), _at(torus, 0, [5])[:6]])
    return torus, holders, [0, 1, 2], 0


def _leaves_probe():
    # 5 replicas, two tied at distance 3: ring 0 misses and 5 <= |B_1|.
    torus = Torus2D(100)
    holders = np.concatenate([_at(torus, 0, [3])[:2], _at(torus, 0, [5])[:3]])
    return torus, holders, [0], 1


def _probe_wraps():
    # Side 4: every node at distance >= 2, so 11 > |B_1| = 5, but B_2 wraps
    # (2 * 2 >= side) and the group goes to the scan with six ties.
    torus = Torus2D(16)
    return torus, _at(torus, 0, [2, 3, 4]), [0, 1], 1


@pytest.mark.parametrize(
    "case",
    [_ring_ties, _leaves_probe, _probe_wraps],
    ids=["ring-ties", "leaves-probe", "probe-wraps"],
)
def test_nearest_probe_stops(monkeypatch, case):
    """Where the probe stops decides the route; the row and the tie draw
    equal the model's and the reference engine's either way."""
    torus, holders, probed_rings, scanned_groups = case()
    cache, requests = _file_zero_at(torus, holders, origin=0)
    kwargs = dict(radius=np.inf, fallback=FallbackPolicy.NEAREST, nearest_ties=True)
    model = _model_build(torus, cache, requests, **kwargs)
    assert model["counts"][0] > 1
    rings, scanned = _route_spies(monkeypatch)
    _assert_matches_model(build_group_index(torus, cache, requests, **kwargs), model)
    assert rings == probed_rings
    assert sum(scanned) == scanned_groups
    batch = NearestReplicaStrategy(engine="batch").assign(
        torus, cache, requests, seed=3
    )
    reference = NearestReplicaStrategy(engine="reference").assign(
        torus, cache, requests, seed=3
    )
    np.testing.assert_array_equal(batch.servers, reference.servers)
    np.testing.assert_array_equal(batch.distances, reference.distances)
    assert np.unique(batch.servers).size > 1


def test_nearest_zipf_system_splits_between_probe_and_scan(monkeypatch):
    """One build sends the rare files' groups from the probe to the scan."""
    topology, cache, requests = SYSTEMS["torus16-zipf"]()
    rings, scanned = _route_spies(monkeypatch)
    index = build_group_index(topology, cache, requests, nearest_ties=True)
    assert rings[0] == 0 and max(rings) > 0
    assert 0 < sum(scanned) < index.num_groups


@pytest.mark.parametrize(
    "topology",
    [Grid2D(256), Ring(200), CompleteTopology(60)],
    ids=["grid", "ring", "complete"],
)
def test_nearest_rows_off_the_torus_come_from_the_scan(monkeypatch, topology):
    _, cache, requests = _make_system(topology, FileLibrary(20))
    kwargs = dict(radius=np.inf, fallback=FallbackPolicy.NEAREST, nearest_ties=True)
    model = _model_build(topology, cache, requests, **kwargs)
    monkeypatch.setattr(group_index, "_ball_hits", _no_call)
    for label, build in _build_paths(topology, cache, requests, **kwargs):
        _assert_matches_model(build(), model)


def _cache_without(uncached, num_files=8, n=256):
    """Two slots per node over every file except ``uncached``."""
    cached = np.setdiff1d(np.arange(num_files), uncached)
    slots = np.random.default_rng(0).choice(cached, size=(n, 2))
    return CacheState(slots, num_files)


def test_nearest_uncached_file_raises_before_any_draw():
    torus = Torus2D(256)
    cache = _cache_without([3, 5])
    requests = UniformOriginWorkload(300).generate(torus, FileLibrary(8), seed=1)
    for engine in ("batch", "reference"):
        streams = (np.random.default_rng(1), np.random.default_rng(2))
        with pytest.raises(NoReplicaError) as raised:
            NearestReplicaStrategy(engine=engine).assign(
                torus, cache, requests, streams=streams
            )
        assert raised.value.file_id == 3
        assert streams[1].random() == np.random.default_rng(2).random()


def test_nearest_uncached_file_with_origin_fallback():
    torus = Torus2D(256)
    cache = _cache_without([3, 5])
    requests = UniformOriginWorkload(300).generate(torus, FileLibrary(8), seed=1)
    uncached = np.isin(requests.files, [3, 5])
    reference = NearestReplicaStrategy(
        allow_origin_fallback=True, engine="reference"
    ).assign(torus, cache, requests, seed=4)
    strategy = NearestReplicaStrategy(allow_origin_fallback=True, engine="batch")
    for _ in range(2):
        batch = strategy.assign(torus, cache, requests, seed=4)
        np.testing.assert_array_equal(batch.servers, reference.servers)
        np.testing.assert_array_equal(batch.distances, reference.distances)
        np.testing.assert_array_equal(batch.fallback_mask, uncached)
    np.testing.assert_array_equal(batch.servers[uncached], requests.origins[uncached])
    assert bool((batch.distances[uncached] == torus.diameter).all())
