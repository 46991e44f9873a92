"""Unit tests of the kernel precompute building blocks.

Covers the CSR request-group index (candidate sets, fallback resolution,
shared vs materialised mode), the batched sampling pass, and the batched
topology APIs (the validated distance queries every topology derives from
its one metric method).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.exceptions import NoReplicaError, TopologyError
from repro.kernels import build_group_index, draw_sample_positions, segmented_arange
from repro.placement.cache import CacheState
from repro.placement.proportional import ProportionalPlacement
from repro.strategies.base import FallbackPolicy
from repro.topology.complete import CompleteTopology
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload
from repro.workload.request import RequestBatch


def _system(topology, num_files=15, cache_size=3, num_requests=120):
    library = FileLibrary(num_files)
    cache = ProportionalPlacement(cache_size).place(topology, library, seed=2)
    requests = UniformOriginWorkload(num_requests).generate(topology, library, seed=3)
    return cache, requests


class TestSegmentedArange:
    def test_basic(self):
        np.testing.assert_array_equal(
            segmented_arange(np.asarray([2, 0, 3])), [0, 1, 0, 1, 2]
        )

    def test_empty(self):
        assert segmented_arange(np.asarray([], dtype=np.int64)).size == 0


class TestGroupIndex:
    @pytest.mark.parametrize(
        "topology", [Torus2D(49), Grid2D(49), Ring(40), CompleteTopology(30)],
        ids=lambda t: t.name,
    )
    def test_candidates_match_scalar_queries(self, topology):
        cache, requests = _system(topology)
        radius = 2
        index = build_group_index(
            topology, cache, requests, radius=radius, fallback=FallbackPolicy.NEAREST
        )
        assert index.request_group.size == requests.num_requests
        for g in range(index.num_groups):
            origin = int(index.origins[g])
            file_id = int(index.files[g])
            replicas = cache.file_nodes(file_id)
            dists = topology.distances_from(origin, replicas)
            in_ball = dists <= radius
            start, count = int(index.starts[g]), int(index.counts[g])
            got_nodes = index.nodes[start : start + count]
            got_dists = index.dists[start : start + count]
            if np.any(in_ball):
                assert not index.fallback[g]
                np.testing.assert_array_equal(got_nodes, replicas[in_ball])
                np.testing.assert_array_equal(got_dists, dists[in_ball])
            else:
                assert index.fallback[g]
                nearest = int(np.argmin(dists))
                np.testing.assert_array_equal(got_nodes, replicas[nearest : nearest + 1])

    def test_shared_mode_aliases_cache_index(self):
        torus = Torus2D(49)
        cache, requests = _system(torus)
        index = build_group_index(torus, cache, requests, radius=np.inf, need_dists=False)
        indptr, nodes = cache.file_index()
        assert index.nodes is nodes
        assert index.dists is None
        for g in range(index.num_groups):
            file_id = int(index.files[g])
            assert index.starts[g] == indptr[file_id]
            assert index.counts[g] == indptr[file_id + 1] - indptr[file_id]

    def test_request_group_maps_back(self):
        torus = Torus2D(49)
        cache, requests = _system(torus)
        index = build_group_index(torus, cache, requests, radius=np.inf, need_dists=False)
        np.testing.assert_array_equal(
            index.origins[index.request_group], requests.origins
        )
        np.testing.assert_array_equal(index.files[index.request_group], requests.files)

    def test_missing_file_raises(self, monkeypatch):
        torus = Torus2D(25)
        slots = np.zeros((25, 1), dtype=np.int64)
        cache = CacheState(slots, num_files=2)
        requests = RequestBatch(
            origins=np.asarray([1, 2], dtype=np.int64),
            files=np.asarray([1, 0], dtype=np.int64),
            num_nodes=25,
            num_files=2,
        )

        def no_distances(*args, **kwargs):
            raise AssertionError("NoReplicaError must come before distance work")

        # At radius 2 file 0 (25 replicas > |B_2| = 13) takes the ball route
        # and file 1 (none) would take the replica scan.
        monkeypatch.setattr(torus, "distances_between", no_distances)
        monkeypatch.setattr(torus, "distances_between_unchecked", no_distances)
        for radius, need_dists in ((np.inf, True), (np.inf, False), (2.0, True)):
            with pytest.raises(NoReplicaError):
                build_group_index(
                    torus, cache, requests, radius=radius, need_dists=need_dists
                )


class TestSampling:
    def test_small_sets_take_all_in_order(self):
        rng = np.random.default_rng(0)
        counts = np.asarray([1, 2, 2], dtype=np.int64)
        positions, sample_counts, indptr = draw_sample_positions(counts, 2, rng)
        np.testing.assert_array_equal(sample_counts, counts)
        np.testing.assert_array_equal(positions, [0, 0, 1, 0, 1])
        # No candidate set exceeds d, so no sampling randomness was consumed.
        np.testing.assert_array_equal(rng.random(1), np.random.default_rng(0).random(1))

    def test_positions_valid_and_distinct(self):
        rng = np.random.default_rng(1)
        counts = np.asarray([5, 3, 17, 100, 2], dtype=np.int64)
        positions, sample_counts, indptr = draw_sample_positions(counts, 2, rng)
        for i, c in enumerate(counts):
            chunk = positions[indptr[i] : indptr[i + 1]]
            assert chunk.size == min(int(c), 2)
            assert len(set(chunk.tolist())) == chunk.size
            assert np.all((chunk >= 0) & (chunk < c))

    def test_uniform_subset_distribution(self):
        # Sampling d=2 of c=4 must hit each unordered pair ~uniformly.
        rng = np.random.default_rng(2)
        counts = np.full(6000, 4, dtype=np.int64)
        positions, _, indptr = draw_sample_positions(counts, 2, rng)
        pairs = positions.reshape(-1, 2)
        keys = np.sort(pairs, axis=1)
        _, freq = np.unique(keys[:, 0] * 4 + keys[:, 1], return_counts=True)
        assert freq.size == 6  # all C(4, 2) pairs occur
        assert freq.min() > 6000 / 6 * 0.8


#: One of each topology; ``Topology`` derives every validated distance query
#: from each one's ``distances_between_unchecked``.
TOPOLOGIES = [Torus2D(49), Grid2D(49), Ring(40), CompleteTopology(30)]


class TestBatchedTopologyAPI:
    """``distances_between``, ``pairwise_distances`` and ``distances_from``
    agree with ``distance`` pair by pair, answer int64 and check their ids."""

    pytestmark = pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)

    def test_distances_between_elementwise(self, topology):
        rng = np.random.default_rng(4)
        a = rng.integers(0, topology.n, size=200)
        b = rng.integers(0, topology.n, size=200)
        got = topology.distances_between(a, b)
        expected = [topology.distance(int(u), int(v)) for u, v in zip(a, b)]
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_pairwise_distances_matrix(self, topology):
        rng = np.random.default_rng(5)
        a = rng.integers(0, topology.n, size=17)
        b = rng.integers(0, topology.n, size=11)
        got = topology.pairwise_distances(a, b)
        expected = [[topology.distance(int(u), int(v)) for v in b] for u in a]
        assert got.dtype == np.int64 and got.shape == (17, 11)
        np.testing.assert_array_equal(got, expected)

    def test_distances_from_row(self, topology):
        rng = np.random.default_rng(6)
        origin = int(rng.integers(topology.n))
        targets = rng.integers(0, topology.n, size=23)
        got = topology.distances_from(origin, targets)
        row = topology.distances_from(origin)
        assert got.dtype == np.int64 and row.dtype == np.int64
        np.testing.assert_array_equal(
            got, [topology.distance(origin, int(v)) for v in targets]
        )
        np.testing.assert_array_equal(
            row, [topology.distance(origin, v) for v in range(topology.n)]
        )

    def test_pairwise_distances_are_hop_counts(self, topology):
        """The one metric method against breadth-first search on the graph
        the topology's neighbours define."""
        import networkx as nx

        nodes = np.arange(topology.n)
        hops = dict(nx.all_pairs_shortest_path_length(topology.to_networkx()))
        expected = [[hops[u][v] for v in range(topology.n)] for u in range(topology.n)]
        np.testing.assert_array_equal(topology.pairwise_distances(nodes, nodes), expected)

    def test_distances_between_shape_mismatch(self, topology):
        with pytest.raises(TopologyError):
            topology.distances_between(np.asarray([1, 2]), np.asarray([3]))

    def test_distances_from_takes_one_origin(self, topology):
        """Several origins raise instead of broadcasting against the targets."""
        for origins in ([1, 2], np.array([1, 2]), np.array([1])):
            with pytest.raises(TopologyError):
                topology.distances_from(origins, [3])
        with pytest.raises(TopologyError):
            topology.distances_from([1, 2])
        assert topology.distances_from(np.int64(1), [3]).tolist() == [
            topology.distance(1, 3)
        ]

    def test_out_of_range_ids_raise(self, topology):
        for query in (
            lambda: topology.distances_between([0], [topology.n]),
            lambda: topology.pairwise_distances([-1], [0]),
            lambda: topology.distances_from(topology.n),
            lambda: topology.distances_from(0, [topology.n]),
        ):
            with pytest.raises(TopologyError):
                query()


class TestNarrowWidths:
    """The precompute's integer widths, at the edges of each rule.

    Tori and caches large enough to reach these edges do not fit a test
    run, so the helpers that choose the widths are called with the
    boundary values directly.
    """

    @pytest.mark.parametrize(
        "side,expected", [(2**14 - 1, np.int16), (2**14, np.int32)]
    )
    def test_torus_coordinates(self, side, expected):
        from repro.topology.torus import _coordinate_type

        assert _coordinate_type(side) is expected

    @pytest.mark.parametrize(
        "limit,expected", [(2**31 - 1, np.int32), (2**31, np.int64)]
    )
    def test_index_arithmetic(self, limit, expected):
        """One rule for node ids (limit n), membership bits (limit
        n * 8 * ceil(K / 8)) and file index positions (limit its length)."""
        from repro.types import index_type

        assert index_type(limit) is expected

    def test_small_torus_is_narrow_and_its_answers_wide(self):
        torus = Torus2D(289)
        origins, targets = np.array([0, 5, 288]), np.array([288, 144, 0])
        assert torus.distances_between_unchecked(origins, targets).dtype == np.int16
        assert torus.distances_between(origins, targets).dtype == np.int64
        assert torus.distances_from(0).dtype == np.int64
        members, dists = torus.ball_matrix(origins, 3)
        assert members.dtype == np.int32 and dists.dtype == np.int64
        assert torus.ball(0, 3).dtype == np.int64
        assert all(c.dtype == np.int64 for c in torus.coordinates(origins))

    @pytest.mark.parametrize(
        "num_files,route", [(4, "ball"), (20, "scan")], ids=["ball", "scan"]
    )
    def test_out_of_range_origin_raises(self, monkeypatch, num_files, route):
        """An origin outside the topology is a TopologyError on either route
        (side 17, r = 8: 4 files all beat |B_8|, 20 files none do)."""
        from repro.kernels import group_index

        torus = Torus2D(289)
        library = FileLibrary(num_files)
        cache = ProportionalPlacement(3).place(torus, library, seed=0)
        on_ball = cache.replication_counts() > torus.ball_size(0, 8)
        assert on_ball.all() if route == "ball" else not on_ball.any()
        requests = RequestBatch(
            origins=np.asarray([3, 289], dtype=np.int64),
            files=np.asarray([0, 1], dtype=np.int64),
            num_nodes=300,
            num_files=num_files,
        )
        with pytest.raises(TopologyError):
            build_group_index(torus, cache, requests, radius=8.0)
