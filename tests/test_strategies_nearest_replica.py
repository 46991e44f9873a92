"""Tests for Strategy I (nearest replica)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.exceptions import NoReplicaError, StrategyError
from repro.kernels import group_index
from repro.placement.cache import CacheState
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload
from repro.workload.request import RequestBatch


@pytest.fixture
def torus():
    return Torus2D(100)


@pytest.fixture
def library():
    return FileLibrary(20)


@pytest.fixture
def cache(torus, library):
    return PartitionPlacement(4).place(torus, library)


class TestCorrectness:
    def test_assigns_to_caching_server(self, torus, library, cache):
        requests = UniformOriginWorkload(200).generate(torus, library, seed=0)
        result = NearestReplicaStrategy().assign(torus, cache, requests, seed=1)
        for i in range(requests.num_requests):
            server = int(result.servers[i])
            assert cache.contains(server, int(requests.files[i]))

    def test_picks_minimum_distance(self, torus, library, cache):
        requests = UniformOriginWorkload(200).generate(torus, library, seed=2)
        result = NearestReplicaStrategy().assign(torus, cache, requests, seed=3)
        for i in range(requests.num_requests):
            origin = int(requests.origins[i])
            replicas = cache.file_nodes(int(requests.files[i]))
            best = int(torus.distances_from(origin, replicas).min())
            assert int(result.distances[i]) == best

    def test_recorded_distance_matches_chosen_server(self, torus, library, cache):
        requests = UniformOriginWorkload(100).generate(torus, library, seed=4)
        result = NearestReplicaStrategy().assign(torus, cache, requests, seed=5)
        for i in range(requests.num_requests):
            origin = int(requests.origins[i])
            server = int(result.servers[i])
            assert int(result.distances[i]) == torus.distance(origin, server)

    def test_origin_cached_means_zero_distance(self, torus, library):
        # Every node caches file 0 => every request for file 0 served locally.
        slots = np.zeros((100, 2), dtype=np.int64)
        cache = CacheState(slots, 20)
        requests = RequestBatch(
            origins=np.arange(100, dtype=np.int64),
            files=np.zeros(100, dtype=np.int64),
            num_nodes=100,
            num_files=20,
        )
        result = NearestReplicaStrategy().assign(torus, cache, requests, seed=0)
        np.testing.assert_array_equal(result.distances, np.zeros(100))
        np.testing.assert_array_equal(result.servers, np.arange(100))

    def test_deterministic_given_seed(self, torus, library, cache):
        requests = UniformOriginWorkload(150).generate(torus, library, seed=6)
        strategy = NearestReplicaStrategy()
        a = strategy.assign(torus, cache, requests, seed=7)
        b = strategy.assign(torus, cache, requests, seed=7)
        np.testing.assert_array_equal(a.servers, b.servers)

    def test_empty_batch(self, torus, library, cache):
        empty = RequestBatch(
            np.array([], dtype=int), np.array([], dtype=int), 100, 20
        )
        result = NearestReplicaStrategy().assign(torus, cache, empty, seed=0)
        assert result.num_requests == 0

    @pytest.mark.parametrize(
        "scan_pairs", [1, 7, None], ids=["scan=1", "scan=7", "scan=default"]
    )
    def test_chunked_processing_matches_reference(
        self, monkeypatch, torus, library, scan_pairs
    ):
        if scan_pairs is not None:
            # One group per replica-scan chunk, or (default) every group in
            # one chunk: the scalar reference has no chunks at all.
            monkeypatch.setattr(group_index, "_SCAN_PAIRS", scan_pairs)
        scanned = []
        scan_rows = group_index._scan_rows

        def spy(topology, cache, origins, files, **kwargs):
            scanned.append(origins.size)
            return scan_rows(topology, cache, origins, files, **kwargs)

        monkeypatch.setattr(group_index, "_scan_rows", spy)
        # Five replicas per file: the probe reads B_0 only, and every group
        # whose origin lacks the file takes the scan.
        cache = PartitionPlacement(1).place(torus, library)
        requests = UniformOriginWorkload(300).generate(torus, library, seed=8)
        chunked = NearestReplicaStrategy().assign(torus, cache, requests, seed=9)
        reference = NearestReplicaStrategy(engine="reference").assign(
            torus, cache, requests, seed=9
        )
        assert sum(scanned) > 1
        np.testing.assert_array_equal(chunked.servers, reference.servers)
        np.testing.assert_array_equal(chunked.distances, reference.distances)


class TestTieBreaking:
    def test_ties_split_between_equidistant_replicas(self, library):
        torus = Torus2D(100)
        # File 0 cached only at nodes 2 and 4; origin 3 is equidistant (1 hop).
        slots = np.full((100, 1), 1, dtype=np.int64)
        slots[2, 0] = 0
        slots[4, 0] = 0
        cache = CacheState(slots, 20)
        requests = RequestBatch(
            origins=np.full(400, 3, dtype=np.int64),
            files=np.zeros(400, dtype=np.int64),
            num_nodes=100,
            num_files=20,
        )
        result = NearestReplicaStrategy().assign(torus, cache, requests, seed=0)
        counts = np.bincount(result.servers, minlength=100)
        assert counts[2] + counts[4] == 400
        assert counts[2] > 100 and counts[4] > 100  # both sides get a fair share


class TestUncachedFiles:
    def test_raises_by_default(self, torus, library):
        slots = np.zeros((100, 1), dtype=np.int64)  # only file 0 cached
        cache = CacheState(slots, 20)
        requests = RequestBatch(
            origins=np.array([0]), files=np.array([5]), num_nodes=100, num_files=20
        )
        with pytest.raises(NoReplicaError):
            NearestReplicaStrategy().assign(torus, cache, requests, seed=0)

    def test_origin_fallback(self, torus, library):
        slots = np.zeros((100, 1), dtype=np.int64)
        cache = CacheState(slots, 20)
        requests = RequestBatch(
            origins=np.array([7]), files=np.array([5]), num_nodes=100, num_files=20
        )
        strategy = NearestReplicaStrategy(allow_origin_fallback=True)
        result = strategy.assign(torus, cache, requests, seed=0)
        assert int(result.servers[0]) == 7
        assert int(result.distances[0]) == torus.diameter
        assert result.fallback_count() == 1


class TestValidationAndConfig:
    def test_incompatible_cache(self, torus, library):
        other_cache = ProportionalPlacement(2).place(Torus2D(25), library, seed=0)
        requests = UniformOriginWorkload(10).generate(torus, library, seed=0)
        with pytest.raises(StrategyError):
            NearestReplicaStrategy().assign(torus, other_cache, requests, seed=0)

    def test_as_dict(self):
        data = NearestReplicaStrategy(allow_origin_fallback=True).as_dict()
        assert data["name"] == "nearest_replica"
        assert data["allow_origin_fallback"] is True
